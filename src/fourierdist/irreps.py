"""Numerical irreducible unitary representations of a finite group.

The left regular representation is split into irreducible blocks with a
randomized commutant trick: average a random Hermitian matrix over
conjugation by the regular representation, so the result commutes with every
translation operator.  Generically its eigenspaces are exactly the
irreducible invariant subspaces (one eigenvalue per irreducible summand,
with multiplicity equal to the block dimension).  Restricting the regular
representation to each eigenspace and deduplicating by character yields a
complete set of pairwise-inequivalent irreducibles.  Degenerate draws are
detected by the validation pass and retried with a fresh seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, SizeLimitError
from .groups import FiniteGroup, _ReadOnlyArrays

TOL_REP = 1e-8          # invariant-check tolerance after re-unitarization
CLUSTER_TOL = 1e-6      # relative eigenvalue clustering threshold
MAX_RETRIES = 8
ORDER_LIMIT = 24


@dataclass(frozen=True, eq=False)
class Irrep(_ReadOnlyArrays):
    """One irreducible unitary representation.

    ``matrices`` has shape (|G|, d, d); matrices[g] is the unitary image of
    element g.
    """

    dimension: int
    matrices: np.ndarray

    def __post_init__(self):
        self.matrices.setflags(write=False)

    @property
    def characters(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=1, axis2=2)


@dataclass(frozen=True, eq=False)
class IrrepTable:
    """A complete set of pairwise-inequivalent irreducibles of one group."""

    group: FiniteGroup
    irreps: list[Irrep]

    @property
    def dims(self) -> list[int]:
        return [rep.dimension for rep in self.irreps]


def regular_representation(g: FiniteGroup) -> np.ndarray:
    """Stack of left-translation permutation matrices, shape (n, n, n).

    The matrix of element a has a 1 in row table[a, h], column h.
    """
    n = g.order
    lam = np.zeros((n, n, n))
    cols = np.arange(n)
    for a in range(n):
        lam[a, g.table[a, cols], cols] = 1.0
    return lam


def _translate_rows(g: FiniteGroup, a: int, m: np.ndarray) -> np.ndarray:
    """Compute lambda_a @ m using the permutation action on rows."""
    return m[g.table[g.inverses[a]]]


def _restriction(g: FiniteGroup, basis: np.ndarray) -> np.ndarray:
    """Restrict the regular representation to the span of the given
    orthonormal columns; returns a stack (n, d, d)."""
    qh = basis.conj().T
    return np.stack([qh @ _translate_rows(g, a, basis) for a in range(g.order)])


def _validate(group: FiniteGroup, reps: list[Irrep], tol: float):
    """Check all table invariants; return a list of violation messages."""
    problems = []
    n = group.order
    if sum(r.dimension ** 2 for r in reps) != n:
        problems.append(
            f"completeness: sum of squared dimensions {sum(r.dimension**2 for r in reps)} != {n}")
    chars = np.stack([r.characters for r in reps]) if reps else np.zeros((0, n))
    for i, rep in enumerate(reps):
        mats = rep.matrices
        prod = np.einsum("iab,jbc->ijac", mats, mats)
        hom_err = np.abs(prod - mats[group.table]).max()
        if hom_err > tol:
            problems.append(f"irrep {i}: homomorphism defect {hom_err:.2e}")
        unit_err = max(np.abs(m @ m.conj().T - np.eye(rep.dimension)).max() for m in mats)
        if unit_err > tol:
            problems.append(f"irrep {i}: unitarity defect {unit_err:.2e}")
        char_norm = np.vdot(chars[i], chars[i]).real / n
        if abs(char_norm - 1.0) > tol:
            problems.append(f"irrep {i}: character norm {char_norm:.6f} != 1 (reducible block)")
    gram = chars @ chars.conj().T / n
    off = np.abs(gram - np.diag(np.diag(gram))).max() if len(reps) > 1 else 0.0
    if off > tol:
        problems.append(f"pairwise inequivalence: character overlap {off:.2e}")
    # column orthogonality of the character table
    classes = group.conjugacy_classes()
    if reps:
        col = np.stack([chars[:, c[0]] for c in classes], axis=1)
        sizes = np.array([len(c) for c in classes])
        expected = np.diag(n / sizes)
        col_err = np.abs(col.conj().T @ col - expected).max()
        if col_err > max(tol, 1e-7) * n:
            problems.append(f"column orthogonality defect {col_err:.2e}")
    return problems


def _eigensplit(group: FiniteGroup, rng: np.random.Generator) -> list[Irrep]:
    """One randomized splitting attempt; may return a reducible (invalid) set."""
    n = group.order
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    r = (a + a.conj().T) / 2
    x = np.zeros((n, n), dtype=complex)
    for g in range(n):
        sel = group.table[group.inverses[g]]
        x += r[np.ix_(sel, sel)]
    x = (x + x.conj().T) / (2 * n)
    evals, vecs = np.linalg.eigh(x)
    scale = max(1.0, float(np.abs(evals).max()))
    clusters = []
    start = 0
    for i in range(1, n + 1):
        if i == n or evals[i] - evals[i - 1] > CLUSTER_TOL * scale:
            clusters.append(slice(start, i))
            start = i
    reps: list[Irrep] = []
    kept_chars: list[np.ndarray] = []
    for sl in clusters:
        basis = vecs[:, sl]
        mats = _restriction(group, basis)
        char = np.trace(mats, axis1=1, axis2=2)
        if any(np.abs(char - kc).max() < 1e-6 for kc in kept_chars):
            continue
        u, _, vh = np.linalg.svd(mats)
        mats = u @ vh
        mats[0] = np.eye(mats.shape[1], dtype=complex)
        kept_chars.append(char)
        reps.append(Irrep(dimension=mats.shape[1], matrices=mats))
    return reps


def _canonical_sort(reps: list[Irrep]) -> list[Irrep]:
    def key(rep: Irrep):
        char = np.round(rep.characters, 6)
        return (rep.dimension, tuple(zip(char.real.tolist(), char.imag.tolist())))
    return sorted(reps, key=key)


def irreps_of(g: FiniteGroup, seed: int = 0) -> IrrepTable:
    """Compute a complete IrrepTable of g; deterministic for a given seed."""
    if g.order > ORDER_LIMIT:
        raise SizeLimitError(f"irrep computation capped at order {ORDER_LIMIT}")
    diagnostics = []
    for attempt in range(MAX_RETRIES):
        rng = np.random.default_rng([seed, attempt, g.order])
        reps = _eigensplit(g, rng)
        problems = _validate(g, reps, TOL_REP)
        if not problems:
            return IrrepTable(group=g, irreps=_canonical_sort(reps))
        diagnostics.append(f"attempt {attempt}: " + "; ".join(problems))
    raise DegenerateSpectrumError(
        "could not split the regular representation after "
        f"{MAX_RETRIES} attempts:\n" + "\n".join(diagnostics))


def validate_irrep_table(t: IrrepTable) -> None:
    """Raise ValueError when any IrrepTable invariant fails at ``TOL_REP``."""
    problems = _validate(t.group, t.irreps, TOL_REP)
    if problems:
        raise ValueError("invalid irrep table: " + "; ".join(problems))


def character_table(t: IrrepTable) -> np.ndarray:
    """Character table as a complex matrix (irreps x conjugacy classes)."""
    classes = t.group.conjugacy_classes()
    return np.stack([[rep.characters[c[0]] for c in classes] for rep in t.irreps])


def irrep_table_to_json(t: IrrepTable) -> dict:
    """JSON export: {"dims": [...], "matrices": [[[ [re, im], ... ]]]}."""

    def encode(mats: np.ndarray):
        return [[[ [float(z.real), float(z.imag)] for z in row] for row in m] for m in mats]

    return {
        "group": t.group.label,
        "dims": t.dims,
        "matrices": [encode(rep.matrices) for rep in t.irreps],
    }


_TABLE_CACHE: dict[bytes, IrrepTable] = {}


def irrep_table_for(g: FiniteGroup, seed: int = 0) -> IrrepTable:
    """Cached irreps_of keyed by the Cayley table (default seed only)."""
    if seed != 0:
        return irreps_of(g, seed=seed)
    key = g.table.tobytes()
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = irreps_of(g, seed=0)
    return _TABLE_CACHE[key]
