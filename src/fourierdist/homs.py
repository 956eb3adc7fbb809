"""Bijection-induced algebra isomorphisms T : A(G) -> A(H) and their norms.

All norms are computed on the adjoint side: the adjoint T* : VN(H) -> VN(G)
sends lambda_h to lambda_{t(h)} for the underlying bijection t : H -> G, so
T is a fixed coefficient permutation and the whole difficulty sits in the
operator-norm evaluation over the block decompositions.  Every reported
value is achieved by an explicit feasible witness and is therefore a
certified lower bound of the true supremum.  Each optimizer meta also
carries ``upper``, a Haagerup upper bound of ||T||_cb and so of every level
(``InducedHom.upper_bound``); a value that meets it is the exact norm, and
the search stops there.  When the source group is abelian a closed form
gives the exact value, still reported as the objective at its witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GroupMismatchError, SizeLimitError
from .fourier import (AFunction, GroupAlgebraElement, blocks_from_coeffs, coeffs_from_blocks,
                      dual_norm_witness, vn_norm_coeffs)
from .groups import FiniteGroup, GroupBijection
from .irreps import IrrepTable
from .optim import (BlockLinearMap, _best_block, _polish_step, cb_upper_bound, haar_unitary,
                    maximize_block_image, meets_upper, resolve_effort)

LEVEL_DIM_LIMIT = 64


@dataclass(eq=False)
class InducedHom:
    """The isomorphism T(f) = f o t induced by a bijection t : H -> G.

    ``source_table`` holds the irreps of G (the source of T) and
    ``target_table`` those of H (the target of T).
    """

    bijection: GroupBijection
    source_table: IrrepTable
    target_table: IrrepTable
    _kernels: list | None = field(default=None, init=False, repr=False)
    _upper: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not np.array_equal(self.bijection.target.table, self.source_table.group.table):
            raise GroupMismatchError("source_table must belong to the bijection codomain")
        if not np.array_equal(self.bijection.source.table, self.target_table.group.table):
            raise GroupMismatchError("target_table must belong to the bijection domain")

    @property
    def source_group(self) -> FiniteGroup:
        return self.source_table.group

    @property
    def target_group(self) -> FiniteGroup:
        return self.target_table.group

    def inverse(self) -> InducedHom:
        return InducedHom(
            bijection=self.bijection.inverse(),
            source_table=self.target_table,
            target_table=self.source_table,
        )

    def apply(self, values: np.ndarray) -> np.ndarray:
        """T on function values: (T f)(h) = f(t(h))."""
        return np.asarray(values, dtype=complex)[self.bijection.map]

    def kernels(self) -> list[list[np.ndarray]]:
        """Lazy kernels of the adjoint in block coordinates.

        K[pi][sigma][A,B,a,b] = (d_sigma/|H|) sum_h conj(sigma(h)[a,b]) pi(t(h))[A,B],
        so that output blocks are Y_pi = sum_sigma K[pi][sigma] . X_sigma.
        """
        if self._kernels is None:
            tmap = self.bijection.map
            n = self.target_group.order
            kernels = []
            for rep_g in self.source_table.irreps:
                row = []
                pi_t = rep_g.matrices[tmap]
                for rep_h in self.target_table.irreps:
                    row.append(rep_h.dimension / n *
                               np.einsum("hAB,hab->ABab", pi_t, rep_h.matrices.conj()))
                kernels.append(row)
            self._kernels = kernels
        return self._kernels

    def upper_bound(self) -> float:
        """Lazy upper bound of ||T||_cb, hence of ||T||_k at every level k,
        from one SVD of the Choi matrix of T* (see ``optim.cb_upper_bound``)."""
        if self._upper is None:
            self._upper = cb_upper_bound(self.kernels(), self.target_table.dims,
                                         self.source_table.dims)
        return self._upper

    def linear_map(self, k: int = 1) -> BlockLinearMap:
        return BlockLinearMap(
            kernels=self.kernels(),
            dims_in=self.target_table.dims,
            dims_out=self.source_table.dims,
            k=k,
        )


def induced_hom(source_table: IrrepTable, target_table: IrrepTable,
                mapping) -> InducedHom:
    """Convenience constructor from a raw index map t : H -> G."""
    bij = GroupBijection(source=target_table.group, target=source_table.group,
                         map=np.asarray(mapping, dtype=np.int64))
    return InducedHom(bijection=bij, source_table=source_table, target_table=target_table)


def adjoint_image(hom: InducedHom, x: GroupAlgebraElement) -> GroupAlgebraElement:
    """T* on VN(H): the coefficient of lambda_h moves to lambda_{t(h)}."""
    if x.group.order != hom.target_group.order or \
            not np.array_equal(x.group.table, hom.target_group.table):
        raise GroupMismatchError("element must live over the bijection domain")
    return GroupAlgebraElement(group=hom.source_group, coeffs=_push(hom, x.coeffs))


def _push(hom: InducedHom, coeffs: np.ndarray) -> np.ndarray:
    """T* on coefficients of shape (n, ...): C_h moves to lambda_{t(h)}."""
    out = np.zeros_like(coeffs, dtype=complex)
    out[hom.bijection.map] = coeffs
    return out


@dataclass(frozen=True, eq=False)
class Witness:
    """A feasible block tuple in M_k(VN(H)) achieving a reported norm."""

    level: int
    blocks: list[np.ndarray]

    def matrix_coefficients(self, hom: InducedHom) -> np.ndarray:
        """Coefficients C_h with X = sum_h C_h (x) lambda_h, shape (n, k, k)."""
        return coeffs_from_blocks(hom.target_table, self.blocks)


def _witness_value(hom: InducedHom, witness: Witness) -> float:
    """The objective max_pi ||sum_h C_h (x) pi(t(h))|| at a witness."""
    return vn_norm_coeffs(hom.source_table, _push(hom, witness.matrix_coefficients(hom)))


@dataclass(frozen=True, eq=False)
class NormEstimate:
    value: float
    witness: Witness
    meta: dict


def _lift_witness(witness: Witness, target_table: IrrepTable, k: int) -> list[np.ndarray]:
    """Embed a level-j witness into level k >= j without changing norms.

    Tensoring with an identity (j = 1) or padding with zeros keeps both the
    constraint norm and the image norm, so lifted starts guarantee that the
    level-k value is at least the level-j value.
    """
    dims = target_table.dims
    if witness.level == 1:
        return [np.kron(np.eye(k, dtype=complex), blk) for blk in witness.blocks]
    j = witness.level
    lifted = []
    for d, blk in zip(dims, witness.blocks):
        big = np.zeros((k, d, k, d), dtype=complex)
        big[:j, :, :j, :] = blk.reshape(j, d, j, d)
        lifted.append(big.reshape(k * d, k * d))
    return lifted


def _check_level(hom: InducedHom, k: int) -> None:
    if k < 1:
        raise ValueError("amplification level must be >= 1")
    max_dim = max(hom.source_table.dims + hom.target_table.dims)
    if k * max_dim > LEVEL_DIM_LIMIT:
        raise SizeLimitError(
            f"level {k} with block dimension {max_dim} exceeds the limit {LEVEL_DIM_LIMIT}")


def level_k_norm(hom: InducedHom, k: int, effort="default", seed: int = 0,
                 hints: tuple[Witness, ...] = ()) -> NormEstimate:
    """Norm of the level-k amplification id_{M_k} (x) T*, with witness.

    Maximizes max_pi ||sum_h C_h (x) pi(t(h))|| over block tuples
    X = sum_h C_h (x) lambda_h with max_sigma ||sum_h C_h (x) sigma(h)|| <= 1.
    When the source group is abelian the exact value is taken from the
    closed form instead; ``effort`` is then only validated, and ``seed`` and
    ``hints`` are unused.  Otherwise the search stops early once a witness
    meets ``hom.upper_bound()``, recorded as ``upper`` in the meta.
    """
    _check_level(hom, k)
    eff = resolve_effort(effort)
    if hom.source_group.is_abelian():
        return _abelian_source_norm(hom, k)
    linmap = hom.linear_map(k)
    extra = tuple(_lift_witness(w, hom.target_table, k) for w in hints if w.level <= k)
    value, blocks, meta = maximize_block_image(linmap, eff, seed=seed, extra_starts=extra,
                                               upper=hom.upper_bound())
    return NormEstimate(value=value, witness=Witness(level=k, blocks=blocks), meta=meta)


def _abelian_source_norm(hom: InducedHom, k: int) -> NormEstimate:
    """Exact level-k norm when G, the source of T, is abelian.

    VN(G) is commutative, so ||T||_k = ||T||_cb = ||T|| for every k, and the
    unit ball of A(G) has the unimodular multiples of the characters as
    extreme points; hence ||T||_k = max_chi ||chi o t||_{A(H)}.  The witness
    is I_k (x) X for the dual witness X of the maximizing chi o t, and the
    value is the objective evaluated there.
    """
    tmap = hom.bijection.map
    best_val, best_x = -1.0, None
    for rep in hom.source_table.irreps:
        chi_t = AFunction(hom.target_group, rep.matrices[tmap, 0, 0])
        val, x = dual_norm_witness(chi_t, hom.target_table)
        if val > best_val:
            best_val, best_x = val, x
    level1 = Witness(level=1, blocks=blocks_from_coeffs(hom.target_table, best_x.coeffs))
    witness = Witness(level=k, blocks=_lift_witness(level1, hom.target_table, k))
    meta = {"restarts": 0, "samples": 0, "converged": True, "best_source": "closed-form"}
    return NormEstimate(value=_witness_value(hom, witness), witness=witness, meta=meta)


def _level_sweep(hom: InducedHom, levels, eff, seed: int) -> list[NormEstimate]:
    """Estimates at each level in increasing order, each seeded by the
    previous level's witness, whose lift attains the previous value.

    Levels run level_k_norm until one of them equals the cb norm:
      * the first level at or above D = max_pi d_pi(G).  T* maps into
        VN(G) = (+)_pi M_{d_pi}, so ||T||_k is the largest ||T*_pi||_k, and
        by Smith's lemma a map into M_d has ||.||_cb = ||.||_d;
      * or an earlier level whose value meets ``hom.upper_bound()``
        (``meets_upper``), an upper bound of ||T||_cb: the search there
        already stopped at that witness.
    A later level gets no optimizer call: its witness is that estimate's
    witness lifted to level k, its value the same value (the lift attains it
    exactly) and its meta a copy of that estimate's meta.  Only searched
    levels are held to ``LEVEL_DIM_LIMIT`` (by level_k_norm): a lifted level
    builds no linear map.
    """
    top = max(hom.source_table.dims)
    estimates: list[NormEstimate] = []
    done = None
    for k in levels:
        if done is not None:
            lifted = Witness(level=k, blocks=_lift_witness(done.witness, hom.target_table, k))
            estimates.append(NormEstimate(value=done.value, witness=lifted, meta=dict(done.meta)))
            continue
        hints = (estimates[-1].witness,) if estimates else ()
        est = level_k_norm(hom, k, effort=eff, seed=seed, hints=hints)
        estimates.append(est)
        if k >= top or meets_upper(est.value, est.meta.get("upper")):
            done = est
    return estimates


def op_norm(hom: InducedHom, effort="default", seed: int = 0) -> NormEstimate:
    """||T|| = ||T*||, as a certified lower bound with witness."""
    return level_k_norm(hom, 1, effort=effort, seed=seed)


@dataclass(frozen=True, eq=False)
class CbNormResult:
    value: float
    levels: list[tuple[int, float]]
    witness: Witness
    meta: dict
    metas: list[dict]


def cb_norm(hom: InducedHom, effort="default", seed: int = 0) -> CbNormResult:
    """Completely bounded norm, with the level sequence k = 1..m.

    VN(G) embeds in the matrices of size m = sum_pi d_pi(G), and the
    sequence is reported up to m.  By Smith's lemma the norm is already
    reached at D = max_pi d_pi(G) <= m, and it is reached earlier at a level
    whose value meets the Haagerup bound ``hom.upper_bound()``.  The sweep
    searches levels only up to the first of these, and every level above it
    carries that value and the lifted witness (see ``_level_sweep``).
    ``metas`` has one meta per level (a lifted level's is a copy of its
    searched level's), ``meta`` the last.  Only the searched levels must fit
    ``LEVEL_DIM_LIMIT``, so a source whose level m does not, such as Z24
    into S4, is still reported.
    """
    m = int(sum(hom.source_table.dims))
    estimates = _level_sweep(hom, range(1, m + 1), resolve_effort(effort), seed)
    return CbNormResult(value=estimates[-1].value,
                        levels=[(k, est.value) for k, est in enumerate(estimates, start=1)],
                        witness=estimates[-1].witness, meta=estimates[-1].meta,
                        metas=[est.meta for est in estimates])


def _conv_sum_matrix(group: FiniteGroup, b: np.ndarray) -> np.ndarray:
    """Matrix of c -> c b + b c on coefficients: lambda_g lambda_h = lambda_{gh}."""
    n = group.order
    right = np.zeros((n, n), dtype=complex)
    left = np.zeros((n, n), dtype=complex)
    cols = np.arange(n)
    right[group.table, cols[:, None]] = b[None, :]    # column g: e_g b
    left[group.table, cols[None, :]] = b[:, None]     # column h: b e_h
    return right + left


def _jordan_operator(hom: InducedHom, b: np.ndarray) -> np.ndarray:
    """The n x n matrix J(b) with J(b) a = D(a, b), the coefficients over G of
    T*(ab) + T*(ba) - T*(a)T*(b) - T*(b)T*(a).  D is symmetric in a and b."""
    return (_push(hom, _conv_sum_matrix(hom.target_group, b))
            - _conv_sum_matrix(hom.source_group, _push(hom, b))[:, hom.bijection.map])


def _jordan_coeffs(hom: InducedHom, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients over G of T*(ab) + T*(ba) - T*(a)T*(b) - T*(b)T*(a)."""
    return _jordan_operator(hom, b) @ a


def jordan_defect(hom: InducedHom, samples: int = 256, seed: int = 0,
                  refine_rounds: int = 25) -> float:
    """Lower-bound estimate of the Jordan defect of T* over unit-ball pairs.

    Scans all lambda-basis pairs exactly, adds random unitary pairs, then
    refines the best candidates by alternating exact maximization of the
    linearized objective in each argument.
    """
    h_table = hom.target_table
    h_group = hom.target_group
    n = h_group.order
    rng = np.random.default_rng([seed, 7])

    def defect(a, b):
        return vn_norm_coeffs(hom.source_table, _jordan_coeffs(hom, a, b))

    candidates = []
    eye_n = np.eye(n, dtype=complex)
    for h1 in range(n):
        for h2 in range(n):
            candidates.append((defect(eye_n[h1], eye_n[h2]), eye_n[h1], eye_n[h2]))
    for _ in range(samples):
        a = _random_unitary_element(h_table, rng)
        b = _random_unitary_element(h_table, rng)
        candidates.append((defect(a, b), a, b))
    candidates.sort(key=lambda t: -t[0])
    best = candidates[0][0]
    for val, a, b in candidates[:4]:
        refined = _refine_jordan_pair(hom, a, b, refine_rounds)
        best = max(best, refined)
    return float(best)


def _random_unitary_element(table: IrrepTable, rng: np.random.Generator) -> np.ndarray:
    """Coefficients of a Haar-random unitary element of VN(H)."""
    return coeffs_from_blocks(table, [haar_unitary(rng, rep.dimension)
                                      for rep in table.irreps])[:, 0, 0]


def _refine_jordan_pair(hom: InducedHom, a0: np.ndarray, b0: np.ndarray,
                        rounds: int) -> float:
    """Alternating exact ascent of the defect over the two unit balls.

    The defect is linear in each argument, c -> lin @ c, so each half step is
    the optimizer's polish step in block coordinates.  It returns the new
    argument and the defect there, read off the same ``lin``.
    """
    h_table, g_table = hom.target_table, hom.source_table

    def half_step(fixed, var):
        lin = _jordan_operator(hom, fixed)

        def adjoint(seed_blocks):
            # the seed has one nonzero block, so this is the adjoint of
            # X -> blocks(lin @ coeffs(X)) up to a positive factor per block
            pulled = lin.conj().T @ coeffs_from_blocks(g_table, seed_blocks)[:, 0, 0]
            return blocks_from_coeffs(h_table, pulled)

        y = blocks_from_coeffs(g_table, lin @ var)
        _, idx, u, v = _best_block(y)
        new = coeffs_from_blocks(h_table, _polish_step(adjoint, y, idx, u, v))[:, 0, 0]
        return new, vn_norm_coeffs(g_table, lin @ new)

    a, b = a0.copy(), b0.copy()
    best = vn_norm_coeffs(g_table, _jordan_coeffs(hom, a, b))
    for _ in range(rounds):
        improved = False
        for which in (0, 1):
            if which == 0:
                a, val_new = half_step(b, a)
            else:
                b, val_new = half_step(a, b)
            if val_new > best + 1e-13:
                best = val_new
                improved = True
        if not improved:
            break
    return best


@dataclass(frozen=True, eq=False)
class HomNormReport:
    """Amplified norms of T and T^{-1} by level, with witnesses; ||T||,
    ||T^{-1}|| and the distortion are read from level 1."""

    level_k_norms: dict[int, tuple[float, float]]
    witnesses: dict
    optimizer_meta: dict

    @property
    def norm_T(self) -> float:
        return self.level_k_norms[1][0]

    @property
    def norm_Tinv(self) -> float:
        return self.level_k_norms[1][1]

    @property
    def distortion(self) -> float:
        return self.norm_T * self.norm_Tinv


def hom_norm_report(hom: InducedHom, levels=(1, 2), effort="default",
                    seed: int = 0) -> HomNormReport:
    """Compute ||T||, ||T^{-1}||, the requested amplified norms and distortion.

    Each level is seeded by the previous level's witness, so the reported
    level-k values are nondecreasing in k.  In each direction, levels above
    the first requested one at or above D = max_pi d_pi of that direction's
    source, or above a level whose value meets that direction's cb upper
    bound, are not searched: they carry that level's value, its lifted
    witness and a copy of its optimizer meta (see ``_level_sweep``).  Every
    requested level is reported with a witness, so each must fit
    ``LEVEL_DIM_LIMIT``, checked before any search.
    """
    eff = resolve_effort(effort)
    levels = sorted(set(int(k) for k in levels) | {1})
    _check_level(hom, levels[-1])
    forward = _level_sweep(hom, levels, eff, seed)
    backward = _level_sweep(hom.inverse(), levels, eff, seed)
    pairs = dict(zip(levels, zip(forward, backward)))
    return HomNormReport(
        level_k_norms={k: (f.value, i.value) for k, (f, i) in pairs.items()},
        witnesses={k: (f.witness, i.witness) for k, (f, i) in pairs.items()},
        optimizer_meta={k: (f.meta, i.meta) for k, (f, i) in pairs.items()},
    )


def transport_report(hom: InducedHom, report: HomNormReport, alpha: np.ndarray,
                     beta: np.ndarray) -> HomNormReport:
    """The report of the map alpha o t o beta, built from the report of t.

    ``hom`` is induced by t : H -> G, and alpha, beta are automorphisms of G
    and H.  They act on VN(G) and VN(H) as *-automorphisms, so moving the
    witness coefficients of T along beta (C'_h = C_{beta(h)}) and those of
    T^{-1} along alpha^{-1} keeps each witness feasible and its image norm
    unchanged.  Every value is re-evaluated at the moved witness on the new
    map, so it stays the exact objective at a stored witness.
    """
    bij = GroupBijection(source=hom.target_group, target=hom.source_group,
                         map=alpha[hom.bijection.map[beta]])
    moved = InducedHom(bijection=bij, source_table=hom.source_table,
                       target_table=hom.target_table)
    inverse, moved_inverse, alpha_inv = hom.inverse(), moved.inverse(), np.argsort(alpha)

    def move(old_hom, new_hom, witness, perm):
        coeffs = witness.matrix_coefficients(old_hom)[perm]
        new_witness = Witness(level=witness.level,
                              blocks=blocks_from_coeffs(new_hom.target_table, coeffs))
        return new_witness, _witness_value(new_hom, new_witness)

    level_norms: dict[int, tuple[float, float]] = {}
    witnesses: dict = {}
    for k, (w_f, w_i) in report.witnesses.items():
        w_f, v_f = move(hom, moved, w_f, beta)
        w_i, v_i = move(inverse, moved_inverse, w_i, alpha_inv)
        level_norms[k] = (v_f, v_i)
        witnesses[k] = (w_f, w_i)
    return HomNormReport(
        level_k_norms=level_norms,
        witnesses=witnesses,
        optimizer_meta={k: tuple(dict(m) for m in metas)
                        for k, metas in report.optimizer_meta.items()},
    )
