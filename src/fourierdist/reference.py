"""Recompute the bundled reference values and compare with closed forms.

Every row pins a quantity whose exact value is known independently: norms of
specific functions on Z6 and S3, the norms and distortion of the worked
isomorphism between their Fourier algebras, the exhaustive scan of the order-4
pair, and small matrix identities.  ``build_reference_rows`` powers the CLI
``reproduce`` command; tests inject a corrupted irrep provider through
``irrep_provider`` to check failure localization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import (GroupAlgebraElement, a_norm, function_from_cyclic_coeffs,
                      schatten_norm, vn_norm)
from .groups import make_cyclic, make_symmetric, parse_group_spec
from .homs import hom_norm_report, induced_hom, _jordan_coeffs
from .irreps import irrep_table_for
from .optim import resolve_effort
from .search import epsilon_zero_bound, min_distortion

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ReferenceRow:
    name: str
    expected: float
    computed: float
    tol: float

    @property
    def passed(self) -> bool:
        return abs(self.computed - self.expected) <= self.tol


def _standard_two_dim_irrep():
    """The 2-dim irrep of S3 generated from its standard matrices.

    pi(s) is the flip, pi(r) = diag(w, conj(w)) with w = exp(2 pi i / 3);
    the element order matches make_symmetric(3): id, s, r, sr, r^2, sr^2.
    """
    w = np.exp(2j * np.pi / 3)
    ps = np.array([[0, 1], [1, 0]], dtype=complex)
    pr = np.diag([w, np.conj(w)])
    return np.stack([np.eye(2, dtype=complex), ps, pr, ps @ pr, pr @ pr, ps @ pr @ pr])


def two_dim_block_formula(coeffs: np.ndarray) -> np.ndarray:
    """Closed form of the 2-dim transform block on S3, in expansion
    coefficients: (1/2) [[c1+c4, w2c (c2-c5)], [w1c (c1-c4), c2+c5]]."""
    c = np.asarray(coeffs, dtype=complex)
    w1c = np.exp(-1j * np.pi / 3)
    w2c = np.exp(-2j * np.pi / 3)
    return 0.5 * np.array([
        [c[1] + c[4], w2c * (c[2] - c[5])],
        [w1c * (c[1] - c[4]), c[2] + c[5]],
    ])


def build_reference_rows(effort="default", seed: int = 0, irrep_provider=None):
    """All reference checks as a list of ReferenceRow."""
    provider = irrep_provider or irrep_table_for
    eff = resolve_effort(effort)
    rows: list[ReferenceRow] = []

    z6 = make_cyclic(6)
    s3 = make_symmetric(3)
    rows.append(ReferenceRow("Z6 product entry (2,5)", 1.0, float(z6.mult(2, 5)), 0.0))
    rows.append(ReferenceRow("S3 is noncommutative at (s, r)", 1.0,
                             float(s3.mult(1, 2) != s3.mult(2, 1)), 0.0))

    t6 = provider(z6)
    t3 = provider(s3)
    chars = np.stack([rep.characters for rep in t6.irreps])
    grid = np.exp(1j * np.pi * np.outer(np.arange(6), np.arange(6)) / 3)
    char_err = max(min(float(np.abs(c - e).max()) for e in grid) for c in chars)
    rows.append(ReferenceRow("Z6 characters are exp(i pi j k / 3)", 0.0, char_err, 1e-8))
    rows.append(ReferenceRow("S3 irrep dimensions are 1,1,2", 1.0,
                             float(sorted(t3.dims) == [1, 1, 2]), 0.0))
    two = [rep for rep in t3.irreps if rep.dimension == 2]
    if two:
        expected_char = np.array([2, 0, -1, 0, -1, 0], dtype=complex)
        rows.append(ReferenceRow("S3 2-dim character (2,0,-1,0,-1,0)", 0.0,
                                 float(np.abs(two[0].characters - expected_char).max()),
                                 1e-8))
    else:
        rows.append(ReferenceRow("S3 2-dim character (2,0,-1,0,-1,0)", 0.0, np.inf, 1e-8))

    m = np.array([[1, 0], [np.exp(-1j * np.pi / 3), 0]], dtype=complex)
    rows.append(ReferenceRow("S1 norm of [[1,0],[w,0]]", SQRT2, schatten_norm(m, 1), 1e-12))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(2000):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ident = math.sqrt(schatten_norm(x, 2) ** 2 + 2 * abs(np.linalg.det(x)))
        worst = max(worst, abs(schatten_norm(x, 1) - ident))
    rows.append(ReferenceRow("2x2 trace-norm identity", 0.0, worst, 1e-10))

    # transform block on S3 vs the closed coefficient formula (same singular
    # values; entrywise they agree after a fixed transpose and diagonal phases)
    pim = _standard_two_dim_irrep()
    sv_err = 0.0
    phase_err = 0.0
    d1 = np.diag([1.0, np.exp(4j * np.pi / 3)])
    d2 = np.diag([1.0, np.exp(2j * np.pi / 3)])
    for _ in range(50):
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        f = function_from_cyclic_coeffs(s3, coeffs)
        block = np.einsum("g,gba->ab", f.values, pim.conj()) / 6.0
        formula = two_dim_block_formula(coeffs)
        # a 2x2 block's singular values are fixed by its trace and operator norms
        sv_err = max(sv_err, *(abs(schatten_norm(block, p) - schatten_norm(formula, p))
                               for p in (1, np.inf)))
        phase_err = max(phase_err, float(np.abs(block - d1 @ formula.T @ d2).max()))
    rows.append(ReferenceRow("S3 2-dim block singular values match formula",
                             0.0, sv_err, 1e-9))
    rows.append(ReferenceRow("S3 2-dim block equals twisted formula", 0.0,
                             phase_err, 1e-9))

    coeffs = np.array([0, 1, 1, 0, 1, -1], dtype=complex)
    f6 = function_from_cyclic_coeffs(z6, coeffs)
    f3 = function_from_cyclic_coeffs(s3, coeffs)
    rows.append(ReferenceRow("norm on Z6 of coeffs (0,1,1,0,1,-1)", 4.0,
                             a_norm(f6, t6), 1e-8))
    rows.append(ReferenceRow("norm on S3 of coeffs (0,1,1,0,1,-1)", 2 * SQRT2,
                             a_norm(f3, t3), 1e-8))
    e1 = np.zeros(6, dtype=complex)
    e1[1] = 1.0
    rows.append(ReferenceRow("norm on Z6 of first character", 1.0,
                             a_norm(function_from_cyclic_coeffs(z6, e1), t6), 1e-8))
    rows.append(ReferenceRow("norm on S3 of first character", SQRT2,
                             a_norm(function_from_cyclic_coeffs(s3, e1), t3), 1e-8))

    hom = induced_hom(t6, t3, np.arange(6))
    report = hom_norm_report(hom, levels=(1,), effort=eff, seed=seed)
    rows.append(ReferenceRow("Z6->S3 induced norm", SQRT2, report.norm_T, 1e-4))
    rows.append(ReferenceRow("Z6->S3 inverse norm", SQRT2, report.norm_Tinv, 1e-4))
    rows.append(ReferenceRow("Z6->S3 distortion", 2.0, report.distortion, 2e-4))

    # the Jordan-defect identity on basis pairs (h, h^{-1})
    pair_err = 0.0
    tmap = hom.bijection.map
    for h in range(6):
        hinv = s3.inv(h)
        a = np.zeros(6, dtype=complex)
        b = np.zeros(6, dtype=complex)
        a[h] = 1.0
        b[hinv] = 1.0
        via_hom = _jordan_coeffs(hom, a, b)
        direct = np.zeros(6, dtype=complex)
        direct[0] += 2.0
        direct[z6.mult(int(tmap[h]), int(tmap[hinv]))] -= 1.0
        direct[z6.mult(int(tmap[hinv]), int(tmap[h]))] -= 1.0
        lhs = vn_norm(GroupAlgebraElement(z6, via_hom), t6)
        rhs = vn_norm(GroupAlgebraElement(z6, direct), t6)
        pair_err = max(pair_err, abs(lhs - rhs))
    rows.append(ReferenceRow("Jordan defect identity on inverse pairs", 0.0,
                             pair_err, 1e-9))

    z4 = make_cyclic(4)
    z22 = parse_group_spec("Z2xZ2")
    scan = min_distortion(z4, z22, effort=eff, seed=seed)
    rows.append(ReferenceRow("Z4 vs Z2xZ2 minimal distortion", 2.0,
                             scan.min_distortion, 1e-3))
    rows.append(ReferenceRow("Z4 vs Z2xZ2 norm-sqrt2 witness", SQRT2,
                             min(r.report.norm_T for r in scan.records), 1e-4))
    bound, _ = epsilon_zero_bound([(z4, z22)], effort=eff, seed=seed)
    rows.append(ReferenceRow("distortion rigidity bound <= 1", 1.0, bound, 1e-3))

    return rows


def rows_to_dict(rows: list[ReferenceRow]) -> dict:
    return {
        "schema": 1,
        "rows": [
            {"name": r.name, "expected": r.expected, "computed": r.computed,
             "tol": r.tol, "pass": r.passed}
            for r in rows
        ],
        "all_pass": all(r.passed for r in rows),
    }
