"""Randomized and exhaustive checks of the quantitative matrix lemmas.

These verifiers are falsification attempts with lower-bound semantics: the
inequalities are theorems, so the suite guards the implementation rather
than the mathematics.  Reports state trial counts and the worst observed
margin and never claim a proof; a counterexample is a bug signal and its
witness is kept on the report for debugging.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .groups import FiniteGroup
from .homs import jordan_defect, op_norm
from .irreps import IrrepTable
from .optim import (haar_unitaries, haar_unitary, resolve_effort, top_singular_pair,
                    top_singular_values)

MARGIN_TOL = 1e-9
FOUR_TERM_TOL = 1e-10
SQRT2 = np.sqrt(2.0)


@dataclass(eq=False)
class LemmaReport:
    lemma_id: str
    trials: int
    worst_margin: float
    counterexample: dict | None = None
    meta: dict = field(default_factory=dict)


def _bound_from_block_norm(norms: np.ndarray) -> np.ndarray:
    c = np.maximum(norms / SQRT2, 1.0)
    return 2.0 * np.sqrt(np.maximum(c * c - 1.0, 0.0))


def _block_unitmult(u: np.ndarray, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The 2x2 operator block [[u, x], [-1, v]] as one matrix."""
    m, d = u.shape[0], u.shape[1]
    eye = np.broadcast_to(np.eye(d, dtype=complex), (m, d, d))
    top = np.concatenate([u, x], axis=2)
    bot = np.concatenate([-eye, v], axis=2)
    return np.concatenate([top, bot], axis=1)


@dataclass(frozen=True)
class _BlockLemma:
    """||block|| = c sqrt(2)  =>  ||x - centre|| <= 2 sqrt(c^2 - 1).

    A configuration maps the names in ``unitaries`` and "x" to stacks of
    d x d matrices; ``centre`` and ``block`` read one, and ``slot`` is the
    (row, column) of the d x d block that holds x.
    """

    salt: int
    unitaries: tuple[str, ...]
    centre: Callable[[dict], np.ndarray]
    block: Callable[[dict], np.ndarray]
    slot: tuple[int, int]


_LEMMAS = {
    # [[u, 1], [-1, x]]: equality at x = u*
    "invmult": _BlockLemma(
        11, ("u",), lambda w: np.conj(np.transpose(w["u"], (0, 2, 1))),
        lambda w: _block_unitmult(w["u"], np.broadcast_to(np.eye(w["x"].shape[1], dtype=complex),
                                                          w["x"].shape), w["x"]),
        (1, 1)),
    # [[u, x], [-1, v]]: equality at x = uv
    "unitmult": _BlockLemma(
        13, ("u", "v"), lambda w: w["u"] @ w["v"],
        lambda w: _block_unitmult(w["u"], w["x"], w["v"]), (0, 1)),
}


def _sample_x_near(rng, target: np.ndarray) -> np.ndarray:
    """Trial mix around a target matrix: loose Gaussians, tight
    perturbations of the target, and scaled unitaries."""
    m, d = target.shape[0], target.shape[1]
    g = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
    kind = rng.integers(0, 3, size=m)
    eps = 10.0 ** rng.uniform(-3, 0, size=m)
    x = np.empty_like(target)
    x[kind == 0] = g[kind == 0]
    sel = kind == 1
    x[sel] = target[sel] + eps[sel, None, None] * g[sel]
    sel = kind == 2
    scale = rng.uniform(0.0, 2.0, size=m)
    x[sel] = (haar_unitaries(rng, int(sel.sum()), d) * scale[sel, None, None])
    return x


def _adversarial_descent(lemma: _BlockLemma, starts: list[dict], iters: int = 60):
    """Subgradient descent on the margin along x, seeking a violation.

    ``starts`` are configurations of single d x d matrices.  Returns the
    smallest margin reached and the configuration reaching it.
    """
    worst = np.inf
    worst_cfg = None
    row, col = lemma.slot
    for start in starts:
        w = {name: a[None] for name, a in start.items()}
        x = w["x"].copy()
        centre = lemma.centre(w)
        d = x.shape[1]
        step = 0.05
        margin_prev = None
        for _ in range(iters):
            w["x"] = x
            bs, bu, bv = top_singular_pair(lemma.block(w)[0])
            ds, du, dv = top_singular_pair((x - centre)[0])
            margin = float(_bound_from_block_norm(bs) - ds)
            if margin < worst:
                worst = margin
                worst_cfg = {name: a[0].copy() for name, a in w.items()}
            # gradient of (||x - centre|| - bound) with respect to x
            g_target = np.outer(du, dv.conj())
            g_block = np.outer(bu, bv.conj())[row * d:(row + 1) * d, col * d:(col + 1) * d]
            c = max(bs / SQRT2, 1.0)
            factor = min(2.0 * c / np.sqrt(max(c * c - 1.0, 1e-12)), 1e6) / SQRT2
            x = x + step * (g_target - factor * g_block)
            if margin_prev is not None and margin > margin_prev:
                step *= 0.5
            margin_prev = margin
    return worst, worst_cfg


def _verify_block_lemma(lemma_id: str, dim: int, trials: int, seed: int) -> LemmaReport:
    """Random trials around the equality configurations, then adversarial
    descent from the worst trial and from five fresh near-equality starts."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lemma = _LEMMAS[lemma_id]
    rng = np.random.default_rng([seed, dim, lemma.salt])
    worst = np.inf
    worst_cfg = None
    done = 0
    while done < trials:
        m = min(4096, trials - done)
        w = {name: haar_unitaries(rng, m, dim) for name in lemma.unitaries}
        w["x"] = _sample_x_near(rng, lemma.centre(w))
        bound = _bound_from_block_norm(top_singular_values(lemma.block(w)))
        margins = bound - top_singular_values(w["x"] - lemma.centre(w))
        j = int(margins.argmin())
        if margins[j] < worst:
            worst = float(margins[j])
            worst_cfg = {name: a[j].copy() for name, a in w.items()}
        done += m
    starts = [{name: haar_unitary(rng, dim) for name in lemma.unitaries} for _ in range(5)]
    for w in starts:
        w["x"] = lemma.centre({name: a[None] for name, a in w.items()})[0] + 0.05 * (
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    adv_worst, adv_cfg = _adversarial_descent(lemma, [worst_cfg] + starts)
    meta = {"dim": dim, "worst_margin_random": worst, "worst_margin_adversarial": adv_worst}
    if adv_worst < worst:
        worst, worst_cfg = adv_worst, adv_cfg
    counterexample = worst_cfg if worst < -MARGIN_TOL else None
    return LemmaReport(lemma_id, trials, worst, counterexample, meta)


def verify_invmult(dim: int, trials: int = 10_000, seed: int = 0) -> LemmaReport:
    """Check ||x - u*|| <= 2 sqrt(c^2 - 1) for ||[[u,1],[-1,x]]|| = c sqrt(2).

    Random unitaries u are Haar distributed; x mixes loose Gaussians with
    tight perturbations of u*, where the inequality approaches equality.
    """
    return _verify_block_lemma("invmult", dim, trials, seed)


def verify_unitmult(dim: int, trials: int = 10_000, seed: int = 0) -> LemmaReport:
    """Check ||x - uv|| <= 2 sqrt(c^2 - 1) for ||[[u,x],[-1,v]]|| = c sqrt(2)."""
    return _verify_block_lemma("unitmult", dim, trials, seed)


def verify_norm_gap(g: FiniteGroup, t: IrrepTable, random_trials: int = 10_000,
                    seed: int = 0) -> LemmaReport:
    """Exhaustive four-term dichotomy plus random lower-bound instances.

    For every quadruple, ||l_{g1}+l_{g2}-l_{g3}-l_{g4}|| is either 0 (exactly
    when {g1,g2} = {g3,g4} as multisets) or at least sqrt(2); for random
    coefficients on distinct elements the norm is at least the Euclidean
    coefficient norm.
    """
    if random_trials < 0:
        raise ValueError("random_trials must be >= 0")
    n = g.order
    stacks = [rep.matrices for rep in t.irreps]
    idx = np.arange(n)
    q1, q2, q3, q4 = np.meshgrid(idx, idx, idx, idx, indexing="ij")
    q1, q2, q3, q4 = (q.ravel() for q in (q1, q2, q3, q4))
    values = np.zeros(n ** 4)
    for mats in stacks:
        combo = mats[q1] + mats[q2] - mats[q3] - mats[q4]
        values = np.maximum(values, top_singular_values(combo))
    zero_mask = ((q1 == q3) & (q2 == q4)) | ((q1 == q4) & (q2 == q3))
    zero_max = float(values[zero_mask].max())
    nonzero_min = float(values[~zero_mask].min())
    worst = nonzero_min - float(SQRT2)
    counterexample = None
    if zero_max > 1e-8:
        j = int(values[zero_mask].argmax())
        quad = np.stack([q1[zero_mask], q2[zero_mask], q3[zero_mask], q4[zero_mask]], axis=1)[j]
        counterexample = {"kind": "nonzero_on_equal_multiset", "quadruple": quad.tolist(),
                          "value": zero_max}
    if worst < -FOUR_TERM_TOL and counterexample is None:
        j = int(values[~zero_mask].argmin())
        quad = np.stack([q1[~zero_mask], q2[~zero_mask], q3[~zero_mask], q4[~zero_mask]], axis=1)[j]
        counterexample = {"kind": "four_term_below_sqrt2", "quadruple": quad.tolist(),
                          "value": nonzero_min}
    # random instances of the Euclidean lower bound on distinct supports
    rng = np.random.default_rng([seed, n, 17])
    done = 0
    lb_worst = np.inf
    while done < random_trials:
        m = min(4096, random_trials - done)
        coeffs = np.zeros((m, n), dtype=complex)
        for i in range(m):
            k = int(rng.integers(1, n + 1))
            support = rng.choice(n, size=k, replace=False)
            coeffs[i, support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        norms = np.zeros(m)
        for mats in stacks:
            norms = np.maximum(norms, top_singular_values(np.einsum("ng,gab->nab", coeffs, mats)))
        lower = np.sqrt((np.abs(coeffs) ** 2).sum(axis=1))
        margins = norms - lower
        j = int(margins.argmin())
        if margins[j] < lb_worst:
            lb_worst = float(margins[j])
            if margins[j] < -FOUR_TERM_TOL and counterexample is None:
                counterexample = {"kind": "below_euclidean_bound",
                                  "coeffs": coeffs[j].tolist(), "value": float(norms[j])}
        done += m
    worst = min(worst, lb_worst)
    meta = {
        "group": g.label,
        "four_term_nonzero_min": nonzero_min,
        "four_term_zero_max": zero_max,
        "euclidean_worst_margin": lb_worst if random_trials else None,
        "quadruples": int(n ** 4),
    }
    return LemmaReport("norm_gap", int(n ** 4) + random_trials, float(worst),
                       counterexample, meta)


@dataclass(eq=False)
class RhoEstimate:
    """Scatter of (distortion excess, Jordan defect) with per-eta summaries.

    ``rows`` holds, for each eta, the largest distortion excess observed
    among maps whose defect reaches eta (with the count and the binding
    minimum excess alongside); purely exploratory, no pass/fail claim.
    """

    points: list[tuple[float, float]]
    rows: list[dict]


def estimate_jordan_rho(eta_grid, homs, effort="default", seed: int = 0) -> RhoEstimate:
    """Empirical window on the modulus linking distortion excess to defect."""
    eff = resolve_effort(effort).for_scan()
    points = []
    for hom in homs:
        nt = op_norm(hom, effort=eff, seed=seed).value
        ni = op_norm(hom.inverse(), effort=eff, seed=seed).value
        defect = jordan_defect(hom, seed=seed)
        points.append((nt * ni - 1.0, defect))
    rows = []
    for eta in eta_grid:
        support = [p for p in points if p[1] >= eta]
        rows.append({
            "eta": float(eta),
            "largest_excess": max((p[0] for p in support), default=None),
            "min_excess": min((p[0] for p in support), default=None),
            "count": len(support),
        })
    return RhoEstimate(points=points, rows=rows)
