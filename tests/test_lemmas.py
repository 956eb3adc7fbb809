import math

import numpy as np
import pytest

import fourierdist as fd
from fourierdist.lemmas import (_LEMMAS, _adversarial_descent, _block_unitmult,
                               _bound_from_block_norm)
from fourierdist.optim import haar_unitaries, top_singular_values

from conftest import FAST_EFFORT

SQRT2 = math.sqrt(2.0)


def _block_invmult(u, x):
    """The block [[u, 1], [-1, x]], as [[u, x'], [-1, v']] with x' = 1, v' = x."""
    return _block_unitmult(u, np.broadcast_to(np.eye(u.shape[1], dtype=complex), u.shape), x)


def test_haar_sampling_sanity():
    rng = np.random.default_rng(0)
    batch = haar_unitaries(rng, 64, 5)
    for u in batch:
        assert np.abs(u @ u.conj().T - np.eye(5)).max() < 1e-10
    single = fd.haar_unitary(rng, 7)
    assert np.abs(single @ single.conj().T - np.eye(7)).max() < 1e-10


def test_haar_unitary_is_a_batch_of_one():
    # one sampler: a single draw is bit-equal to a batch of one on the same
    # stream, and to the QR of the Ginibre matrix (re + 1j im) / sqrt(2)
    for d in (1, 2, 3, 5, 8):
        single = fd.haar_unitary(np.random.default_rng([d, 3]), d)
        batch = haar_unitaries(np.random.default_rng([d, 3]), 1, d)
        assert batch.shape == (1, d, d)
        assert np.array_equal(single, batch[0])
        rng = np.random.default_rng([d, 3])
        z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        assert np.array_equal(single, q * (np.diag(r) / np.abs(np.diag(r))))


def test_invmult_equality_configuration():
    # x = u*: the block has norm exactly sqrt(2), c = 1, bound and margin 0
    rng = np.random.default_rng(1)
    u = haar_unitaries(rng, 8, 3)
    x = np.conj(np.transpose(u, (0, 2, 1)))
    norms = top_singular_values(_block_invmult(u, x))
    assert np.abs(norms - SQRT2).max() < 1e-12
    bounds = _bound_from_block_norm(norms)
    targets = top_singular_values(x - np.conj(np.transpose(u, (0, 2, 1))))
    assert np.abs(bounds - targets).max() < 1e-6


def test_invmult_perturbation_sweep():
    rng = np.random.default_rng(2)
    margins = []
    for eps in (0.1, 0.01, 0.001):
        worst = np.inf
        for _ in range(50):
            u = haar_unitaries(rng, 1, 4)
            v = rng.standard_normal((1, 4, 4)) + 1j * rng.standard_normal((1, 4, 4))
            v /= np.linalg.svd(v[0], compute_uv=False)[0]
            x = np.conj(np.transpose(u, (0, 2, 1))) + eps * v
            margin = float((_bound_from_block_norm(top_singular_values(_block_invmult(u, x)))
                            - top_singular_values(x - np.conj(np.transpose(u, (0, 2, 1)))))[0])
            worst = min(worst, margin)
        margins.append(worst)
        assert worst >= -1e-9
    # the slack shrinks toward the equality configuration
    assert margins[2] <= margins[0] + 1e-9
    assert margins[2] < 0.05


def test_verify_invmult_small_runs():
    for dim in (1, 2, 4):
        report = fd.verify_invmult(dim, trials=800, seed=5)
        assert report.lemma_id == "invmult"
        assert report.trials == 800
        assert report.worst_margin >= -1e-9
        assert report.counterexample is None
        # the adversarial phase searches harder than random sampling
        assert report.meta["worst_margin_adversarial"] \
            <= report.meta["worst_margin_random"] + 1e-12


def test_verify_unitmult_small_runs():
    for dim in (1, 2, 4):
        report = fd.verify_unitmult(dim, trials=800, seed=6)
        assert report.worst_margin >= -1e-9
        assert report.counterexample is None
        # the descent moves x along its own block slot, so it gets closer to
        # equality than the random trials it starts from
        assert report.meta["worst_margin_adversarial"] \
            < report.meta["worst_margin_random"] - 1e-12
        assert type(report.meta["worst_margin_adversarial"]) is float
        assert type(report.meta["worst_margin_random"]) is float


@pytest.mark.parametrize("lemma_id", ["invmult", "unitmult"])
def test_block_gradient_follows_the_x_slot(lemma_id):
    # the top singular pair restricted to x's slot is the gradient of the
    # block norm in x: it matches a central finite difference
    lemma = _LEMMAS[lemma_id]
    rng = np.random.default_rng(12)
    d, h = 3, 1e-6
    w = {name: haar_unitaries(rng, 1, d) for name in lemma.unitaries}
    w["x"] = rng.standard_normal((1, d, d)) + 1j * rng.standard_normal((1, d, d))
    e = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    bu, _, bvh = np.linalg.svd(lemma.block(w)[0])
    row, col = lemma.slot
    grad = np.outer(bu[:, 0], bvh[0])[row * d:(row + 1) * d, col * d:(col + 1) * d]

    def block_norm(x):
        return top_singular_values(lemma.block({**w, "x": x}))[0]

    fd_diff = (block_norm(w["x"] + h * e) - block_norm(w["x"] - h * e)) / (2 * h)
    assert abs(np.vdot(grad, e).real - fd_diff) < 1e-6


def test_adversarial_descent_keeps_v():
    # the worst configuration carries v, so a unitmult counterexample found by
    # the descent can be re-checked from the report alone
    rng = np.random.default_rng(4)
    u, v = haar_unitaries(rng, 2, 3)
    x = u @ v + 0.05 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    worst, cfg = _adversarial_descent(_LEMMAS["unitmult"], [{"u": u, "v": v, "x": x}])
    cu, cx, cv = cfg["u"], cfg["x"], cfg["v"]
    assert np.array_equal(cv, v)
    block_norm = top_singular_values(_block_unitmult(cu[None], cx[None], cv[None]))
    margin = _bound_from_block_norm(block_norm)[0] - top_singular_values(cx - cu @ cv)
    assert abs(margin - worst) < 1e-12


def test_unitmult_equality_and_reduction():
    rng = np.random.default_rng(3)
    u = haar_unitaries(rng, 4, 3)
    v = haar_unitaries(rng, 4, 3)
    x = u @ v
    norms = top_singular_values(_block_unitmult(u, x, v))
    assert np.abs(norms - SQRT2).max() < 1e-12
    # with u = v = 1 and Hermitian x, the block norm coincides with the
    # inverse-style block [[1,1],[-1,x]]
    for _ in range(5):
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (h + h.conj().T) / 2
        eye = np.broadcast_to(np.eye(3, dtype=complex), (1, 3, 3))
        c_unit = top_singular_values(_block_unitmult(eye, h[None], eye))[0]
        c_inv = top_singular_values(_block_invmult(eye, h[None]))[0]
        assert abs(c_unit - c_inv) < 1e-10


def test_verify_norm_gap_examples(tables):
    # single translation: norm 1 equals the Euclidean bound exactly
    z6 = fd.make_cyclic(6)
    t6 = tables["Z6"]
    single = fd.GroupAlgebraElement(z6, np.eye(6, dtype=complex)[2])
    assert fd.vn_norm(single, t6) == pytest.approx(1.0, abs=1e-12)

    report = fd.verify_norm_gap(z6, t6, random_trials=2000, seed=7)
    assert report.counterexample is None
    assert report.worst_margin >= -1e-10
    assert report.meta["four_term_nonzero_min"] >= SQRT2 - 1e-10
    assert report.meta["four_term_zero_max"] < 1e-10

    s3 = fd.make_symmetric(3)
    report3 = fd.verify_norm_gap(s3, tables["S3"], random_trials=2000, seed=8)
    assert report3.worst_margin >= -1e-10
    assert report3.counterexample is None


def test_estimate_jordan_rho(z6, s3):
    t6 = fd.irrep_table_for(z6)
    t3 = fd.irrep_table_for(s3)
    iso = fd.induced_hom(t6, t6, np.arange(6))
    worked = fd.induced_hom(t6, t3, np.arange(6))
    est = fd.estimate_jordan_rho([0.1, 1.0, 1.5], [iso, worked],
                                 effort=FAST_EFFORT, seed=9)
    assert len(est.points) == 2
    excess_iso, defect_iso = est.points[0]
    assert abs(excess_iso) < 1e-6 and defect_iso < 1e-8
    excess_w, defect_w = est.points[1]
    assert excess_w == pytest.approx(1.0, abs=1e-3)
    assert defect_w >= SQRT2 - 1e-6
    # monotone consistency: the window cannot grow as eta grows
    larges = [row["largest_excess"] for row in est.rows if row["largest_excess"] is not None]
    for lo, hi in zip(larges, larges[1:]):
        assert hi <= lo + 1e-12
    for row in est.rows:
        assert row["count"] == sum(1 for p in est.points if p[1] >= row["eta"])


def test_lemma_report_counterexample_iff_negative_margin():
    report = fd.verify_invmult(2, trials=500, seed=10)
    assert (report.counterexample is not None) == (report.worst_margin < -1e-9)
