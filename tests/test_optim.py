import numpy as np
import pytest

import fourierdist as fd
from fourierdist.optim import (BlockLinearMap, _best_block, _polish_step, cb_upper_bound,
                               clip_to_ball, haar_unitaries, maximize_block_image,
                               meets_upper, top_singular_pair, top_singular_value, top_singular_values)
from fourierdist.search import _orbit_transports

from conftest import FAST_EFFORT, reevaluate_witness


def _lapack_top(stack):
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _special_blocks(rng, shape, d):
    """Zero, rank-one and equal-singular-value blocks mixed into a random stack."""
    n = int(np.prod(shape))
    stack = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    stack *= 10.0 ** rng.uniform(-3, 3, size=(n, 1, 1))
    stack[0::4] = 0
    u = rng.standard_normal((n, d, 1)) + 1j * rng.standard_normal((n, d, 1))
    v = rng.standard_normal((n, 1, d)) + 1j * rng.standard_normal((n, 1, d))
    stack[1::4] = (u @ v)[1::4]
    scales = 10.0 ** rng.uniform(-3, 3, size=n)
    stack[2::4] = scales[2::4, None, None] * haar_unitaries(rng, n, d)[2::4]
    return stack.reshape(*shape, d, d)


def test_top_singular_value_2x2_close_singular_values():
    # equal or nearly equal singular values used to lose half the digits to
    # the cancellation in frob^4 - 4 |det|^2
    rng = np.random.default_rng(12)
    worst = 0.0
    for y in (1.0, 1e-3, 7.5, 0.3 + 0.4j, np.exp(0.7j)):
        m = np.kron(np.eye(2), np.array([[y]], dtype=complex))
        worst = max(worst, abs(top_singular_value(m) - abs(y)) / abs(y))
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-3, 3)
        m = scale * fd.haar_unitary(rng, 2)
        worst = max(worst, abs(top_singular_value(m) - scale) / scale)
    assert worst < 1e-14
    # the same blocks as stacks, with leading shapes (500,) and (5, 4)
    for shape in ((500,), (5, 4)):
        scales = 10.0 ** rng.uniform(-3, 3, size=shape)
        stack = scales[..., None, None] * haar_unitaries(
            rng, int(np.prod(shape)), 2).reshape(*shape, 2, 2)
        top = top_singular_values(stack)
        assert top.shape == shape
        assert np.all(np.abs(top - scales) <= 1e-14 * scales)


def test_top_singular_value_2x2_matches_svd(monkeypatch):
    rng = np.random.default_rng(13)
    for _ in range(500):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        exact = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(top_singular_value(m) - exact) <= 1e-14 * exact
    # stacks of 1x1 and 2x2 blocks, with zero, rank-one and equal-singular-value
    # blocks among them, agree with LAPACK block by block without calling it
    cases = []
    for d in (1, 2):
        for shape in ((500,), (5, 4)):
            stack = _special_blocks(rng, shape, d)
            cases.append((stack, _lapack_top(stack)))
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", None)
        for stack, exact in cases:
            top = top_singular_values(stack)
            assert top.shape == exact.shape
            assert np.all(np.abs(top - exact) <= 1e-14 * exact)
            assert np.all(top[exact == 0] == 0)
            d = stack.shape[-1]
            for m, value in zip(stack.reshape(-1, d, d), exact.ravel()):
                assert abs(top_singular_value(m) - value) <= 1e-14 * value
    # a stack with a block far outside the closed form's range goes to LAPACK
    stack = _special_blocks(rng, (8,), 2)
    stack[3] *= 1e-170
    stack[5] *= 1e170
    assert np.all(np.abs(top_singular_values(stack) - _lapack_top(stack))
                  <= 1e-14 * _lapack_top(stack))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_top_singular_values_refuses_non_finite_input(d):
    # LAPACK raises on NaN but returns NaN for inf; the kernel refuses both,
    # on a stack and on a single block
    for bad in (np.nan, np.inf, -np.inf, complex(np.inf, 1.0), complex(0.0, np.nan)):
        stack = np.ones((5, 4, d, d), dtype=complex)
        stack[2, 1, 0, d - 1] = bad
        with pytest.raises(np.linalg.LinAlgError):
            top_singular_values(stack)
        with pytest.raises(np.linalg.LinAlgError):
            top_singular_value(stack[2, 1])


def test_top_singular_values_keeps_1x1_and_2x2_blocks_off_lapack(monkeypatch):
    # the kernel's contract: during the optimizer's ascent and sampling oracle
    # on the Z6/S3 T^-1 level-1 and level-2 maps, no singular-values-only LAPACK
    # call gets 1x1 or 2x2 blocks; level 2 still sends its 4x4 blocks there
    original = np.linalg.svd
    shapes = []

    def counting(a, *args, **kwargs):
        if not kwargs.get("compute_uv", True):
            shapes.append(np.shape(a)[-2:])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    z6, s3 = fd.make_cyclic(6), fd.make_symmetric(3)
    hom = fd.induced_hom(fd.irrep_table_for(z6), fd.irrep_table_for(s3), np.arange(6)).inverse()
    for k in (1, 2):
        value, _, meta = maximize_block_image(hom.linear_map(k), fd.Effort(restarts=4, samples=4096))
        assert "sampling_value" in meta
        assert abs(value - np.sqrt(2)) <= 1e-9
    assert shapes and all(shape == (4, 4) for shape in shapes)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_top_singular_pair(d):
    # m v = s u with unit u and v; s is the kernel's value, bit for bit on 1x1
    # blocks (the ascent's value pass and its pair must agree there)
    rng = np.random.default_rng([41, d])
    for kind in ("random", "rank-one", "zero"):
        for _ in range(20):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            if kind == "rank-one":
                g = np.outer(g[:, 0], g[0].conj())
            elif kind == "zero":
                g = np.zeros((d, d), dtype=complex)
            s, u, v = top_singular_pair(g)
            assert np.abs(g @ v - s * u).max() <= 1e-13 * max(1.0, s)
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-13
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-13
            if d == 1:
                assert s == top_singular_value(g)
            else:
                assert abs(s - top_singular_value(g)) <= 1e-14 * s


def _random_linmap(rng, dims_in, dims_out, k):
    kernels = [[rng.standard_normal((do, do, di, di)) + 1j * rng.standard_normal((do, do, di, di))
                for di in dims_in] for do in dims_out]
    return BlockLinearMap(kernels, dims_in, dims_out, k=k)


def _block_objective(blocks):
    return max(np.linalg.svd(b, compute_uv=False)[0] for b in blocks)


@pytest.mark.parametrize("k", [1, 2])
def test_polish_step_stays_feasible_and_never_descends(k):
    # the polish step maximizes the linearization of the convex objective at
    # x over the unit polyball, and the linearization minorizes the objective,
    # so the objective cannot drop: the ascent needs no other engine
    rng = np.random.default_rng([31, k])
    shapes = [([1, 2], [2, 1]), ([1, 1, 2], [1, 2]), ([2, 3], [1, 1, 2]), ([3], [2, 2])]
    for dims_in, dims_out in shapes:
        for _ in range(5):
            linmap = _random_linmap(rng, dims_in, dims_out, k)
            x = [clip_to_ball(rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)))
                 for s in linmap.sizes_in]
            for _ in range(8):
                y = linmap.apply(x)
                val, idx, u, v = _best_block(y)
                assert abs(val - _block_objective(y)) <= 1e-12 * max(1.0, val)
                x = _polish_step(linmap.adjoint, y, idx, u, v)
                assert _block_objective(x) <= 1.0 + 1e-12
                assert _block_objective(linmap.apply(x)) >= val - 1e-12


# ||T||_k at levels 1 and 2 for the 12 Aut(Z6) x Aut(S3) orbit representatives,
# scan effort, seed 0, as (level 1 T, level 1 T^-1, level 2 T, level 2 T^-1).
# They are certified lower bounds, so a change to the optimizer may raise
# them but must not lower any of them
Z6_S3_SCAN_VALUES = {
    (0, 1, 2, 3, 4, 5): (1.4142135623730963, 1.4142135623730951, 1.4142135623730963, 1.4142135623730954),
    (0, 1, 2, 3, 5, 4): (2.1547005383792506, 2.1547005383792492, 2.1547005383792506, 2.1547005383792492),
    (0, 1, 2, 4, 3, 5): (2.1547005383792532, 2.1547005383792452, 2.1547005383792532, 2.1547005383792452),
    (0, 1, 2, 4, 5, 3): (2.1547005383792515, 2.1547005383792492, 2.1547005383792515, 2.1547005383792492),
    (0, 1, 2, 5, 3, 4): (2.1547005383792524, 2.1547005383792452, 2.1547005383792524, 2.1547005383792452),
    (0, 1, 2, 5, 4, 3): (1.4142135623730967, 1.4142135623730954, 1.4142135623730965, 1.4142135623730954),
    (0, 1, 3, 2, 5, 4): (2.154700538379253, 2.154700538379246, 2.154700538379253, 2.154700538379252),
    (0, 1, 3, 4, 5, 2): (2.154700538379253, 2.154700538379246, 2.1547005383792532, 2.154700538379252),
    (0, 1, 4, 2, 5, 3): (1.7207592200561277, 1.666666666666663, 1.7207592200561277, 1.6666666666666625),
    (0, 1, 4, 3, 5, 2): (1.7207592200561264, 1.666666666666663, 1.7207592200561264, 1.6666666666666625),
    (0, 2, 1, 3, 5, 4): (1.7207592200561275, 1.66551626601493, 1.7207592200561275, 1.6666666666666652),
    (0, 2, 1, 4, 5, 3): (1.7207592200561272, 1.66551626601493, 1.7207592200561272, 1.6666666666666652),
}


def test_z6_s3_scan_values_never_drop(z6, s3):
    t6, t3 = fd.irrep_table_for(z6), fd.irrep_table_for(s3)
    reps, _ = _orbit_transports(z6, s3, [b.map for b in fd.enumerate_bijections(z6, s3)])
    assert {tuple(mp.tolist()) for mp in reps} == set(Z6_S3_SCAN_VALUES)
    eff = fd.resolve_effort("default").for_scan()
    for mp in reps:
        hom = fd.induced_hom(t6, t3, mp)
        report = fd.hom_norm_report(hom, levels=(1, 2), effort=eff, seed=0)
        pinned = iter(Z6_S3_SCAN_VALUES[tuple(mp.tolist())])
        for k in (1, 2):
            for d, direction in enumerate((hom, hom.inverse())):
                value = report.level_k_norms[k][d]
                assert value >= next(pinned) - 1e-12
                est = fd.NormEstimate(value=value, witness=report.witnesses[k][d], meta={})
                recomputed, feasibility = reevaluate_witness(direction, est)
                assert feasibility <= 1.0 + 1e-9
                assert abs(recomputed - value) <= 1e-9


def test_rounding_ties_do_not_flag_under_convergence():
    # every unitary attains the norm 1 of the identity map on M_2 (x) M_k, so
    # the ascent and the sampling oracle tie up to rounding; a tie must keep
    # the first generator's witness and leave converged=True
    eye = np.eye(2)
    kernel = np.einsum("Aa,Bb->ABab", eye, eye).astype(complex)
    effort = fd.Effort(restarts=8, samples=4096)
    for k in (1, 2):
        linmap = BlockLinearMap([[kernel]], [2], [2], k)
        for seed in range(10):
            value, _, meta = maximize_block_image(linmap, effort, seed=seed)
            assert abs(value - 1.0) <= 1e-12
            assert meta["best_source"] != "sampling"
            assert meta["converged"] is True


def test_sampling_oracle_still_flags_a_real_gap():
    # D4/Q8 map [0,4,1,3,2,5,6,7], T^-1 at scan effort, level 1: the oracle's
    # witness (about 2.2956) beats every ascent by far more than a tie, so the
    # item must still be flagged as under-converged
    d4, q8 = fd.parse_group_spec("D4"), fd.parse_group_spec("Q8")
    hom = fd.induced_hom(fd.irrep_table_for(d4), fd.irrep_table_for(q8),
                         np.array([0, 4, 1, 3, 2, 5, 6, 7])).inverse()
    est = fd.level_k_norm(hom, 1, effort=fd.resolve_effort("default").for_scan(), seed=0)
    assert est.meta["best_source"] == "sampling"
    assert est.meta["converged"] is False
    assert est.value == est.meta["sampling_value"]


def test_cb_upper_bound_of_the_transpose_is_its_cb_norm():
    # the transpose on M_2 has norm 1 and cb norm 2; the bound is exactly 2,
    # and the level-2 search reaches it while level 1 stays at 1
    kernel = np.einsum("Ab,Ba->ABab", np.eye(2), np.eye(2)).astype(complex)
    upper = cb_upper_bound([[kernel]], [2], [2])
    assert upper == pytest.approx(2.0, rel=1e-13) and upper >= 2.0
    values = [maximize_block_image(BlockLinearMap([[kernel]], [2], [2], k), FAST_EFFORT)[0]
              for k in (1, 2)]
    assert values == pytest.approx([1.0, 2.0], abs=1e-12)


def test_cb_upper_bound_lies_above_the_search_on_random_maps():
    # kernels with no group behind them: the bound holds for any block map
    rng = np.random.default_rng(53)
    shapes = [([1, 2], [2, 1]), ([1, 1, 2], [1, 2]), ([2, 3], [1, 1, 2]), ([3], [2, 2])]
    for dims_in, dims_out in shapes:
        for _ in range(3):
            linmap = _random_linmap(rng, dims_in, dims_out, 1)
            upper = cb_upper_bound(linmap.kernels, dims_in, dims_out)
            for k in (1, 2):
                linmap_k = BlockLinearMap(linmap.kernels, dims_in, dims_out, k)
                value, _, _ = maximize_block_image(linmap_k, FAST_EFFORT)
                assert value <= upper


def test_upper_bound_stop_keeps_the_full_search_result(z6, s3):
    # the stop skips only candidates that cannot win: on the Z6/S3 orbit
    # representatives (the first is the worked pair), both directions, levels 1
    # and 2, the value, witness, best_source and converged flag are those of
    # the full search
    t6, t3 = fd.irrep_table_for(z6), fd.irrep_table_for(s3)
    reps, _ = _orbit_transports(z6, s3, [b.map for b in fd.enumerate_bijections(z6, s3)])
    assert reps[0].tolist() == list(range(6))
    stopped = 0
    for mp in reps:
        hom = fd.induced_hom(t6, t3, mp)
        for direction in (hom, hom.inverse()):
            upper = direction.upper_bound()
            for k in (1, 2):
                linmap = direction.linear_map(k)
                full = maximize_block_image(linmap, FAST_EFFORT, seed=3)
                cut = maximize_block_image(linmap, FAST_EFFORT, seed=3, upper=upper)
                assert cut[0] == full[0]
                assert all(np.array_equal(a, b) for a, b in zip(cut[1], full[1]))
                for key in ("best_source", "converged"):
                    assert cut[2][key] == full[2][key]
                assert full[2]["upper"] is None and cut[2]["upper"] == upper
                assert full[2]["restarts"] == FAST_EFFORT.restarts
                assert full[2]["samples"] == FAST_EFFORT.samples
                # the oracle is skipped exactly when the witness meets the bound
                met = meets_upper(cut[0], upper)
                assert ("sampling_value" in cut[2]) == (not met)
                assert cut[2]["samples"] == (0 if met else FAST_EFFORT.samples)
                stopped += met and k == 1
    # at level 1 every direction meets its bound except T^-1 on the 4 orbits
    # of cb norm 5/3
    assert stopped == 2 * len(reps) - 4
    # the worked pair's T^-1 at level 1 stops at the identity start
    inv = fd.induced_hom(t6, t3, reps[0]).inverse()
    _, _, meta = maximize_block_image(inv.linear_map(1), FAST_EFFORT, upper=inv.upper_bound())
    assert meta["restarts"] == 0 and meta["best_source"] == "identity-start"


def test_an_uncertified_search_runs_in_full(z6_s3_uncertified_hom):
    # T^-1 of [0,3,4,1,5,2] has cb norm 5/3 below its bound of about 1.6935:
    # no witness meets the bound, so every restart and the oracle still run
    inv = z6_s3_uncertified_hom.inverse()
    upper = inv.upper_bound()
    assert upper > 5 / 3 + 1e-3
    for k in (1, 2):
        linmap = inv.linear_map(k)
        value, x, meta = maximize_block_image(linmap, FAST_EFFORT, seed=0, upper=upper)
        assert meta["restarts"] == FAST_EFFORT.restarts
        assert meta["samples"] == FAST_EFFORT.samples and "sampling_value" in meta
        full_value, full_x, _ = maximize_block_image(linmap, FAST_EFFORT, seed=0)
        assert value == full_value
        assert all(np.array_equal(a, b) for a, b in zip(x, full_x))
