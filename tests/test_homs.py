import itertools
import math

import numpy as np
import pytest

import fourierdist as fd
from fourierdist import homs as homs_module
from fourierdist.errors import GroupMismatchError, SizeLimitError
from fourierdist.optim import maximize_block_image
from fourierdist.search import _orbit_transports

from conftest import FAST_EFFORT, reevaluate_witness

SQRT2 = math.sqrt(2.0)


def abelian_induced_norm(g, h, mapping):
    """Exact oracle for ||T|| when both groups are abelian.

    For abelian groups the adjoint lands in a commutative block algebra, so
    the norm is the largest l1 coefficient mass of a transported character:
    max_j sum_m |(1/n) sum_k chi_j(t(k)) conj(psi_m(k))|.
    """
    n = g.order
    chi = np.stack([rep.characters for rep in fd.irrep_table_for(g).irreps])
    psi = np.stack([rep.characters for rep in fd.irrep_table_for(h).irreps])
    best = 0.0
    for j in range(n):
        transported = chi[j][mapping]
        mass = sum(abs(np.dot(transported, np.conj(psi[m]))) / n for m in range(n))
        best = max(best, mass)
    return best


def test_adjoint_image_examples(z6_s3_hom, s3, z6):
    hom = z6_s3_hom
    x = fd.GroupAlgebraElement(s3, np.eye(6, dtype=complex)[0])
    out = fd.adjoint_image(hom, x)
    assert out.coeffs[hom.bijection.map[0]] == 1.0
    rng = np.random.default_rng(0)
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    lhs = fd.adjoint_image(hom, fd.GroupAlgebraElement(s3, 2 * a + 3j * b)).coeffs
    rhs = (2 * fd.adjoint_image(hom, fd.GroupAlgebraElement(s3, a)).coeffs
           + 3j * fd.adjoint_image(hom, fd.GroupAlgebraElement(s3, b)).coeffs)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_adjoint_pairing_identity(z6_s3_hom, z6, s3):
    # <T* x, f>_G = <x, T f>_H, both sides via independent explicit sums
    hom = z6_s3_hom
    rng = np.random.default_rng(1)
    tmap = hom.bijection.map
    for _ in range(1000):
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        fvals = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        lhs = sum(fd.adjoint_image(hom, fd.GroupAlgebraElement(s3, coeffs)).coeffs[g]
                  * fvals[g] for g in range(6))
        rhs = sum(coeffs[h] * fvals[tmap[h]] for h in range(6))
        assert abs(lhs - rhs) < 1e-10


def test_adjoint_round_trip_exact(z6_s3_hom, s3):
    hom = z6_s3_hom
    inv = hom.inverse()
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x = fd.GroupAlgebraElement(s3, coeffs)
    back = fd.adjoint_image(inv, fd.adjoint_image(hom, x))
    assert np.array_equal(back.coeffs, x.coeffs)


def test_op_norm_of_group_isomorphism_is_one(z6, tables=None):
    t6 = fd.irrep_table_for(z6)
    hom = fd.induced_hom(t6, t6, np.arange(6))
    est = fd.op_norm(hom, effort=FAST_EFFORT)
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_op_norm_of_worked_pair(z6_s3_hom):
    est = fd.op_norm(z6_s3_hom, effort=FAST_EFFORT, seed=3)
    est_inv = fd.op_norm(z6_s3_hom.inverse(), effort=FAST_EFFORT, seed=3)
    assert est.value == pytest.approx(SQRT2, abs=1e-4)
    assert est_inv.value == pytest.approx(SQRT2, abs=1e-4)


def test_norm_lower_bound_soundness(z6_s3_hom):
    # the stored witness must reproduce the reported value when re-evaluated
    # independently, and must be feasible
    for hom in (z6_s3_hom, z6_s3_hom.inverse()):
        est = fd.level_k_norm(hom, 2, effort=FAST_EFFORT, seed=5)
        value, feasibility = reevaluate_witness(hom, est)
        assert abs(value - est.value) < 1e-9
        assert feasibility <= 1.0 + 1e-9


def test_norms_at_least_one_with_basis_witness(s3):
    t3 = fd.irrep_table_for(s3)
    rng = np.random.default_rng(7)
    for _ in range(5):
        mp = np.concatenate(([0], rng.permutation(np.arange(1, 6))))
        hom = fd.induced_hom(t3, t3, mp)
        report = fd.hom_norm_report(hom, levels=(1,), effort=FAST_EFFORT)
        assert report.norm_T >= 1.0 - 1e-12
        assert report.norm_Tinv >= 1.0 - 1e-12


def test_level_one_matches_op_norm_on_random_bijections(s3):
    t3 = fd.irrep_table_for(s3)
    rng = np.random.default_rng(8)
    for _ in range(20):
        mp = np.concatenate(([0], rng.permutation(np.arange(1, 6))))
        hom = fd.induced_hom(t3, t3, mp)
        a = fd.op_norm(hom, effort=FAST_EFFORT, seed=2).value
        b = fd.level_k_norm(hom, 1, effort=FAST_EFFORT, seed=2).value
        assert abs(a - b) < 1e-6


def test_level_two_of_isomorphism_is_one(s3):
    t3 = fd.irrep_table_for(s3)
    auto = fd.automorphisms(s3)[1]
    hom = fd.induced_hom(t3, t3, auto)
    for k in (1, 2):
        val = fd.level_k_norm(hom, k, effort=FAST_EFFORT).value
        assert val == pytest.approx(1.0, abs=1e-8)


def test_level_two_regression_of_worked_pair(z6_s3_hom):
    # derived once at 200 restarts and 1e6 samples: the level-2 norm equals
    # sqrt(2), the same as level 1
    est = fd.level_k_norm(z6_s3_hom, 2, effort=FAST_EFFORT, seed=4)
    assert SQRT2 - 1e-9 <= est.value <= 2.0
    assert est.value == pytest.approx(SQRT2, abs=1e-4)


def test_level_norms_nondecreasing(z6_s3_hom):
    report = fd.hom_norm_report(z6_s3_hom, levels=(1, 2, 3), effort=FAST_EFFORT)
    values = [report.level_k_norms[k][0] for k in sorted(report.level_k_norms)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12
    assert report.distortion == pytest.approx(report.norm_T * report.norm_Tinv, abs=1e-12)


def test_level_size_limit(z6_s3_hom):
    with pytest.raises(SizeLimitError):
        fd.level_k_norm(z6_s3_hom, 33, effort=FAST_EFFORT)
    with pytest.raises(ValueError):
        fd.level_k_norm(z6_s3_hom, 0, effort=FAST_EFFORT)


def test_cb_norm_of_isomorphism(s3):
    t3 = fd.irrep_table_for(s3)
    hom = fd.induced_hom(t3, t3, fd.automorphisms(s3)[2])
    result = fd.cb_norm(hom, effort=FAST_EFFORT)
    assert [k for k, _ in result.levels] == [1, 2, 3, 4]
    for _, val in result.levels:
        assert val == pytest.approx(1.0, abs=1e-8)


def test_cb_norm_of_worked_pair(z6_s3_hom):
    result = fd.cb_norm(z6_s3_hom, effort=FAST_EFFORT)
    values = [v for _, v in result.levels]
    assert len(values) == 6  # stabilization level = sum of source dims
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12
    assert result.value >= values[1] - 1e-12
    assert values[1] >= SQRT2 - 1e-9


def test_cb_norm_shares_the_level_sweep(z6_s3_uncertified_hom, monkeypatch):
    # cb_norm and hom_norm_report run the same sweep: equal values at levels
    # 1 and 2 for the same effort and seed, and a bit-equal level-2 witness
    # (on a map whose level 1 never meets its cb upper bound, so level 2 is searched)
    inv = z6_s3_uncertified_hom.inverse()
    estimates = []

    def recording(*args, **kwargs):
        est = fd.level_k_norm(*args, **kwargs)
        estimates.append(est)
        return est

    monkeypatch.setattr(homs_module, "level_k_norm", recording)
    result = fd.cb_norm(inv, effort=FAST_EFFORT, seed=5)
    cb_level2 = estimates[1]
    report = fd.hom_norm_report(inv, levels=(1, 2), effort=FAST_EFFORT, seed=5)
    assert result.levels[:2] == [(k, report.level_k_norms[k][0]) for k in (1, 2)]
    assert cb_level2.witness.level == 2
    for a, b in zip(cb_level2.witness.blocks, report.witnesses[2][0].blocks):
        assert np.array_equal(a, b)


def _recording(monkeypatch, name):
    """Replace homs.<name> by a wrapper that records (args, result) per call."""
    original = getattr(homs_module, name)
    calls = []

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(homs_module, name, recording)
    return calls


def test_cb_norm_stops_optimizing_at_the_largest_source_block(z6_s3_uncertified_hom,
                                                              monkeypatch):
    # the source of T^-1 is S3 with irrep dimensions 1, 1, 2: by Smith's
    # lemma levels 3 and 4 equal level 2, so only levels 1 and 2 optimize
    # (no level of this map meets its cb upper bound, so only Smith's cut stops)
    inv = z6_s3_uncertified_hom.inverse()
    calls = _recording(monkeypatch, "maximize_block_image")
    sweep = _recording(monkeypatch, "level_k_norm")
    result = fd.cb_norm(inv, effort=FAST_EFFORT, seed=1)
    assert len(calls) == 2
    estimates = [est for _, est in sweep]
    assert [est.witness.level for est in estimates] == [1, 2]
    assert [k for k, _ in result.levels] == [1, 2, 3, 4]
    level2 = estimates[1]
    assert result.levels[2][1] == level2.value and result.levels[3][1] == level2.value
    assert result.value == level2.value
    assert result.meta == level2.meta and result.meta is not level2.meta
    # the level-4 witness is the level-2 witness padded with zeros
    assert result.witness.level == 4
    for rep, big, small in zip(inv.target_table.irreps, result.witness.blocks,
                               level2.witness.blocks):
        d = rep.dimension
        big4 = big.reshape(4, d, 4, d).copy()
        assert np.array_equal(big4[:2, :, :2, :], small.reshape(2, d, 2, d))
        big4[:2, :, :2, :] = 0
        assert not big4.any()
    value, feasibility = reevaluate_witness(inv, result)
    assert abs(value - result.value) <= 1e-12
    assert feasibility <= 1.0 + 1e-9


def test_hom_norm_report_skips_levels_above_the_largest_source_block(z6_s3_uncertified_hom,
                                                                     monkeypatch):
    # T has the abelian source Z6 and no optimizer call; T^-1 has the source
    # S3, so level 3 is lifted from level 2 (no level of T^-1 meets its cb
    # upper bound, so only Smith's cut stops)
    hom = z6_s3_uncertified_hom
    calls = _recording(monkeypatch, "maximize_block_image")
    report = fd.hom_norm_report(hom, levels=(1, 2, 3), effort=FAST_EFFORT)
    assert [args[0].k for args, _ in calls] == [1, 2]
    assert report.level_k_norms[3] == report.level_k_norms[2]
    assert report.witnesses[3][1].level == 3
    # a requested level still obeys the block size limit, before any search
    with pytest.raises(SizeLimitError):
        fd.hom_norm_report(hom, levels=(1, 2, 33), effort=FAST_EFFORT)
    assert len(calls) == 2


def test_cb_norm_abelian_source_evaluates_the_closed_form_once(z6_s3_hom, monkeypatch):
    sweep = _recording(monkeypatch, "level_k_norm")
    result = fd.cb_norm(z6_s3_hom)
    assert len(sweep) == 1
    assert len(result.levels) == 6
    assert {v for _, v in result.levels} == {sweep[0][1].value}


# cb_norm level values of T^-1 at scan effort, seed 0, for the 12
# Aut(Z6) x Aut(S3) orbit representatives t (levels 1..4), and of both
# directions of two D4/Q8 maps (levels 1..6).  They are certified lower
# bounds, so a change to the sweep may raise them but must not lower any
CB_SCAN_VALUES = {
    ("Z6", "S3", (0, 1, 2, 3, 4, 5), True): (1.4142135623730951, 1.4142135623730954, 1.4142135623730956, 1.414213562373096),
    ("Z6", "S3", (0, 1, 2, 3, 5, 4), True): (2.1547005383792515, 2.154700538379252, 2.154700538379252, 2.1547005383792524),
    ("Z6", "S3", (0, 1, 2, 4, 3, 5), True): (2.154700538379252, 2.1547005383792515, 2.1547005383792515, 2.1547005383792515),
    ("Z6", "S3", (0, 1, 2, 4, 5, 3), True): (2.1547005383792515, 2.154700538379252, 2.154700538379252, 2.1547005383792524),
    ("Z6", "S3", (0, 1, 2, 5, 3, 4), True): (2.154700538379252, 2.1547005383792515, 2.1547005383792515, 2.1547005383792515),
    ("Z6", "S3", (0, 1, 2, 5, 4, 3), True): (1.4142135623730954, 1.4142135623730954, 1.414213562373096, 1.4142135623730963),
    ("Z6", "S3", (0, 1, 3, 2, 5, 4), True): (2.1547005383792515, 2.154700538379252, 2.154700538379252, 2.1547005383792515),
    ("Z6", "S3", (0, 1, 3, 4, 5, 2), True): (2.1547005383792515, 2.154700538379252, 2.154700538379252, 2.1547005383792515),
    ("Z6", "S3", (0, 1, 4, 2, 5, 3), True): (1.666666666666667, 1.666666666666667, 1.666666666666667, 1.666666666666668),
    ("Z6", "S3", (0, 1, 4, 3, 5, 2), True): (1.666666666666667, 1.666666666666667, 1.666666666666667, 1.6666666666666667),
    ("Z6", "S3", (0, 2, 1, 3, 5, 4), True): (1.66551626601493, 1.6666666666666665, 1.6666666666666663, 1.6666666666666665),
    ("Z6", "S3", (0, 2, 1, 4, 5, 3), True): (1.66551626601493, 1.6666666666666665, 1.666666666666667, 1.666666666666667),
    ("D4", "Q8", (0, 1, 2, 3, 4, 5, 6, 7), False): (2.0, 2.1213203435596384, 2.121320343559641, 2.121320343559642, 2.1213203435596406, 2.1213203435596437),
    ("D4", "Q8", (0, 1, 2, 3, 4, 5, 6, 7), True): (1.7320508075688728, 2.414213562373096, 2.414213562373096, 2.4142135623730954, 2.4142135623730963, 2.414213562373097),
    ("D4", "Q8", (0, 4, 1, 3, 2, 5, 6, 7), False): (2.414213562373095, 2.4142135623730954, 2.414213562373095, 2.414213562373095, 2.4142135623730954, 2.414213562373096),
    ("D4", "Q8", (0, 4, 1, 3, 2, 5, 6, 7), True): (2.2956453952463183, 2.4142135623730945, 2.4142135623730945, 2.4142135623730945, 2.4142135623730945, 2.4142135623730945),
}


def test_cb_norm_scan_values_never_drop(z6, s3):
    t6, t3 = fd.irrep_table_for(z6), fd.irrep_table_for(s3)
    reps, _ = _orbit_transports(z6, s3, [b.map for b in fd.enumerate_bijections(z6, s3)])
    assert {("Z6", "S3", tuple(mp.tolist()), True) for mp in reps} \
        == {key for key in CB_SCAN_VALUES if key[0] == "Z6"}
    eff = fd.resolve_effort("default").for_scan()
    for (source, target, mapping, inverse), pinned in CB_SCAN_VALUES.items():
        g, h = (fd.parse_group_spec(s) for s in (source, target))
        hom = fd.induced_hom(fd.irrep_table_for(g), fd.irrep_table_for(h), np.array(mapping))
        if inverse:
            hom = hom.inverse()
        result = fd.cb_norm(hom, effort=eff, seed=0)
        assert [k for k, _ in result.levels] == list(range(1, len(pinned) + 1))
        for (_, value), old in zip(result.levels, pinned):
            assert value >= old - 1e-12
        recomputed, feasibility = reevaluate_witness(hom, result)
        assert abs(recomputed - result.value) <= 1e-9
        assert feasibility <= 1.0 + 1e-9


def test_cb_norm_size_limit(monkeypatch):
    # m = 16 levels of 1x1 source blocks fit the block size limit: the closed
    # form is evaluated once and every level carries its value
    z16, z2z8 = fd.make_cyclic(16), fd.parse_group_spec("Z2xZ8")
    hom = fd.induced_hom(fd.irrep_table_for(z16), fd.irrep_table_for(z2z8), np.arange(16))
    result = fd.cb_norm(hom, effort=FAST_EFFORT)
    assert [k for k, _ in result.levels] == list(range(1, 17))
    exact = abelian_induced_norm(z16, z2z8, np.arange(16))
    for _, value in result.levels:
        assert value == pytest.approx(exact, abs=1e-12)
    # Z24 -> S4: only level 1 is searched (one closed-form evaluation); levels
    # 2..24 are lifted and build no linear map, so their blocks may exceed
    # LEVEL_DIM_LIMIT (24 x 3 = 72 > 64 at level 24)
    z24, s4 = fd.make_cyclic(24), fd.make_symmetric(4)
    t24, t4 = fd.irrep_table_for(z24), fd.irrep_table_for(s4)
    hom = fd.induced_hom(t24, t4, np.arange(24))
    exact = max(fd.a_norm(fd.AFunction(s4, rep.matrices[:, 0, 0]), t4) for rep in t24.irreps)
    calls = _recording(monkeypatch, "maximize_block_image")
    sweep = _recording(monkeypatch, "level_k_norm")
    result = fd.cb_norm(hom, effort=FAST_EFFORT)
    assert calls == [] and len(sweep) == 1
    assert [k for k, _ in result.levels] == list(range(1, 25))
    for _, value in result.levels:
        assert value == pytest.approx(exact, abs=1e-10)
    assert result.witness.level == 24
    assert max(blk.shape[0] for blk in result.witness.blocks) == 72
    recomputed, feasibility = reevaluate_witness(hom, result)
    assert abs(recomputed - result.value) <= 1e-9
    assert feasibility <= 1.0 + 1e-9


def test_cb_norm_of_an_s4_source_is_flat_from_level_three(monkeypatch):
    # S4 has irrep dimensions 1, 1, 2, 3, 3: m = 10 levels are reported, the
    # sweep optimizes levels 1 to 3 and every later level carries level 3
    calls = _recording(monkeypatch, "maximize_block_image")
    hom = fd.induced_hom(fd.irrep_table_for(fd.make_symmetric(4)),
                         fd.irrep_table_for(fd.parse_group_spec("D12")), np.arange(24))
    result = fd.cb_norm(hom, effort=FAST_EFFORT)
    assert [args[0].k for args, _ in calls] == [1, 2, 3]
    values = [value for _, value in result.levels]
    assert [k for k, _ in result.levels] == list(range(1, 11))
    assert values[3:] == [values[2]] * 7
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12
    recomputed, feasibility = reevaluate_witness(hom, result)
    assert abs(recomputed - result.value) <= 1e-9
    assert feasibility <= 1.0 + 1e-9


def test_cb_norm_keeps_one_meta_per_level(z6_s3_uncertified_hom, monkeypatch):
    # levels 1 and 2 of T^-1 are searched; levels 3 and 4 carry copies of
    # level 2's meta
    sweep = _recording(monkeypatch, "level_k_norm")
    result = fd.cb_norm(z6_s3_uncertified_hom.inverse(), effort=FAST_EFFORT, seed=1)
    assert len(result.metas) == len(result.levels) == 4
    searched = [est.meta for _, est in sweep]
    assert result.metas[:2] == searched and result.metas[0] is searched[0]
    for lifted in result.metas[2:]:
        assert lifted == searched[1] and lifted is not searched[1]
    assert result.meta == result.metas[-1]


def test_cb_upper_bound_lies_above_every_level(z6_s3_hom):
    # the worked pair's cb_norm levels in both directions: both have cb norm
    # sqrt(2), which the bound meets, so T^-1 stops searching at level 1
    for hom in (z6_s3_hom, z6_s3_hom.inverse()):
        upper = hom.upper_bound()
        assert upper == pytest.approx(SQRT2, rel=1e-13)
        result = fd.cb_norm(hom, effort=FAST_EFFORT)
        assert all(upper >= value for _, value in result.levels)
    assert [meta["upper"] for meta in result.metas] == [upper] * 4
    assert result.metas[0]["restarts"] == 0 and result.metas[1:] == [result.metas[0]] * 3
    # levels 1 and 2 of seeded D4/Q8 maps in both directions
    d4, q8 = fd.parse_group_spec("D4"), fd.parse_group_spec("Q8")
    t_d4, t_q8 = fd.irrep_table_for(d4), fd.irrep_table_for(q8)
    rng = np.random.default_rng(29)
    for _ in range(3):
        hom = fd.induced_hom(t_d4, t_q8, np.concatenate(([0], rng.permutation(np.arange(1, 8)))))
        report = fd.hom_norm_report(hom, levels=(1, 2), effort=FAST_EFFORT)
        for d, direction in enumerate((hom, hom.inverse())):
            upper = direction.upper_bound()
            for k in (1, 2):
                assert upper >= report.level_k_norms[k][d]
                assert report.optimizer_meta[k][d]["upper"] == upper


def test_jordan_defect_of_isomorphism(z6):
    t6 = fd.irrep_table_for(z6)
    hom = fd.induced_hom(t6, t6, np.array([0, 5, 4, 3, 2, 1]))  # inversion = iso here
    assert fd.jordan_defect(hom, samples=32) < 1e-8


def test_jordan_defect_basis_pair_formula():
    # on the basis pair (h1, h2) the defect coefficients are the four deltas
    # e_{t(h1 h2)} + e_{t(h2 h1)} - e_{t(h1) t(h2)} - e_{t(h2) t(h1)}
    from fourierdist.homs import _jordan_coeffs
    for source, target, inverse in (("Z6", "S3", False), ("D4", "Q8", True)):
        g, h = (fd.parse_group_spec(s) for s in (source, target))
        hom = fd.induced_hom(fd.irrep_table_for(g), fd.irrep_table_for(h),
                             np.arange(g.order))
        if inverse:
            hom = hom.inverse()
        g, h = hom.source_group, hom.target_group
        tmap = hom.bijection.map
        eye = np.eye(h.order, dtype=complex)
        for h1, h2 in itertools.product(range(h.order), repeat=2):
            direct = np.zeros(g.order, dtype=complex)
            direct[tmap[h.mult(h1, h2)]] += 1
            direct[tmap[h.mult(h2, h1)]] += 1
            direct[g.mult(int(tmap[h1]), int(tmap[h2]))] -= 1
            direct[g.mult(int(tmap[h2]), int(tmap[h1]))] -= 1
            assert np.abs(_jordan_coeffs(hom, eye[h1], eye[h2]) - direct).max() < 1e-12


def test_jordan_defect_of_worked_pair(z6_s3_hom):
    # the groups are non-isomorphic, so some basis pair must show a defect,
    # and the four-term gap forces it to be at least sqrt(2)
    assert fd.jordan_defect(z6_s3_hom, samples=64) >= SQRT2 - 1e-6


@pytest.mark.parametrize("pair, bound", [
    (("Z6", "S3", False), 4.0),
    (("D4", "Q8", True), 6.1861204783),
])
def test_jordan_refinement_raises_the_defect(pair, bound):
    # the alternating polish of the best candidate pairs reaches these values;
    # the basis and random pairs alone stop at 2 sqrt(3) and about 4.6603
    source, target, inverse = pair
    g, h = (fd.parse_group_spec(s) for s in (source, target))
    hom = fd.induced_hom(fd.irrep_table_for(g), fd.irrep_table_for(h), np.arange(g.order))
    if inverse:
        hom = hom.inverse()
    unrefined = fd.jordan_defect(hom, refine_rounds=0)
    refined = fd.jordan_defect(hom)
    assert refined >= bound - 1e-9
    assert refined > unrefined + 1e-3


def test_jordan_refine_builds_one_operator_per_half_step(z6_s3_hom, monkeypatch):
    # one J(b) for the starting value, then one per half step, which also
    # scores the step
    builds = []
    build = homs_module._jordan_operator

    def counting(hom, b):
        builds.append(1)
        return build(hom, b)

    monkeypatch.setattr(homs_module, "_jordan_operator", counting)
    eye = np.eye(6, dtype=complex)
    homs_module._refine_jordan_pair(z6_s3_hom, eye[1], eye[2], 1)
    assert len(builds) <= 3


def test_jordan_dichotomy_on_basis_pairs(z6_s3_hom, s3):
    from fourierdist.fourier import vn_norm_coeffs
    from fourierdist.homs import _jordan_coeffs
    hom = z6_s3_hom
    eye = np.eye(6, dtype=complex)
    nonzero = 0
    for h1, h2 in itertools.product(range(6), repeat=2):
        val = vn_norm_coeffs(hom.source_table, _jordan_coeffs(hom, eye[h1], eye[h2]))
        assert val < 1e-8 or val >= SQRT2 - 1e-6
        nonzero += val >= SQRT2 - 1e-6
    assert nonzero > 0


def test_translation_invariance_of_norms(z6_s3_hom):
    hom = z6_s3_hom
    base = fd.op_norm(hom, effort=FAST_EFFORT, seed=6).value
    for h0, g0 in ((1, 0), (0, 2), (3, 4)):
        bij = hom.bijection.translate_source(h0).translate_target(g0)
        shifted = fd.InducedHom(bijection=bij, source_table=hom.source_table,
                                target_table=hom.target_table)
        val = fd.op_norm(shifted, effort=FAST_EFFORT, seed=6).value
        assert abs(val - base) < 1e-6


def test_isometry_detection(s3):
    t3 = fd.irrep_table_for(s3)
    # group isomorphism: every amplified norm is 1
    auto = fd.induced_hom(t3, t3, fd.automorphisms(s3)[3])
    for k in (1, 2):
        assert fd.level_k_norm(auto, k, effort=FAST_EFFORT).value \
            == pytest.approx(1.0, abs=1e-8)
    # anti-isomorphism (inversion): isometric at level 1; its level-2
    # amplification behaves like a transpose and genuinely exceeds 1
    bij = fd.GroupBijection(source=s3, target=s3, map=s3.inverses)
    assert bij.is_anti_homomorphism() and not bij.is_homomorphism()
    anti = fd.InducedHom(bijection=bij, source_table=t3, target_table=t3)
    assert fd.level_k_norm(anti, 1, effort=FAST_EFFORT).value \
        == pytest.approx(1.0, abs=1e-8)
    assert fd.level_k_norm(anti, 2, effort=FAST_EFFORT).value > 1.9


def test_abelian_oracle_agreement():
    z4 = fd.make_cyclic(4)
    z22 = fd.parse_group_spec("Z2xZ2")
    t4 = fd.irrep_table_for(z4)
    t22 = fd.irrep_table_for(z22)
    for perm in itertools.permutations(range(1, 4)):
        mapping = np.array((0,) + perm)
        hom = fd.induced_hom(t4, t22, mapping)
        exact = abelian_induced_norm(z4, z22, mapping)
        est = fd.op_norm(hom, effort=FAST_EFFORT).value
        assert est == pytest.approx(exact, abs=1e-9)


def test_induced_hom_validation(z6, s3):
    t6 = fd.irrep_table_for(z6)
    t3 = fd.irrep_table_for(s3)
    bij = fd.GroupBijection(source=s3, target=z6, map=np.arange(6))
    with pytest.raises(GroupMismatchError):
        fd.InducedHom(bijection=bij, source_table=t3, target_table=t6)
    hom = fd.InducedHom(bijection=bij, source_table=t6, target_table=t3)
    with pytest.raises(GroupMismatchError):
        fd.adjoint_image(hom, fd.GroupAlgebraElement(z6, np.zeros(6)))


def test_trivial_group_hom():
    z1 = fd.make_cyclic(1)
    t1 = fd.irrep_table_for(z1)
    hom = fd.induced_hom(t1, t1, np.array([0]))
    assert fd.op_norm(hom, effort=FAST_EFFORT).value == pytest.approx(1.0, abs=1e-12)


def test_hom_apply_is_composition(z6_s3_hom, z6):
    rng = np.random.default_rng(21)
    values = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    out = z6_s3_hom.apply(values)
    assert np.array_equal(out, values[z6_s3_hom.bijection.map])


def _optimizer_value(hom, k, effort, seed=0):
    value, _, _ = maximize_block_image(hom.linear_map(k), effort, seed=seed)
    return value


def test_abelian_closed_form_not_below_optimizer(z6, s3):
    # one map per Aut(Z6) x Aut(S3) orbit; the closed form is exact, so the
    # optimizer's lower bound may not exceed it
    t6, t3 = fd.irrep_table_for(z6), fd.irrep_table_for(s3)
    reps, _ = _orbit_transports(z6, s3, [b.map for b in fd.enumerate_bijections(z6, s3)])
    assert len(reps) == 12
    for mp in reps:
        hom = fd.induced_hom(t6, t3, mp)
        for k in (1, 2):
            exact = fd.level_k_norm(hom, k).value
            assert exact >= _optimizer_value(hom, k, FAST_EFFORT) - 1e-12


def test_abelian_closed_form_matches_optimizer_order_four():
    z4 = fd.make_cyclic(4)
    z22 = fd.parse_group_spec("Z2xZ2")
    t4, t22 = fd.irrep_table_for(z4), fd.irrep_table_for(z22)
    for bij in fd.enumerate_bijections(z4, z22):
        hom = fd.InducedHom(bijection=bij, source_table=t4, target_table=t22)
        for h in (hom, hom.inverse()):
            for k in (1, 2):
                est = fd.level_k_norm(h, k)
                assert est.meta["best_source"] == "closed-form"
                assert est.value == pytest.approx(_optimizer_value(h, k, FAST_EFFORT),
                                                  abs=1e-6)


def test_cb_norm_abelian_source_skips_optimizer(z6_s3_hom, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return maximize_block_image(*args, **kwargs)

    monkeypatch.setattr(homs_module, "maximize_block_image", counting)
    result = fd.cb_norm(z6_s3_hom)
    assert calls == []
    assert [k for k, _ in result.levels] == [1, 2, 3, 4, 5, 6]
    for _, val in result.levels:
        assert val == pytest.approx(SQRT2, abs=1e-12)
    assert result.meta == {"restarts": 0, "samples": 0, "converged": True,
                           "best_source": "closed-form"}
    value, feasibility = reevaluate_witness(z6_s3_hom, result)
    assert abs(value - result.value) < 1e-9
    assert feasibility <= 1.0 + 1e-9
    # the other direction has a non-abelian source and still runs the optimizer
    fd.op_norm(z6_s3_hom.inverse(), effort=FAST_EFFORT)
    assert len(calls) == 1
