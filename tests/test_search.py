import math

import numpy as np
import pytest

import fourierdist as fd
from fourierdist import homs as homs_module
from fourierdist import search as search_module
from fourierdist.errors import GroupMismatchError
from fourierdist.optim import maximize_block_image

from conftest import FAST_EFFORT, reevaluate_witness
from test_homs import abelian_induced_norm

SQRT2 = math.sqrt(2.0)


def test_enumeration_counts():
    z4 = fd.make_cyclic(4)
    z22 = fd.parse_group_spec("Z2xZ2")
    assert len(list(fd.enumerate_bijections(z4, z22))) == 6
    z6 = fd.make_cyclic(6)
    s3 = fd.make_symmetric(3)
    assert len(list(fd.enumerate_bijections(z6, s3))) == 120


def test_enumeration_aut_reduction():
    z4 = fd.make_cyclic(4)
    z22 = fd.parse_group_spec("Z2xZ2")
    maps = [b.map for b in fd.enumerate_bijections(z4, z22)]
    reduced, _ = search_module._orbit_transports(z4, z22, maps)
    assert len(reduced) <= 6
    # derived: the six canonical maps form a single orbit
    assert len(reduced) == 1


def test_enumeration_errors():
    with pytest.raises(GroupMismatchError):
        list(fd.enumerate_bijections(fd.make_cyclic(4), fd.make_cyclic(5)))


def test_enumeration_sampling_fallback():
    z9 = fd.make_cyclic(9)
    sample = list(fd.enumerate_bijections(z9, z9, sample_size=50))
    assert len(sample) == 50
    keys = {tuple(b.map.tolist()) for b in sample}
    assert len(keys) == 50
    assert all(b.map[0] == 0 for b in sample)


def test_enumeration_rejects_sample_size_out_of_range():
    # a sample larger than the (n-1)! canonical maps used to loop forever, and
    # an empty one made the scans fail on min() of nothing; both are refused
    # before any map is drawn
    z9, z33 = fd.make_cyclic(9), fd.parse_group_spec("Z3xZ3")
    for size in (0, -1, math.factorial(8) + 1):
        with pytest.raises(ValueError, match="sample_size"):
            next(fd.enumerate_bijections(z9, z33, sample_size=size))
    with pytest.raises(ValueError, match="sample_size"):
        fd.min_distortion(z9, z33, sample_size=0)
    first = next(fd.enumerate_bijections(z9, z33, sample_size=math.factorial(8)))
    assert first.map[0] == 0
    # exhaustive orders ignore the sample size
    assert len(list(fd.enumerate_bijections(fd.make_cyclic(4), fd.make_cyclic(4),
                                            sample_size=0))) == 6


def test_min_distortion_isomorphic_pair():
    z6 = fd.make_cyclic(6)
    result = fd.min_distortion(z6, z6, effort=FAST_EFFORT)
    assert result.min_distortion == pytest.approx(1.0, abs=1e-6)
    assert result.argmin_distortion.is_homomorphism()
    assert result.meta["isomorphic"] is True

    z22 = fd.parse_group_spec("Z2xZ2")
    result2 = fd.min_distortion(z22, fd.make_dihedral(2), effort=FAST_EFFORT)
    assert result2.min_distortion == pytest.approx(1.0, abs=1e-6)
    assert result2.argmin_distortion.is_homomorphism()


def test_min_distortion_order_four_pair():
    z4 = fd.make_cyclic(4)
    z22 = fd.parse_group_spec("Z2xZ2")
    result = fd.min_distortion(z4, z22, effort="default")
    assert result.min_distortion == pytest.approx(2.0, abs=1e-3)
    assert len(result.records) == 6
    # cross-check every record against the exact abelian oracle
    for rec in result.records:
        exact = abelian_induced_norm(z4, z22, rec.bijection.map)
        assert rec.report.norm_T == pytest.approx(exact, abs=1e-6)
    assert min(r.report.norm_T for r in result.records) == pytest.approx(SQRT2, abs=1e-6)


def test_search_result_invariants():
    z4 = fd.make_cyclic(4)
    z22 = fd.parse_group_spec("Z2xZ2")
    result = fd.min_distortion(z4, z22, effort=FAST_EFFORT)
    assert result.min_distortion == min(r.report.distortion for r in result.records)
    for rec in result.records:
        assert rec.bijection.map[0] == 0


def test_canonical_reduction_soundness():
    z4 = fd.make_cyclic(4)
    z22 = fd.parse_group_spec("Z2xZ2")
    t4 = fd.irrep_table_for(z4)
    t22 = fd.irrep_table_for(z22)
    rng = np.random.default_rng(17)
    for _ in range(10):
        mp = rng.permutation(4)
        bij = fd.GroupBijection(source=z22, target=z4, map=mp)
        hom = fd.InducedHom(bijection=bij, source_table=t4, target_table=t22)
        # canonical representative: compose with the target translation
        # moving t(e) back to the identity
        g0 = z4.inv(int(mp[0]))
        canon = bij.translate_target(g0)
        assert canon.map[0] == 0
        hom_c = fd.InducedHom(bijection=canon, source_table=t4, target_table=t22)
        a = fd.op_norm(hom, effort=FAST_EFFORT, seed=2).value
        b = fd.op_norm(hom_c, effort=FAST_EFFORT, seed=2).value
        assert abs(a - b) < 1e-6


def test_monotone_effort():
    z4 = fd.make_cyclic(4)
    z22 = fd.parse_group_spec("Z2xZ2")
    low = fd.min_distortion(z4, z22, effort="low", seed=3)
    high = fd.min_distortion(z4, z22, effort="default", seed=3)
    for rec_low, rec_high in zip(low.records, high.records):
        assert rec_high.report.norm_T >= rec_low.report.norm_T - 1e-12
        assert rec_high.report.norm_Tinv >= rec_low.report.norm_Tinv - 1e-12


def test_norm_gap_scan_order_four():
    z4 = fd.make_cyclic(4)
    z22 = fd.parse_group_spec("Z2xZ2")
    result = fd.norm_gap_scan(z4, z22, level=2, effort=FAST_EFFORT)
    assert set(result.threshold_verdicts) == {
        "level2_isomorphism_threshold", "level2_gap_interval", "cb_gap_advisory"}
    verdict = result.threshold_verdicts["level2_isomorphism_threshold"]
    assert verdict["passed"]
    for rec in result.records:
        assert max(rec.report.level_k_norms[2]) >= math.sqrt(1.5) - 1e-3
    assert result.threshold_verdicts["level2_gap_interval"]["passed"]
    assert result.min_level2 is not None


def test_norm_gap_scan_isomorphic_pair_reports_ones():
    z22 = fd.parse_group_spec("Z2xZ2")
    d2 = fd.make_dihedral(2)   # isomorphic to Z2xZ2 but a different table
    result = fd.norm_gap_scan(z22, d2, level=2, effort=FAST_EFFORT)
    assert "level2_isomorphism_threshold" not in result.threshold_verdicts
    best = min(max(r.report.level_k_norms[2]) for r in result.records)
    assert best == pytest.approx(1.0, abs=1e-8)


def test_epsilon_zero_bound():
    z4 = fd.make_cyclic(4)
    z22 = fd.parse_group_spec("Z2xZ2")
    bound, per_pair = fd.epsilon_zero_bound([(z4, z22)], effort="default")
    assert bound == pytest.approx(1.0, abs=1e-3)
    assert bound <= 1.0 + 1e-3
    assert per_pair[0][0] == ("Z4", "Z2xZ2")


def test_epsilon_zero_bound_rejects_bad_corpus():
    z4 = fd.make_cyclic(4)
    z22 = fd.parse_group_spec("Z2xZ2")
    with pytest.raises(ValueError):
        fd.epsilon_zero_bound([])
    with pytest.raises(ValueError):
        fd.epsilon_zero_bound([(z4, fd.make_cyclic(4))])
    with pytest.raises(GroupMismatchError):
        fd.epsilon_zero_bound([(z4, fd.make_cyclic(5))])


def test_parallel_scan_matches_sequential():
    z4 = fd.make_cyclic(4)
    z22 = fd.parse_group_spec("Z2xZ2")
    seq = fd.min_distortion(z4, z22, effort="low", seed=2)
    par = fd.min_distortion(z4, z22, effort="low", seed=2, jobs=2)
    for a, b in zip(seq.records, par.records):
        assert a.report.norm_T == b.report.norm_T
        assert a.report.norm_Tinv == b.report.norm_Tinv
    assert seq.min_distortion == par.min_distortion


def test_csv_export():
    z4 = fd.make_cyclic(4)
    z22 = fd.parse_group_spec("Z2xZ2")
    result = fd.norm_gap_scan(z4, z22, level=2, effort=FAST_EFFORT)
    csv = fd.search_result_to_csv(result)
    lines = csv.strip().split("\n")
    assert lines[0] == "bijection,norm_T,norm_Tinv,level2_T,level2_Tinv,distortion"
    assert len(lines) == 7
    assert lines[1].startswith('"0,')
    rows = fd.search_result_rows(result)
    assert len(rows) == 6
    assert rows[0]["level2_T"] is not None


def assert_upper_bounds_hold(result):
    """Every level value of every record lies below the cb upper bound of its
    direction and below the exported bound the search used; an abelian
    source has the closed form, which the bound equals, and exports None."""
    g, h = result.pair
    tables = {"source_table": fd.irrep_table_for(g), "target_table": fd.irrep_table_for(h)}
    for rec, row in zip(result.records, fd.search_result_rows(result)):
        hom = fd.InducedHom(bijection=rec.bijection, **tables)
        assert set(row["upper"]) == {str(k) for k in rec.report.level_k_norms}
        for d, direction in enumerate((hom, hom.inverse())):
            upper = direction.upper_bound()
            for k, values in rec.report.level_k_norms.items():
                exported = row["upper"][str(k)][("T", "Tinv")[d]]
                assert upper >= values[d]
                if direction.source_group.is_abelian():
                    assert exported is None
                    assert upper == pytest.approx(values[d], abs=1e-10)
                else:
                    assert exported >= values[d]


def test_upper_bounds_hold_on_the_order_four_scan():
    z4, z22 = fd.make_cyclic(4), fd.parse_group_spec("Z2xZ2")
    assert_upper_bounds_hold(fd.norm_gap_scan(z4, z22, level=2, effort=FAST_EFFORT))


@pytest.fixture(scope="module")
def counted_z6_s3_scan():
    """Orbit-reduced Z6/S3 level-2 scan, counting optimizer calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return maximize_block_image(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homs_module, "maximize_block_image", counting)
        result = fd.norm_gap_scan(fd.make_cyclic(6), fd.make_symmetric(3), level=2,
                                  effort="low", seed=0)
    return result, len(calls)


def test_orbit_reduced_scan_counts(counted_z6_s3_scan):
    result, calls = counted_z6_s3_scan
    assert len(result.records) == 120
    # 12 orbit representatives at level 1, T^-1 only (Z6 is abelian); level 2
    # is searched only where level 1 does not meet the cb upper bound of T^-1,
    # which is the 4 orbits whose T^-1 has cb norm 5/3 (bound about 1.6935)
    assert calls == 16
    # the lexicographically smallest member of each Aut(G) x Aut(H) orbit
    auts_g, auts_h = (fd.automorphisms(grp) for grp in result.pair)
    reps = {min(tuple(alpha[b.map[beta]].tolist()) for alpha in auts_g for beta in auts_h)
            for b in fd.enumerate_bijections(*result.pair)}
    assert {tuple(r.orbit.map.tolist()) for r in result.records} == reps
    assert result.meta["orbits"] == 12


def test_upper_bounds_hold_on_the_z6_s3_scan(counted_z6_s3_scan):
    result, _ = counted_z6_s3_scan
    assert_upper_bounds_hold(result)


def test_orbit_reduced_scan_witnesses(counted_z6_s3_scan):
    result, _ = counted_z6_s3_scan
    g, h = result.pair
    tg, th = fd.irrep_table_for(g), fd.irrep_table_for(h)
    for rec in result.records:
        hom = fd.InducedHom(bijection=rec.bijection, source_table=tg, target_table=th)
        for k, pair in rec.report.witnesses.items():
            for d, direction in enumerate((hom, hom.inverse())):
                est = fd.NormEstimate(value=rec.report.level_k_norms[k][d],
                                      witness=pair[d], meta={})
                value, feasibility = reevaluate_witness(direction, est)
                assert feasibility <= 1.0 + 1e-9
                assert abs(value - est.value) <= 1e-9


def test_orbit_members_match_direct_reports(counted_z6_s3_scan):
    result, _ = counted_z6_s3_scan
    g, h = result.pair
    eff = fd.resolve_effort("low").for_scan()
    by_map = {tuple(r.bijection.map.tolist()): r for r in result.records}
    for mapping in ((0, 1, 4, 5, 2, 3), (0, 1, 5, 2, 4, 3), (0, 2, 5, 4, 1, 3)):
        rec = by_map[mapping]
        assert tuple(rec.orbit.map.tolist()) != mapping
        hom = fd.induced_hom(fd.irrep_table_for(g), fd.irrep_table_for(h), mapping)
        direct = fd.hom_norm_report(hom, levels=(1, 2), effort=eff, seed=0)
        for k in (1, 2):
            assert np.allclose(direct.level_k_norms[k], rec.report.level_k_norms[k],
                               rtol=0, atol=1e-9)


def test_parallel_scan_matches_sequential_order_six(counted_z6_s3_scan):
    seq, _ = counted_z6_s3_scan
    par = fd.norm_gap_scan(*seq.pair, level=2, effort="low", seed=0, jobs=2)
    assert len(par.records) == len(seq.records)
    for a, b in zip(seq.records, par.records):
        assert np.array_equal(a.bijection.map, b.bijection.map)
        assert np.array_equal(a.orbit.map, b.orbit.map)
        assert not b.orbit.map.flags.writeable
        assert a.report.level_k_norms == b.report.level_k_norms
