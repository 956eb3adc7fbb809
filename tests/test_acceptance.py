"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are fixed here, not calibrated elsewhere.  Criteria 4 and 7 share
one exhaustive level-2 scan of the order-6 pair, computed once per session.
"""

import math
import time

import numpy as np
import pytest

import fourierdist as fd

SQRT2 = math.sqrt(2.0)
SQRT_3_2 = math.sqrt(1.5)
SQRT5_OVER_2 = math.sqrt(5.0) / 2.0


def _line(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def z6():
    return fd.make_cyclic(6)


@pytest.fixture(scope="module")
def s3():
    return fd.make_symmetric(3)


@pytest.fixture(scope="module")
def z4():
    return fd.make_cyclic(4)


@pytest.fixture(scope="module")
def z22():
    return fd.parse_group_spec("Z2xZ2")


@pytest.fixture(scope="module")
def scan_z6_s3(z6, s3):
    """Shared exhaustive level-2 scan over all 120 canonical bijections."""
    start = time.time()
    result = fd.norm_gap_scan(z6, s3, level=2, effort="default", seed=0)
    return result, time.time() - start


@pytest.fixture(scope="module")
def scan_z4_z22(z4, z22):
    start = time.time()
    result = fd.norm_gap_scan(z4, z22, level=2, effort="default", seed=0)
    return result, time.time() - start


def test_criterion_1_worked_pair_norms(z6, s3):
    start = time.time()
    hom = fd.induced_hom(fd.irrep_table_for(z6), fd.irrep_table_for(s3),
                         np.arange(6))
    report = fd.hom_norm_report(hom, levels=(1,), effort="default", seed=0)
    elapsed = time.time() - start
    ok = (abs(report.norm_T - SQRT2) <= 1e-4
          and abs(report.norm_Tinv - SQRT2) <= 1e-4
          and abs(report.distortion - 2.0) <= 2e-4
          and elapsed <= 10.0)
    _line(1, ok, f"||T||={report.norm_T:.9f} ||T^-1||={report.norm_Tinv:.9f} "
                 f"distortion={report.distortion:.9f} elapsed={elapsed:.1f}s")


def test_criterion_2_norm_witnesses(z6, s3):
    start = time.time()
    t6 = fd.irrep_table_for(z6)
    t3 = fd.irrep_table_for(s3)
    coeffs = [0, 1, 1, 0, 1, -1]
    v1 = fd.a_norm(fd.function_from_cyclic_coeffs(z6, coeffs), t6)
    v2 = fd.a_norm(fd.function_from_cyclic_coeffs(s3, coeffs), t3)
    e1 = [0, 1, 0, 0, 0, 0]
    v3 = fd.a_norm(fd.function_from_cyclic_coeffs(z6, e1), t6)
    v4 = fd.a_norm(fd.function_from_cyclic_coeffs(s3, e1), t3)
    elapsed = time.time() - start
    ok = (abs(v1 - 4.0) <= 1e-8 and abs(v2 - 2 * SQRT2) <= 1e-8
          and abs(v3 - 1.0) <= 1e-8 and abs(v4 - SQRT2) <= 1e-8
          and elapsed <= 1.0)
    _line(2, ok, f"norms=({v1:.10f}, {v2:.10f}, {v3:.10f}, {v4:.10f}) "
                 f"elapsed={elapsed:.2f}s")


def test_criterion_3_order_four_pair(z4, z22):
    start = time.time()
    result = fd.min_distortion(z4, z22, effort="default", seed=0)
    best_norm = min(r.report.norm_T for r in result.records)
    bound, _ = fd.epsilon_zero_bound([(z4, z22)], effort="default", seed=0)
    elapsed = time.time() - start
    ok = (len(result.records) == 6
          and abs(result.min_distortion - 2.0) <= 1e-3
          and abs(best_norm - SQRT2) <= 1e-4
          and bound <= 1.0 + 1e-3
          and elapsed <= 30.0)
    _line(3, ok, f"min_distortion={result.min_distortion:.9f} "
                 f"norm_witness={best_norm:.9f} rigidity_bound={bound:.9f} "
                 f"elapsed={elapsed:.1f}s")


def test_criterion_4_level2_threshold(scan_z6_s3, scan_z4_z22):
    res6, t6 = scan_z6_s3
    res4, t4 = scan_z4_z22
    worst = np.inf
    for res in (res6, res4):
        for rec in res.records:
            worst = min(worst, max(rec.report.level_k_norms[2]))
    elapsed = t6 + t4
    ok = worst >= SQRT_3_2 - 1e-3 and elapsed <= 1200.0
    _line(4, ok, f"min over bijections of max(level2) = {worst:.9f} "
                 f">= sqrt(3/2)-1e-3 = {SQRT_3_2 - 1e-3:.9f}; "
                 f"126 bijections, elapsed={elapsed:.0f}s")


def test_derived_min_distortion_order_six(scan_z6_s3):
    # derived by the exhaustive scan: 2 is the minimal distortion over all
    # 120 canonical bijections, and the index-identity bijection attains it
    result, _ = scan_z6_s3
    assert result.min_distortion == pytest.approx(2.0, abs=1e-3)
    identity_rec = next(r for r in result.records
                        if r.bijection.map.tolist() == [0, 1, 2, 3, 4, 5])
    assert identity_rec.report.distortion == pytest.approx(2.0, abs=1e-3)


def test_criterion_5_lemma_suite(s3, z6):
    start = time.time()
    worst_margin = np.inf
    counterexamples = 0
    for dim in (2, 4, 8):
        for verifier in (fd.verify_invmult, fd.verify_unitmult):
            report = verifier(dim, trials=10_000, seed=dim)
            worst_margin = min(worst_margin, report.worst_margin)
            counterexamples += report.counterexample is not None
    gap_ok = True
    for group in (z6, s3, fd.make_dihedral(4)):
        table = fd.irrep_table_for(group)
        rep = fd.verify_norm_gap(group, table, random_trials=10_000, seed=1)
        gap_ok &= (rep.meta["four_term_zero_max"] <= 1e-10
                   and rep.meta["four_term_nonzero_min"] >= SQRT2 - 1e-10
                   and rep.counterexample is None)
    elapsed = time.time() - start
    ok = (counterexamples == 0 and worst_margin >= -1e-9 and gap_ok
          and elapsed <= 300.0)
    _line(5, ok, f"block-lemma worst margin={worst_margin:.3e}, "
                 f"counterexamples={counterexamples}, four-term dichotomy "
                 f"{'holds' if gap_ok else 'fails'}, elapsed={elapsed:.0f}s")


def test_criterion_6_structural_invariants(z6, s3):
    corpus = fd.standard_corpus()
    # isomorphism-induced maps are completely isometric at levels 1 and 2
    eff = fd.Effort(restarts=6, samples=1024)
    iso_homs = []
    t6 = fd.irrep_table_for(z6)
    iso_homs.append(fd.induced_hom(t6, t6, np.arange(6)))
    t3 = fd.irrep_table_for(s3)
    iso_homs.append(fd.induced_hom(t3, t3, fd.automorphisms(s3)[1]))
    prod = fd.make_direct_product(fd.make_cyclic(2), fd.make_cyclic(3))
    ok_iso, witness = fd.are_isomorphic(prod, z6)
    assert ok_iso
    iso_homs.append(fd.induced_hom(fd.irrep_table_for(prod),
                                   fd.irrep_table_for(z6), witness))
    level_dev = 0.0
    for hom in iso_homs:
        for k in (1, 2):
            level_dev = max(level_dev,
                            abs(fd.level_k_norm(hom, k, effort=eff).value - 1.0))
    # point-mass norm and round trips over the whole corpus
    delta_dev = 0.0
    round_trip_err = 0.0
    rng = np.random.default_rng(6)
    for g in corpus:
        t = fd.irrep_table_for(g)
        delta_dev = max(delta_dev, abs(fd.a_norm(fd.delta_function(g), t) - 1.0))
        for _ in range(100):
            f = fd.AFunction(g, rng.standard_normal(g.order)
                             + 1j * rng.standard_normal(g.order))
            back = fd.fourier_inverse(fd.fourier_transform(f, t))
            round_trip_err = max(round_trip_err,
                                 float(np.abs(back.values - f.values).max()))
    ok = level_dev <= 1e-8 and delta_dev <= 1e-12 and round_trip_err < 1e-9
    _line(6, ok, f"iso level-norm deviation={level_dev:.2e}, "
                 f"delta-norm deviation={delta_dev:.2e}, "
                 f"round-trip error={round_trip_err:.2e}")


def test_criterion_7_gap_advisory(scan_z6_s3):
    result, _ = scan_z6_s3
    values = [v for r in result.records for v in r.report.level_k_norms[2]]
    in_gap = [v for v in values if 1.0 + 1e-3 < v < SQRT_3_2 - 1e-3]
    reported = [v for v in values if SQRT_3_2 <= v < SQRT5_OVER_2]
    if reported:
        print(f"\n[criterion 7] advisory: values between thresholds: {reported}")
    verdict = result.threshold_verdicts["level2_gap_interval"]
    ok = not in_gap and verdict["passed"]
    _line(7, ok, f"240 computed level-2 values, none in "
                 f"({1 + 1e-3:.4f}, {SQRT_3_2 - 1e-3:.4f}); "
                 f"range=[{min(values):.6f}, {max(values):.6f}], "
                 f"{len(reported)} advisory values reported")
