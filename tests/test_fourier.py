import math

import numpy as np
import pytest

import fourierdist as fd
from fourierdist.errors import GroupMismatchError, NumericInputError
from fourierdist.reference import two_dim_block_formula, _standard_two_dim_irrep

SQRT2 = math.sqrt(2.0)


def test_schatten_examples():
    assert fd.schatten_norm(np.eye(2), 1) == pytest.approx(2.0, abs=1e-14)
    m = np.array([[1, 0], [np.exp(-1j * np.pi / 3), 0]])
    assert fd.schatten_norm(m, 1) == pytest.approx(SQRT2, abs=1e-12)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 3))
    assert fd.schatten_norm(x, 2) == pytest.approx(np.linalg.norm(x, "fro"), abs=1e-12)
    assert fd.schatten_norm(x, np.inf) == pytest.approx(np.linalg.norm(x, 2), abs=1e-12)
    assert fd.schatten_norm(x, "inf") == fd.schatten_norm(x, np.inf)


def test_schatten_trace_identity_2x2():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rhs = math.sqrt(fd.schatten_norm(x, 2) ** 2 + 2 * abs(np.linalg.det(x)))
        assert abs(fd.schatten_norm(x, 1) - rhs) < 1e-10


def test_schatten_rejects_bad_input():
    with pytest.raises(NumericInputError):
        fd.schatten_norm(np.array([[np.inf, 0], [0, 1]]), 1)
    with pytest.raises(ValueError):
        fd.schatten_norm(np.eye(2), 3)


def test_transform_of_delta_is_identity(corpus, tables):
    for g in corpus:
        blocks = fd.fourier_transform(fd.delta_function(g), tables[g.label]).blocks
        for rep, blk in zip(tables[g.label].irreps, blocks):
            assert np.abs(blk - np.eye(rep.dimension)).max() < 1e-12


def test_transform_z6_character_by_geometric_sums(z6, tables):
    t6 = tables["Z6"]
    f = fd.function_from_cyclic_coeffs(z6, [0, 1, 0, 0, 0, 0])
    blocks = fd.fourier_transform(f, t6).blocks
    # oracle: six explicit geometric sums against each computed character
    for rep, blk in zip(t6.irreps, blocks):
        expected = sum(f.values[k] * np.conj(rep.characters[k]) for k in range(6))
        assert abs(blk[0, 0] - expected) < 1e-9
        assert abs(abs(expected) - (6.0 if np.abs(rep.characters
                   - np.exp(1j * np.pi * np.arange(6) / 3)).max() < 1e-8 else 0.0)) < 1e-8


def test_transform_s3_two_dim_block_formula(s3):
    # against the closed coefficient formula, using the explicitly generated
    # 2-dim irrep; equality holds after a fixed transpose and diagonal phases
    pim = _standard_two_dim_irrep()
    rng = np.random.default_rng(2)
    d1 = np.diag([1.0, np.exp(4j * np.pi / 3)])
    d2 = np.diag([1.0, np.exp(2j * np.pi / 3)])
    for _ in range(25):
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        f = fd.function_from_cyclic_coeffs(s3, coeffs)
        block = np.einsum("g,gba->ab", f.values, pim.conj()) / 6.0
        formula = two_dim_block_formula(coeffs)
        assert np.abs(np.linalg.svd(block, compute_uv=False)
                      - np.linalg.svd(formula, compute_uv=False)).max() < 1e-10
        assert np.abs(block - d1 @ formula.T @ d2).max() < 1e-10


def test_transform_group_mismatch(z6, s3, tables):
    f = fd.delta_function(z6)
    with pytest.raises(GroupMismatchError):
        fd.fourier_transform(f, tables["S3"])


def test_a_norm_of_identity_delta(corpus, tables):
    for g in corpus:
        assert abs(fd.a_norm(fd.delta_function(g), tables[g.label]) - 1.0) < 1e-12


def test_a_norm_reference_values(z6, s3, tables):
    coeffs = [0, 1, 1, 0, 1, -1]
    assert fd.a_norm(fd.function_from_cyclic_coeffs(z6, coeffs), tables["Z6"]) \
        == pytest.approx(4.0, abs=1e-8)
    assert fd.a_norm(fd.function_from_cyclic_coeffs(s3, coeffs), tables["S3"]) \
        == pytest.approx(2 * SQRT2, abs=1e-8)
    e1 = [0, 1, 0, 0, 0, 0]
    assert fd.a_norm(fd.function_from_cyclic_coeffs(z6, e1), tables["Z6"]) \
        == pytest.approx(1.0, abs=1e-8)
    assert fd.a_norm(fd.function_from_cyclic_coeffs(s3, e1), tables["S3"]) \
        == pytest.approx(SQRT2, abs=1e-8)


def test_vn_norm_single_translation(corpus, tables):
    for g in corpus:
        coeffs = np.zeros(g.order, dtype=complex)
        coeffs[g.order - 1] = 1.0
        assert fd.vn_norm(fd.GroupAlgebraElement(g, coeffs), tables[g.label]) \
            == pytest.approx(1.0, abs=1e-12)


def test_vn_norm_quadruple_on_z6_by_scalar_sums(z6, tables):
    coeffs = np.array([1, 1, -1, -1, 0, 0], dtype=complex)
    value = fd.vn_norm(fd.GroupAlgebraElement(z6, coeffs), tables["Z6"])
    # oracle: six scalar character sums
    w = np.exp(1j * np.pi / 3)
    expected = max(abs(1 + w ** j - w ** (2 * j) - w ** (3 * j)) for j in range(6))
    assert value == pytest.approx(expected, abs=1e-10)
    assert value >= 2.0 - 1e-12


def test_vn_norm_euclidean_lower_bound(corpus, tables):
    rng = np.random.default_rng(3)
    for g in corpus:
        if g.order < 2:
            continue
        t = tables[g.label]
        for _ in range(50):
            k = int(rng.integers(1, g.order + 1))
            support = rng.choice(g.order, size=k, replace=False)
            coeffs = np.zeros(g.order, dtype=complex)
            coeffs[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            val = fd.vn_norm(fd.GroupAlgebraElement(g, coeffs), t)
            assert val >= np.sqrt((np.abs(coeffs) ** 2).sum()) - 1e-10


def test_four_term_dichotomy_exhaustive(tables):
    for label in ("Z6", "S3"):
        t = tables[label]
        g = t.group
        stacks = [rep.matrices for rep in t.irreps]
        for quad in np.ndindex(g.order, g.order, g.order, g.order):
            g1, g2, g3, g4 = quad
            val = max(
                np.linalg.svd(m[g1] + m[g2] - m[g3] - m[g4], compute_uv=False)[0]
                for m in stacks)
            if (g1 == g3 and g2 == g4) or (g1 == g4 and g2 == g3):
                assert val < 1e-10
            else:
                assert val >= SQRT2 - 1e-10


def test_duality_bound_and_attainment(corpus, tables):
    rng = np.random.default_rng(8)
    for g in corpus:
        if g.order > 8 or g.order < 2:
            continue
        t = tables[g.label]
        f = fd.AFunction(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))
        norm = fd.a_norm(f, t)
        best = 0.0
        for _ in range(1000):
            coeffs = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
            x = fd.GroupAlgebraElement(g, coeffs)
            denom = fd.vn_norm(x, t)
            val = abs(fd.pairing(x, f)) / denom
            assert val <= norm + 1e-9
            best = max(best, val)
        opt, witness = fd.dual_norm_witness(f, t, seed=1)
        assert fd.vn_norm(witness, t) <= 1.0 + 1e-9
        assert abs(fd.pairing(witness, f)) == pytest.approx(opt, abs=1e-9)
        assert opt <= norm + 1e-9
        assert opt >= norm - 1e-3
        assert opt >= best - 1e-9


def test_algebra_submultiplicativity(tables):
    rng = np.random.default_rng(9)
    for label in ("Z6", "S3", "Q8"):
        t = tables[label]
        g = t.group
        for _ in range(334):
            f1 = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
            f2 = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
            lhs = fd.a_norm(fd.AFunction(g, f1 * f2), t)
            rhs = fd.a_norm(fd.AFunction(g, f1), t) * fd.a_norm(fd.AFunction(g, f2), t)
            assert lhs <= rhs + 1e-10


def test_translation_invariance(tables):
    rng = np.random.default_rng(10)
    for label in ("Z6", "S3", "D4"):
        t = tables[label]
        g = t.group
        f = fd.AFunction(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))
        base = fd.a_norm(f, t)
        for elem in range(g.order):
            assert abs(fd.a_norm(f.translate(elem), t) - base) < 1e-12


def test_round_trip(corpus, tables):
    rng = np.random.default_rng(12)
    for g in corpus:
        t = tables[g.label]
        for _ in range(20):
            f = fd.AFunction(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))
            back = fd.fourier_inverse(fd.fourier_transform(f, t))
            assert np.abs(back.values - f.values).max() < 1e-9


def test_round_trip_preserves_norm(z6, tables):
    rng = np.random.default_rng(13)
    f = fd.AFunction(z6, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    blocks = fd.fourier_transform(f, tables["Z6"])
    back = fd.fourier_inverse(blocks)
    assert fd.a_norm(back, tables["Z6"]) == pytest.approx(fd.a_norm(f, tables["Z6"]),
                                                          abs=1e-12)


def test_vn_block_round_trip(s3, tables):
    rng = np.random.default_rng(14)
    t = tables["S3"]
    x = fd.GroupAlgebraElement(s3, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    blocks = fd.vn_blocks(x, t)
    back = fd.vn_element_from_blocks(t, blocks)
    assert np.abs(back.coeffs - x.coeffs).max() < 1e-12
    # the level-k transform pair inverts itself on each non-abelian group of order <= 8
    for label in ("S3", "D4", "Q8"):
        t = tables[label]
        n = t.group.order
        for k in (1, 2, 3):
            c = rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k))
            blocks = fd.blocks_from_coeffs(t, c)
            assert [b.shape for b in blocks] == [(k * d, k * d) for d in t.dims]
            assert np.abs(fd.coeffs_from_blocks(t, blocks) - c).max() < 1e-12


def test_fourier_inverse_rejects_bad_shapes(s3, tables):
    blocks = fd.fourier_transform(fd.delta_function(s3), tables["S3"])
    bad = fd.FourierBlocks(table=tables["S3"],
                           blocks=[np.eye(3)] + blocks.blocks[1:])
    with pytest.raises(GroupMismatchError):
        fd.fourier_inverse(bad)


def test_vn_norm_agrees_with_regular_representation(corpus, tables):
    # cross-check oracle: the operator norm on l2(G) via the permutation stack
    rng = np.random.default_rng(15)
    for g in corpus:
        lam = fd.regular_representation(g)
        t = tables[g.label]
        coeffs = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
        direct = np.linalg.svd(np.einsum("g,gab->ab", coeffs, lam.astype(complex)),
                               compute_uv=False)[0]
        assert fd.vn_norm(fd.GroupAlgebraElement(g, coeffs), t) \
            == pytest.approx(direct, abs=1e-9)


def test_dual_norm_witness_closed_form(corpus, tables):
    # the polar alignment attains ||f||_A up to rounding, whatever iters/seed say
    rng = np.random.default_rng(14)
    for g in corpus:
        if g.order > 12:
            continue
        t = tables[g.label]
        f = fd.AFunction(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))
        norm = fd.a_norm(f, t)
        opt, witness = fd.dual_norm_witness(f, t)
        assert abs(opt - norm) <= 1e-12 * max(1.0, norm)
        assert abs(fd.pairing(witness, f)) == pytest.approx(opt, abs=1e-9)
        assert fd.vn_norm(witness, t) <= 1.0 + 1e-12
        again = fd.dual_norm_witness(f, t, seed=9)
        assert again[0] == opt
        assert np.array_equal(again[1].coeffs, witness.coeffs)


def test_vn_norm_rejects_non_finite_input(s3, tables):
    # non-finite coefficients, and finite ones whose blocks overflow
    for bad in (np.inf, -np.inf, np.nan):
        coeffs = np.zeros(6, dtype=complex)
        coeffs[2] = bad
        with pytest.raises(NumericInputError):
            fd.vn_norm(fd.GroupAlgebraElement(s3, coeffs), tables["S3"])
    with pytest.raises(NumericInputError):
        fd.vn_norm(fd.GroupAlgebraElement(s3, np.full(6, 1e308)), tables["S3"])


def test_a_norm_is_the_sum_of_its_contributions(corpus, tables):
    rng = np.random.default_rng(23)
    for g in corpus:
        t = tables[g.label]
        f = fd.AFunction(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))
        assert fd.a_norm(f, t) == sum(c["contribution"] for c in fd.a_norm_contributions(f, t))
