import numpy as np
import pytest

import fourierdist as fd


@pytest.fixture(scope="session")
def corpus():
    return fd.standard_corpus()


@pytest.fixture(scope="session")
def tables(corpus):
    return {g.label: fd.irrep_table_for(g) for g in corpus}


@pytest.fixture(scope="session")
def z6():
    return fd.make_cyclic(6)


@pytest.fixture(scope="session")
def s3():
    return fd.make_symmetric(3)


@pytest.fixture(scope="session")
def z6_s3_hom(z6, s3):
    """The worked isomorphism T : A(Z6) -> A(S3), index-identity bijection."""
    return fd.induced_hom(fd.irrep_table_for(z6), fd.irrep_table_for(s3), np.arange(6))


@pytest.fixture(scope="session")
def z6_s3_uncertified_hom(z6, s3):
    """The Z6 -> S3 map [0,3,4,1,5,2], of the orbit whose T^-1 has cb norm
    5/3: the Haagerup bound of T^-1 (about 1.6935) stays above every value,
    so no level of T^-1 meets it and its searches run in full."""
    return fd.induced_hom(fd.irrep_table_for(z6), fd.irrep_table_for(s3),
                          np.array([0, 3, 4, 1, 5, 2]))


FAST_EFFORT = fd.Effort(restarts=6, samples=1024)


def reevaluate_witness(hom, estimate):
    """Independent evaluation of a stored witness, by direct loops.

    Recomputes the matrix coefficients, the image blocks and both norms
    without going through the optimizer's flattened linear map.
    """
    witness = estimate.witness
    k = witness.level
    h_table, g_table = hom.target_table, hom.source_table
    n = hom.target_group.order
    coeffs = np.zeros((n, k, k), dtype=complex)
    for rep, blk in zip(h_table.irreps, witness.blocks):
        d = rep.dimension
        x4 = blk.reshape(k, d, k, d)
        for h in range(n):
            for a in range(d):
                for b in range(d):
                    coeffs[h] += rep.dimension / n * np.conj(rep.matrices[h, a, b]) * x4[:, a, :, b]
    feas = 0.0
    for blk in witness.blocks:
        feas = max(feas, np.linalg.svd(blk, compute_uv=False)[0])
    tmap = hom.bijection.map
    value = 0.0
    for rep in g_table.irreps:
        d = rep.dimension
        img = np.zeros((k, d, k, d), dtype=complex)
        for h in range(n):
            img += np.einsum("ij,ab->iajb", coeffs[h], rep.matrices[tmap[h]])
        value = max(value, np.linalg.svd(img.reshape(k * d, k * d), compute_uv=False)[0])
    return value, feas
