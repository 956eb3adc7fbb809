"""Independent checks of fourierdist outputs, run outside the timed region.

Nothing here goes through the optimizer's flattened ``BlockLinearMap``: a
stored witness is re-evaluated from the irrep matrices through its matrix
coefficients, as ``reevaluate_witness`` in ``tests/conftest.py`` does, and
exact references come from theorems evaluated with the public Fourier
functions.
"""

import hashlib
import math

import numpy as np

TOL = 1e-9                # absolute slack for values recomputed in another order
SQRT2 = math.sqrt(2.0)
SQRT_3_2 = math.sqrt(1.5)
DELTA_GAP = 1e-3          # norm_gap_scan's default delta_gap


def top_singular_values(stack):
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def reevaluate_witness(hom, witness):
    """(image norm, constraint norm) of a level-k witness for T*.

    The witness blocks X_sigma (one per irrep of H) are turned into matrix
    coefficients C_h with X = sum_h C_h (x) lambda_h; the constraint norm is
    max_sigma ||sum_h C_h (x) sigma(h)|| and the image norm is
    max_pi ||sum_h C_h (x) pi(t(h))|| over the irreps pi of G.
    """
    k = witness.level
    n = hom.target_group.order
    coeffs = np.zeros((n, k, k), dtype=complex)
    for rep, block in zip(hom.target_table.irreps, witness.blocks, strict=True):
        d = rep.dimension
        coeffs += d / n * np.einsum("hab,iajb->hij", rep.matrices.conj(),
                                    block.reshape(k, d, k, d))

    def largest_block_norm(stacks):
        return max(float(top_singular_values(
            np.einsum("hij,hab->iajb", coeffs, mats).reshape(k * mats.shape[1], -1)))
            for mats in stacks)

    constraint = largest_block_norm(rep.matrices for rep in hom.target_table.irreps)
    image = largest_block_norm(rep.matrices[hom.bijection.map]
                               for rep in hom.source_table.irreps)
    return image, constraint


def witness_problems(hom, witness, value):
    """Failures of a reported norm against its re-evaluated witness."""
    image, constraint = reevaluate_witness(hom, witness)
    problems = []
    if constraint > 1.0 + TOL:
        problems.append(f"witness infeasible: constraint norm {constraint!r}")
    if abs(image - value) > TOL * max(1.0, abs(value)):
        problems.append(f"witness re-evaluates to {image!r}, reported {value!r}")
    return problems


def witness_digest(witness):
    digest = hashlib.blake2b(digest_size=16)
    for block in witness.blocks:
        digest.update(np.ascontiguousarray(block).tobytes())
    return digest.hexdigest()


def abelian_source_norm(fd, hom):
    """Exact ||T||_k, the same for every level k, when G (the source of T) is
    abelian: the unit ball of A(G) has the unimodular multiples of the
    characters as extreme points and VN(G) is commutative, so
    ||T||_k = max_chi ||chi o t||_{A(H)}."""
    tmap = hom.bijection.map
    return max(fd.a_norm(fd.AFunction(hom.target_group, rep.matrices[tmap, 0, 0]),
                         hom.target_table)
               for rep in hom.source_table.irreps)


def jordan_basis_defect(hom):
    """Largest Jordan defect over pairs of group elements of H, from the
    multiplication tables: ||l_t(ab) + l_t(ba) - l_t(a)t(b) - l_t(b)t(a)||.
    ``jordan_defect`` scans these pairs exactly, so it reports at least this."""
    h, g, t = hom.target_group, hom.source_group, hom.bijection.map
    a, b = (x.ravel() for x in np.meshgrid(np.arange(h.order), np.arange(h.order),
                                           indexing="ij"))
    terms = (t[h.table[a, b]], t[h.table[b, a]], g.table[t[a], t[b]], g.table[t[b], t[a]])
    return max(float(top_singular_values(
        m[terms[0]] + m[terms[1]] - m[terms[2]] - m[terms[3]]).max())
        for m in (rep.matrices for rep in hom.source_table.irreps))


def vn_norm_of_coeffs(table, coeffs):
    """Operator norm of sum_g c_g lambda_g, as the largest irrep block norm."""
    return max(float(top_singular_values(np.einsum("g,gab->ab", coeffs, rep.matrices)))
               for rep in table.irreps)
