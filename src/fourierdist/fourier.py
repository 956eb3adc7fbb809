"""Fourier transform and norms on A(G) and VN(G) for a finite group G.

Conventions.  For an irrep pi the transform of a function f is
F_pi = sum_g f(g) pi(g)^*, and the Fourier-algebra norm is
||f||_A = sum_pi (d_pi / |G|) ||F_pi||_1.  The 1/|G| factor makes the point
mass at the identity have norm exactly 1 and makes ||.||_A the exact dual of
the operator norm on VN(G) under the pairing <sum c_g lambda_g, f> =
sum c_g f(g).  The inverse transform f(g) = (1/|G|) sum_pi d_pi tr(pi(g) F_pi)
round-trips exactly with this choice (see the convention tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GroupMismatchError, NumericInputError
from .groups import FiniteGroup, _ReadOnlyArrays
from .irreps import IrrepTable
from .optim import polar_factor, top_singular_values


@dataclass(frozen=True, eq=False)
class AFunction(_ReadOnlyArrays):
    """A complex function on a finite group, i.e. an element of A(G)."""

    group: FiniteGroup
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.group.order,):
            raise GroupMismatchError("function length must equal the group order")
        vals.setflags(write=False)

    def translate(self, g: int) -> AFunction:
        """Left translate: the function x -> f(g^{-1} x)."""
        sel = self.group.table[self.group.inverses[g]]
        return AFunction(self.group, self.values[sel])


@dataclass(frozen=True, eq=False)
class GroupAlgebraElement(_ReadOnlyArrays):
    """Coefficients c_g of an element sum_g c_g lambda_g of VN(G)."""

    group: FiniteGroup
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        if c.shape != (self.group.order,):
            raise GroupMismatchError("coefficient length must equal the group order")
        c.setflags(write=False)


@dataclass(frozen=True, eq=False)
class FourierBlocks:
    """Per-irrep matrix coefficients of a function."""

    table: IrrepTable
    blocks: list[np.ndarray]


def schatten_norm(x: np.ndarray, p) -> float:
    """Schatten p-norm for p in {1, 2, inf} via singular values."""
    x = np.asarray(x, dtype=complex)
    if not np.isfinite(x).all():
        raise NumericInputError("matrix entries must be finite")
    sv = np.linalg.svd(x, compute_uv=False)
    if p == 1:
        return float(sv.sum())
    if p == 2:
        return float(np.sqrt((sv ** 2).sum()))
    if p in (np.inf, float("inf"), "inf"):
        return float(sv.max()) if sv.size else 0.0
    raise ValueError(f"unsupported Schatten exponent {p!r}")


def _require_same_group(obj_group: FiniteGroup, table: IrrepTable):
    if obj_group is not table.group and not np.array_equal(obj_group.table, table.group.table):
        raise GroupMismatchError("function and irrep table live over different groups")


def fourier_transform(f: AFunction, t: IrrepTable) -> FourierBlocks:
    """Blocks F_pi = sum_g f(g) pi(g)^*."""
    _require_same_group(f.group, t)
    blocks = [np.einsum("g,gba->ab", f.values, rep.matrices.conj())
              for rep in t.irreps]
    return FourierBlocks(table=t, blocks=blocks)


def fourier_inverse(b: FourierBlocks) -> AFunction:
    """Inverse transform f(g) = (1/|G|) sum_pi d_pi tr(pi(g) F_pi)."""
    t = b.table
    n = t.group.order
    values = np.zeros(n, dtype=complex)
    for rep, blk in zip(t.irreps, b.blocks):
        if blk.shape != (rep.dimension, rep.dimension):
            raise GroupMismatchError("block shape does not match irrep dimension")
        values += rep.dimension * np.einsum("gab,ba->g", rep.matrices, blk)
    return AFunction(group=t.group, values=values / n)


def a_norm(f: AFunction, t: IrrepTable) -> float:
    """The Fourier-algebra norm sum_pi (d_pi/|G|) ||F_pi||_1."""
    return float(sum(c["contribution"] for c in a_norm_contributions(f, t)))


def a_norm_contributions(f: AFunction, t: IrrepTable) -> list[dict]:
    """Per-block trace norms and their weighted contributions to ||f||_A."""
    blocks = fourier_transform(f, t)
    n = t.group.order
    out = []
    for rep, blk in zip(t.irreps, blocks.blocks):
        s1 = schatten_norm(blk, 1)
        out.append({"dim": rep.dimension, "s1": s1, "contribution": rep.dimension / n * s1})
    return out


def blocks_from_coeffs(t: IrrepTable, coeffs: np.ndarray) -> list[np.ndarray]:
    """Irrep blocks X_pi = sum_g C_g (x) pi(g), rows and columns indexed by
    (i, a), of X = sum_g C_g (x) lambda_g; ``coeffs`` is (n, k, k), or (n,)."""
    c = np.asarray(coeffs)
    if c.ndim == 1:
        c = c[:, None, None]
    k = c.shape[1]
    return [np.einsum("gij,gab->iajb", c, rep.matrices).reshape(k * rep.dimension, -1)
            for rep in t.irreps]


def coeffs_from_blocks(t: IrrepTable, blocks: list[np.ndarray]) -> np.ndarray:
    """Coefficients C_g, shape (n, k, k), of the element with the given irrep
    blocks: C_g = sum_pi (d_pi/|G|) tr_pi(pi(g)^* X_pi), the inverse of
    ``blocks_from_coeffs`` by Schur orthogonality."""
    n = t.group.order
    k = blocks[0].shape[0] // t.irreps[0].dimension
    coeffs = np.zeros((n, k, k), dtype=complex)
    for rep, blk in zip(t.irreps, blocks):
        d = rep.dimension
        coeffs += d / n * np.einsum("gab,iajb->gij", rep.matrices.conj(),
                                    blk.reshape(k, d, k, d))
    return coeffs


def vn_blocks(x: GroupAlgebraElement, t: IrrepTable) -> list[np.ndarray]:
    """Blocks sum_g c_g pi(g), the image of x in each irreducible summand."""
    _require_same_group(x.group, t)
    return blocks_from_coeffs(t, x.coeffs)


def vn_norm_coeffs(t: IrrepTable, coeffs: np.ndarray) -> float:
    """Operator norm of sum_g C_g (x) lambda_g, the largest block norm, for
    coefficients of shape (n,) or (n, k, k): the one VN(G) norm."""
    return max(float(top_singular_values(blk)) for blk in blocks_from_coeffs(t, coeffs))


def vn_norm(x: GroupAlgebraElement, t: IrrepTable) -> float:
    """Operator norm of sum_g c_g lambda_g, i.e. the largest block norm."""
    _require_same_group(x.group, t)
    try:
        return vn_norm_coeffs(t, x.coeffs)
    except np.linalg.LinAlgError:
        # non-finite coefficients, or finite ones whose blocks overflow
        raise NumericInputError("block entries must be finite") from None


def vn_element_from_blocks(t: IrrepTable, blocks: list[np.ndarray]) -> GroupAlgebraElement:
    """Coefficients of the VN(G) element with the given irrep blocks."""
    return GroupAlgebraElement(group=t.group, coeffs=coeffs_from_blocks(t, blocks)[:, 0, 0])


def pairing(x: GroupAlgebraElement, f: AFunction) -> complex:
    """The duality pairing <x, f> = sum_g c_g f(g)."""
    if x.group.order != f.group.order:
        raise GroupMismatchError("pairing needs matching groups")
    return complex(np.dot(x.coeffs, f.values))


def delta_function(g: FiniteGroup, index: int = 0) -> AFunction:
    values = np.zeros(g.order, dtype=complex)
    values[index] = 1.0
    return AFunction(group=g, values=values)


def function_from_cyclic_coeffs(g: FiniteGroup, coeffs) -> AFunction:
    """The function with values f(k) = sum_j c_j exp(2 pi i j k / n).

    The coefficients are expansion coefficients with respect to the cyclic
    characters of Z_n carried over to g by the index identification; this is
    how reference functions on non-abelian groups of the same order are
    specified.
    """
    c = np.asarray(coeffs, dtype=complex)
    n = g.order
    if c.shape != (n,):
        raise GroupMismatchError("need one coefficient per group element")
    k = np.arange(n)
    chars = np.exp(2j * np.pi * np.outer(np.arange(n), k) / n)
    return AFunction(group=g, values=c @ chars)


def dual_norm_witness(f: AFunction, t: IrrepTable,
                      seed: int = 0) -> tuple[float, GroupAlgebraElement]:
    """The element of the unit ball of VN(G) that attains ||f||_A = max |<x, f>|.

    Each block is the polar alignment X_pi = (U V^*)^* of the transform block
    F_pi = U S V^*, so Re tr(X_pi F_pi) = ||F_pi||_1 and the pairing equals
    ||f||_A exactly.  Returns the pairing at that element (a certified lower
    bound of ||f||_A, equal to it up to rounding) and the element.  ``seed``
    is accepted for compatibility and ignored: the closed form needs no
    search.
    """
    blocks_f = fourier_transform(f, t).blocks
    n = t.group.order
    aligned = [polar_factor(fb).conj().T for fb in blocks_f]
    value = abs(sum(rep.dimension / n * np.einsum("ab,ba->", xb, fb)
                    for rep, xb, fb in zip(t.irreps, aligned, blocks_f)))
    return float(value), vn_element_from_blocks(t, aligned)
