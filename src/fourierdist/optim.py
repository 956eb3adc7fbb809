"""Maximization of block-image norms over products of spectral unit balls.

The problems solved here all have the shape: a fixed linear map L sends a
tuple of square complex matrices (one per input block) to a tuple of output
blocks, and we want sup ||L(X)||_max-block over max_sigma ||X_sigma|| <= 1.
The objective is convex, so every reported value is the exact evaluation at
a feasible witness and therefore a certified lower bound of the supremum.

Two candidate generators are combined and the best witness kept: a
multi-start ascent that replaces each input block by the polar factor of
its gradient block, the exact maximizer of the linearization over the unit
polyball (the power method for a convex objective: a step never lowers the
objective, so it climbs from every start), and a coarse random-sampling
oracle over unitary tuples.  Every block norm comes from one kernel,
``top_singular_values``: closed forms for 1x1 and 2x2 blocks, LAPACK beyond,
and ``np.linalg.LinAlgError`` on non-finite input of any block size.

``cb_upper_bound`` brackets the supremum from above at every amplification
level (Haagerup's factorization of the map's Choi matrix).  Given that
bound, the search stops as soon as a witness meets it within ``TIE_RTOL``:
no later restart or oracle sample could then replace the incumbent, so the
value, witness and labels are those of the full search, at less cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# the cap on polish rounds per restart
POLISH_ROUNDS = 60
# a candidate replaces the incumbent only when it is higher by more than this
# share of the incumbent's size, so that rounding noise around a common value
# neither relabels best_source nor flags the oracle as beating the ascent
TIE_RTOL = 1e-13
# relative rounding margin of cb_upper_bound, well inside TIE_RTOL so that a
# witness that attains the bound up to rounding still meets it
UPPER_RTOL = 1e-14


@dataclass(frozen=True)
class Effort:
    """Optimizer budget; larger budgets only extend the candidate set."""

    restarts: int = 64
    samples: int = 100_000

    def for_scan(self) -> Effort:
        """Reduced per-item budget used inside exhaustive bijection scans."""
        return Effort(
            restarts=max(3, self.restarts // 16),
            samples=max(1024, self.samples // 64),
        )


EFFORT_PRESETS = {
    "low": Effort(restarts=16, samples=10_000),
    "default": Effort(),
    "high": Effort(restarts=200, samples=1_000_000),
}


def resolve_effort(effort) -> Effort:
    if isinstance(effort, Effort):
        return effort
    if effort is None:
        return EFFORT_PRESETS["default"]
    try:
        return EFFORT_PRESETS[effort]
    except KeyError:
        raise ValueError(f"unknown effort {effort!r}; expected one of "
                         f"{sorted(EFFORT_PRESETS)} or an Effort instance")


def haar_unitaries(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    """m Haar-distributed d x d unitaries, shape (m, d, d), from the QR of
    complex Ginibre matrices with the phases of diag(R) moved into Q."""
    # filled in place: bit-identical to (re + 1j im) / sqrt(2), without temporaries
    z = np.empty((m, d, d), dtype=complex)
    z.real = rng.standard_normal((m, d, d))
    z.imag = rng.standard_normal((m, d, d))
    z /= np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.einsum("nii->ni", r).copy()
    ph /= np.abs(ph)
    return q * ph[:, None, :]


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """One Haar-distributed d x d unitary."""
    return haar_unitaries(rng, 1, d)[0]


def top_singular_values(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack of shape (..., m, n):
    |m_00| for 1x1 blocks, a closed form for 2x2 blocks, LAPACK for larger ones.
    Non-finite input raises ``np.linalg.LinAlgError`` on every block size."""
    if stack.shape[-2:] == (2, 2):
        # eigenvalues of m m^* = [[p, q], [conj(q), r]], without the cancellation
        # of frob^4 - 4 |det|^2 when the singular values are close
        a, b, c, e = stack[..., 0, 0], stack[..., 0, 1], stack[..., 1, 0], stack[..., 1, 1]
        with np.errstate(all="ignore"):
            p = abs(a) ** 2 + abs(b) ** 2
            r = abs(c) ** 2 + abs(e) ** 2
            q = a * c.conj() + b * e.conj()
            top = np.sqrt((p + r) / 2 + np.hypot((p - r) / 2, abs(q)))
        # accurate to rounding inside this range, exact on zero blocks; else LAPACK
        ok = (top > 1e-140) & (top < 1e140)
        if ok.all() or (ok | ~stack.any(axis=(-2, -1))).all():
            return top
    if stack.shape[-2:] == (1, 1):
        top = abs(stack[..., 0, 0])
    else:
        top = np.linalg.svd(stack, compute_uv=False)[..., 0]
    if not np.isfinite(top).all():
        raise np.linalg.LinAlgError("non-finite entries in top_singular_values")
    return top


def top_singular_value(m: np.ndarray) -> float:
    """Largest singular value of one matrix."""
    return float(top_singular_values(m))


def top_singular_pair(m: np.ndarray):
    """(s, u, v): the largest singular value of one matrix and unit vectors
    with m v = s u; a closed form for 1x1 blocks, one SVD beyond."""
    if m.shape[0] == 1:
        # s from the kernel, not Python's abs, so that it matches the value pass
        s = top_singular_value(m)
        u = m[:, 0] / s if s > 0 else np.ones(1, dtype=complex)
        return s, u, np.ones(1, dtype=complex)
    u, sv, vh = np.linalg.svd(m)
    return float(sv[0]), u[:, 0], vh[0].conj()


def cb_upper_bound(kernels: list[list[np.ndarray]], dims_in: list[int],
                   dims_out: list[int]) -> float:
    """An upper bound of the cb norm of the block map with kernels K[out][in],
    hence of its value at every amplification level.

    Embed the blocks diagonally in M_a and M_b (a = sum dims_in, b = sum
    dims_out) and let phi = L o E, with E the compression to the block
    diagonal, a complete contraction: ||phi||_cb = ||L||_cb.  Each way of
    writing phi(X) = sum_r A_r X B_r gives Haagerup's bound
    ||sum_r A_r A_r^*||^1/2 ||sum_r B_r^* B_r||^1/2 (Paulsen, Completely
    Bounded Maps and Operator Algebras).  The Choi matrix with rows (p, i) and
    columns (j, q), M[(p,i),(j,q)] = phi(e_ij)[p,q], is sum_r vec(A_r)
    vec(B_r)^T for such a sum, so its SVD M = V S Y^* gives one with balanced
    factors U = V S^1/2 and W = S^1/2 Y^*, whose two sums are the partial
    traces of U U^* over i and of W^* W over j.  The reconstruction residual
    R = M - U W is the Choi matrix of a map with the representation R = R I,
    whose bound is at most sqrt(a) ||R||_F; it is added, and ``UPPER_RTOL``
    covers the rounding of the rest.
    """
    a, b = sum(dims_in), sum(dims_out)
    off_in, off_out = np.cumsum([0, *dims_in]), np.cumsum([0, *dims_out])
    choi = np.zeros((b, a, a, b), dtype=complex)
    for p, row in enumerate(kernels):
        for s, kern in enumerate(row):
            # kern[A, B, x, y] = phi(e_xy)[A, B] inside the blocks (p, s)
            choi[off_out[p]:off_out[p + 1], off_in[s]:off_in[s + 1],
                 off_in[s]:off_in[s + 1], off_out[p]:off_out[p + 1]] = kern.transpose(0, 2, 3, 1)
    choi = choi.reshape(b * a, a * b)
    v, sv, yh = np.linalg.svd(choi, full_matrices=False)
    root = np.sqrt(sv)
    u, w = v * root, root[:, None] * yh
    left = np.einsum("pir,qir->pq", u.reshape(b, a, -1), u.conj().reshape(b, a, -1))
    right = np.einsum("rjp,rjq->pq", w.conj().reshape(-1, a, b), w.reshape(-1, a, b))
    bound = np.sqrt(np.linalg.eigvalsh(left)[-1] * np.linalg.eigvalsh(right)[-1])
    residual = np.sqrt(a) * np.linalg.norm(choi - u @ w)
    return float((bound + residual) * (1 + UPPER_RTOL))


def clip_to_ball(m: np.ndarray) -> np.ndarray:
    """Project onto the spectral unit ball by clipping singular values."""
    if m.shape[0] == 1:
        a = abs(m[0, 0])
        return m if a <= 1.0 else m / a
    if top_singular_value(m) <= 1.0:
        return m
    u, s, vh = np.linalg.svd(m)
    return u @ (np.minimum(s, 1.0)[:, None] * vh)


def polar_factor(m: np.ndarray) -> np.ndarray:
    if m.shape[0] == 1:
        a = abs(m[0, 0])
        return m / a if a > 0 else np.ones_like(m)
    u, _, vh = np.linalg.svd(m)
    return u @ vh


class BlockLinearMap:
    """The linear map between block tuples, given by kernels K[out][in].

    K[i][j] has shape (dout, dout, din, din); at amplification level k each
    input block is a (k*din, k*din) matrix and the map acts as the identity
    on the k-index:  Y[i A j B] = sum K[A B a b] X[i a j b].  The map is
    materialized once as a flat matrix so that apply/adjoint are single
    matvecs over concatenated vectorized blocks.
    """

    def __init__(self, kernels: list[list[np.ndarray]], dims_in: list[int],
                 dims_out: list[int], k: int = 1):
        self.kernels = kernels
        self.dims_in = dims_in
        self.dims_out = dims_out
        self.k = k
        self.sizes_in = [k * d for d in dims_in]
        self.sizes_out = [k * d for d in dims_out]
        self._off_in = np.cumsum([0] + [s * s for s in self.sizes_in])
        self._off_out = np.cumsum([0] + [s * s for s in self.sizes_out])
        self.matrix = self._materialize()
        self.matrix_h = self.matrix.conj().T

    def _materialize(self) -> np.ndarray:
        k = self.k
        mat = np.zeros((self._off_out[-1], self._off_in[-1]), dtype=complex)
        eye_k = np.eye(k)
        for i, dout in enumerate(self.dims_out):
            for j, din in enumerate(self.dims_in):
                # flat[(i,A,j',B), (i2,a,j2,b)] = eye_k[i,i2] K[A,B,a,b] eye_k[j',j2]
                kern = self.kernels[i][j]
                big = np.einsum("pr,ABab,qs->pAqBrasb", eye_k, kern, eye_k,
                                optimize=True)
                rows = (k * dout) ** 2
                cols = (k * din) ** 2
                mat[self._off_out[i]:self._off_out[i + 1],
                    self._off_in[j]:self._off_in[j + 1]] = big.reshape(rows, cols)
        return mat

    @staticmethod
    def _matvec(mat: np.ndarray, blocks: list[np.ndarray], off, sizes) -> list[np.ndarray]:
        v = mat @ np.concatenate([b.ravel() for b in blocks])
        return [v[off[i]:off[i + 1]].reshape(s, s) for i, s in enumerate(sizes)]

    def apply(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        return self._matvec(self.matrix, blocks, self._off_out, self.sizes_out)

    def adjoint(self, blocks_out: list[np.ndarray]) -> list[np.ndarray]:
        return self._matvec(self.matrix_h, blocks_out, self._off_in, self.sizes_in)

    def apply_batch(self, stacks: list[np.ndarray]) -> list[np.ndarray]:
        """Batched apply; stacks[j] has shape (N, k*din, k*din)."""
        n_batch = stacks[0].shape[0]
        flat = np.concatenate([s.reshape(n_batch, -1) for s in stacks], axis=1)
        out_flat = flat @ self.matrix.T
        return [out_flat[:, self._off_out[i]:self._off_out[i + 1]].reshape(n_batch, s, s)
                for i, s in enumerate(self.sizes_out)]


def _best_block(blocks: list[np.ndarray]):
    """Largest block spectral norm with its index and top singular pair."""
    i = int(np.argmax([top_singular_value(blk) for blk in blocks]))
    s, u, v = top_singular_pair(blocks[i])
    return s, i, u, v


def _polish_step(adjoint, y: list[np.ndarray], idx: int, u: np.ndarray, v: np.ndarray):
    """Polar factors of the gradient L^*(u v^*) of Re <u, L(x)_idx v> at the
    image y = L(x): the maximizer of the linearization at y over the unit
    polyball (a positive factor per gradient block is harmless)."""
    seed_blocks = [np.zeros(b.shape, dtype=complex) for b in y]
    seed_blocks[idx] = np.outer(u, v.conj())
    return [polar_factor(gb) for gb in adjoint(seed_blocks)]


def _ascend(linmap: BlockLinearMap, start: list[np.ndarray]):
    """One restart: clip the start into the ball, then polish until three
    rounds in a row fail to improve the best value."""
    x = [clip_to_ball(b) for b in start]
    y = linmap.apply(x)
    val, idx, u, v = _best_block(y)
    best_val, best_x = val, x
    stall = 0
    for _ in range(POLISH_ROUNDS):
        x = _polish_step(linmap.adjoint, y, idx, u, v)
        y = linmap.apply(x)
        val, idx, u, v = _best_block(y)
        if val > best_val + 1e-14:
            best_val, best_x = val, x
            stall = 0
        else:
            stall += 1
            if stall >= 3:
                break
    return best_val, best_x


def _sample_oracle(linmap: BlockLinearMap, total: int, seed: int):
    """Coarse oracle: best objective over random unitary tuples."""
    best_val, best_x = -1.0, None
    chunk = 2048
    done = 0
    ci = 0
    while done < total:
        m = min(chunk, total - done)
        rng = np.random.default_rng([seed, 90_000 + ci])
        stacks = [haar_unitaries(rng, m, linmap.k * d) for d in linmap.dims_in]
        images = linmap.apply_batch(stacks)
        vals = np.max([top_singular_values(img) for img in images], axis=0)
        j = int(vals.argmax())
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_x = [s[j] for s in stacks]
        done += m
        ci += 1
    return best_val, best_x


def _beats(val: float, incumbent: float) -> bool:
    """Whether a candidate value is higher than the incumbent beyond a tie."""
    return val > incumbent + TIE_RTOL * abs(incumbent)


def meets_upper(value: float, upper: float | None) -> bool:
    """Whether a value meets an upper bound of the supremum within a tie, so
    that no candidate at most the bound can beat it."""
    return upper is not None and not _beats(upper, value)


def _starts(linmap: BlockLinearMap, effort: Effort, seed: int, extra_starts: tuple):
    """The identity tuple, the extra starts, then ``effort.restarts`` random
    starts, each built only when asked for; random start r draws from its own
    generator, so the starts that run do not depend on how many run."""
    k = linmap.k
    yield [np.eye(k * d, dtype=complex) for d in linmap.dims_in]
    for s in extra_starts:
        yield [b.copy() for b in s]
    for r in range(effort.restarts):
        rng = np.random.default_rng([seed, 1000 + r])
        if r % 2 == 0:
            yield [haar_unitary(rng, k * d) for d in linmap.dims_in]
        else:
            yield [
                (rng.standard_normal((k * d,) * 2) + 1j * rng.standard_normal((k * d,) * 2))
                / np.sqrt(2 * k * d)
                for d in linmap.dims_in
            ]


def maximize_block_image(linmap: BlockLinearMap, effort: Effort, seed: int = 0,
                         extra_starts: tuple = (), upper: float | None = None):
    """Best feasible witness found for sup ||L(X)|| over the unit polyball.

    Returns (value, witness_blocks, meta).  The identity tuple is always one
    of the starts, so the result is at least the objective at the identity.
    Candidates are taken in order (identity, extra starts, random restarts,
    then the sampling oracle) and a later one wins only if it is higher by
    more than ``TIE_RTOL`` relative, so ``best_source`` names the first
    generator to reach the value and a tie with the oracle keeps
    ``converged`` True.

    ``upper``, if given, must bound every value the objective can take (for
    example ``cb_upper_bound``).  Once the incumbent meets it
    (``meets_upper``) no later candidate could win, so the search stops: no
    further start is built or climbed and the oracle is skipped, and the
    result is the one the full search would return.  ``meta`` records
    ``upper`` and the random restarts and oracle samples actually run.
    """
    best_val, best_x, best_src = -1.0, None, "start"
    climbed = 0
    for start in _starts(linmap, effort, seed, extra_starts):
        if meets_upper(best_val, upper):
            break
        val, x = _ascend(linmap, start)
        if _beats(val, best_val):
            best_val, best_x = val, x
            best_src = "ascent" if climbed > 0 else "identity-start"
        climbed += 1
    sample = effort.samples > 0 and not meets_upper(best_val, upper)
    meta = {
        "restarts": max(0, climbed - 1 - len(extra_starts)),
        "samples": effort.samples if sample else 0,
        "converged": True,
        "upper": upper,
    }
    if sample:
        s_val, s_x = _sample_oracle(linmap, effort.samples, seed)
        meta["sampling_value"] = s_val
        if _beats(s_val, best_val):
            best_val, best_x = s_val, s_x
            best_src = "sampling"
            # the coarse oracle beating the ascent signals under-convergence
            meta["converged"] = False
    meta["best_source"] = best_src
    return best_val, best_x, meta
