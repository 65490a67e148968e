"""Dense float64 linear algebra and a portable seeded random stream.

Matrices are numpy float64 arrays in C (row-major) order throughout the
package.  Activation patterns are numpy bool arrays and are only ever used
as elementwise masks, never as 0/1 float diagonals.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64

__all__ = [
    "PortableRng",
    "SpectralNormError",
    "gaussian_matrix",
    "power_iteration",
    "spectral_norm",
]

_INV_2_53 = 2.0 ** -53
_TWO_64 = 1 << 64

# Seed of the fixed start vector used by spectral_norm when no warm start is
# supplied.  Any fixed value works; it only has to be deterministic.
_START_SEED = 0x5EED_0001

# Krylov steps per Lanczos cycle in power_iteration.  A cycle that has not
# converged restarts from its top Ritz vector, which caps the stored basis
# at this many vectors.
_LANCZOS_CYCLE = 32

# Bytes of the row block of `a` that power_iteration's product A^T A q
# streams at a time: the block's two products run while it is still in L2.
# At one BLAS thread, 1 MiB blocks took the product from 0.70 to 0.60 ms at
# 1000x1000 and from 2.8 to 2.5 ms at 2000x2000 (2 MiB L2 a core); 256 KiB
# blocks were no faster than two whole-matrix passes.
_SWEEP_BYTES = 1 << 20

# Raws that PortableRng.normals turns into normals at a time (an even count,
# so no Box-Muller pair straddles two chunks).  A chunk's temporaries stay
# near 1 MiB.  One pass over all raws held about five arrays of the result's
# size: on a 2-core Xeon, 2.01 M normals took 89-96 ms that way and 59-63 ms
# in chunks.
_NORMAL_CHUNK = 1 << 16

# Bytes of a cache line.  numpy aligns its buffers to 16 bytes only, and
# glibc places a buffer of megabytes 16 bytes past a page boundary, so that
# every 64-byte load or store of it spans two lines.
_CACHE_LINE = 64


class PortableRng:
    """Seeded random stream with a pinned, documented algorithm.

    Raw randomness is the 64-bit output sequence of PCG64 (PCG XSL-RR
    128/64), which numpy guarantees to be reproducible for a given seed.
    Derived values are defined entirely in terms of that raw stream:

    * uniforms: ``(raw >> 11) * 2**-53`` in ``[0, 1)``
    * normals: Box-Muller on consecutive raw pairs, with the first uniform
      of each pair shifted into ``(0, 1]`` so the log stays finite.

    ``normals(k)`` always consumes ``2 * ceil(k / 2)`` raw draws, so the
    stream position depends only on the sequence of calls, never on the
    sampled values.  Integer draws use rejection sampling and consume a
    value-dependent (but seed-deterministic) number of raws.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._bits = PCG64(seed)

    def raw(self, count: int) -> np.ndarray:
        """Next `count` raw uint64 outputs of the generator."""
        out = self._bits.random_raw(count)
        return np.atleast_1d(np.asarray(out, dtype=np.uint64))

    def advance(self, draws: int) -> None:
        """Skip `draws` raw outputs without generating them."""
        self._bits.advance(draws)

    def uniforms(self, count: int) -> np.ndarray:
        """`count` doubles uniform on [0, 1)."""
        return (self.raw(count) >> np.uint64(11)) * _INV_2_53

    def normals(self, count: int) -> np.ndarray:
        """`count` standard normal doubles via Box-Muller.

        The raws are transformed ``_NORMAL_CHUNK`` at a time, each chunk
        written straight into the result, so the only other memory is a
        chunk's worth.  Every step is elementwise, so the values and the
        stream position do not depend on the chunk size: they are those of
        one Box-Muller pass over all ``2 * ceil(count / 2)`` raws.
        """
        out = np.empty(count)
        pairs = (count + 1) // 2
        for lo in range(0, pairs, _NORMAL_CHUNK // 2):
            hi = min(pairs, lo + _NORMAL_CHUNK // 2)
            raw = self.raw(2 * (hi - lo))
            raw >>= np.uint64(11)
            radius = raw[0::2].astype(np.float64)
            radius += 1.0
            radius *= _INV_2_53
            angle = raw[1::2].astype(np.float64)
            angle *= _INV_2_53
            del raw   # before the cosine's temporary
            np.log(radius, out=radius)
            radius *= -2.0
            np.sqrt(radius, out=radius)
            angle *= 2.0 * np.pi
            np.multiply(radius, np.cos(angle), out=out[2 * lo:2 * hi:2])
            # an odd count drops the sine of its last pair
            odd = out[2 * lo + 1:2 * hi:2]
            np.sin(angle, out=angle)
            np.multiply(radius[:len(odd)], angle[:len(odd)], out=odd)
        return out

    def integer_below(self, bound: int) -> int:
        """Unbiased integer in [0, bound) via rejection on the raw stream."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = _TWO_64 - _TWO_64 % bound
        while True:
            r = int(self.raw(1)[0])
            if r < limit:
                return r % bound

    def sample_without_replacement(self, population: int, size: int) -> np.ndarray:
        """`size` distinct indices from range(population), partial Fisher-Yates.

        Swap i takes ``integer_below(population - i)``.  The `size` raws are
        drawn at once and taken in order; each rejected raw adds one more
        draw, so the indices and the stream position are those of the
        per-index draws.
        """
        if not 0 <= size <= population:
            raise ValueError("size must be in [0, population]")
        raws = self.raw(size).tolist()
        picks = []
        for r in raws:   # the loop also visits the redraws appended below
            i = len(picks)
            bound = population - i
            if r < _TWO_64 - _TWO_64 % bound:
                picks.append(i + r % bound)
            else:
                raws.append(int(self.raw(1)[0]))
        # the swaps on range(population), holding only the moved entries
        pool = {}
        for i, j in enumerate(picks):
            pool[i], pool[j] = pool.get(j, j), pool.get(i, i)
        return np.array([pool[i] for i in range(size)], dtype=np.intp)


class SpectralNormError(RuntimeError):
    """The Lanczos solver did not converge; carries the last iterate of
    the operator whose residual is largest."""

    def __init__(self, message: str, sigma: float, vector: np.ndarray,
                 residual: float, iterations: int):
        super().__init__(message)
        self.sigma = sigma
        self.vector = vector
        self.residual = residual
        self.iterations = iterations


def gaussian_matrix(rows: int, cols: int, variance: float, rng: PortableRng) -> np.ndarray:
    """(rows, cols) matrix of i.i.d. N(0, variance) entries, row-major fill order.

    A pure function of (rows, cols, variance, rng seed and position): the
    same stream state always yields the same matrix.  The normals are
    scaled in place, so the matrix is the only array of its size; like the
    normals themselves, its values do not depend on ``_NORMAL_CHUNK``.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    # Box-Muller values lie within 9 of zero, so a finite variance gives
    # finite entries
    if not 0 < variance < np.inf:
        raise ValueError(f"variance must be positive and finite, got {variance}")
    out = rng.normals(rows * cols).reshape(rows, cols)
    out *= np.sqrt(variance)
    return out


def aligned_empty(shape) -> np.ndarray:
    """Uninitialized C-order float64 array of `shape` whose data starts on a
    cache line (``_CACHE_LINE`` bytes)."""
    size = int(np.prod(shape))
    buf = np.empty(size + _CACHE_LINE // 8)
    start = (-buf.ctypes.data % _CACHE_LINE) // 8
    return buf[start:start + size].reshape(shape)


# a non-finite entry makes a start quotient NaN or inf; it is reported by
# the degenerate hook, not by a RuntimeWarning
@np.errstate(invalid="ignore")
def _lanczos(gram, start: np.ndarray, tol: float, max_iter: int = 10_000,
             degenerate=None) -> tuple:
    """Top eigenpairs of n symmetric PSD operators by restarted Lanczos, in lockstep.

    `gram` maps an ``(n, dim)`` array, row i a vector for operator i, to the
    n products; `start` holds the n start rows (zero rows allowed).  Returns
    ``(theta, vectors, residual, iterations)``: each row's top Ritz value,
    Ritz vector (unit to roundoff) and Ritz residual, and the number of
    `gram` calls.

    Each cycle grows every row's orthonormal Krylov basis, with full
    reorthogonalisation, by up to ``_LANCZOS_CYCLE`` vectors, and after each
    step takes the top Ritz pair ``(theta, x)`` of the row's tridiagonal
    projection; the first step is a power step.  The residual
    ``||G x - theta x|| / theta`` is ``|beta_j y_j| / theta``.  The rows stop
    together, when every residual is at most `tol`; until then converged
    rows keep iterating, and their Ritz values only rise toward their top
    eigenvalue.  An unconverged cycle restarts each row from its top Ritz
    vector.  A zero beta (breakdown) means the row's Krylov space is
    invariant: its residual is 0 and its later basis vectors are 0.

    When the start quotient of some rows is not in (0, inf),
    ``degenerate(bad, iterations)`` gets their bool mask.  It may raise, or
    return unit start rows for them, which restarts the cycle.  If it (or a
    missing hook) returns None, the rows go on: a zero operator's product
    is 0, so its theta and residual are 0.  After `max_iter` products it
    raises SpectralNormError with the last iterate of the row of largest
    residual.
    """
    n, dim = start.shape
    norm = np.linalg.norm(start, axis=1, keepdims=True)
    v = start / np.where(norm > 0.0, norm, 1.0)
    basis = np.empty((n, _LANCZOS_CYCLE, dim))
    tri = np.zeros((n, _LANCZOS_CYCLE, _LANCZOS_CYCLE))
    theta = np.zeros(n)
    residual = np.full(n, np.inf)
    it = 0
    while it < max_iter:
        basis[:, 0] = v
        for j in range(_LANCZOS_CYCLE):
            it += 1
            q = basis[:, : j + 1]
            w = gram(basis[:, j])
            # Gram-Schmidt coefficients of w; the last one is q_j . w
            c = np.matmul(q, w[:, :, None])
            tri[:, j, j] = c[:, j, 0]
            if j == 0:
                bad = ~((tri[:, 0, 0] > 0.0) & (tri[:, 0, 0] < np.inf))
                if bad.any():
                    fresh = None if degenerate is None else degenerate(bad, it)
                    if fresh is not None:
                        v = basis[:, 0].copy()
                        v[bad] = fresh
                        break
            # full reorthogonalisation: classical Gram-Schmidt, twice
            w -= np.matmul(c.transpose(0, 2, 1), q)[:, 0]
            w -= np.matmul(np.matmul(q, w[:, :, None]).transpose(0, 2, 1), q)[:, 0]
            beta = np.sqrt(np.matmul(w[:, None, :], w[:, :, None])[:, 0, 0])
            if j == 0:
                # the 1x1 projection is its own Ritz pair
                theta, y = tri[:, 0, 0].copy(), np.ones((n, 1))
            else:
                ritz, vecs = np.linalg.eigh(tri[:, : j + 1, : j + 1])
                theta, y = ritz[:, -1], vecs[:, :, -1]
            # residual <= tol as |beta_j y_j| <= tol * theta: a breakdown
            # (beta = 0) passes, and a zero operator's theta is not divided by
            live = beta > 0.0
            gap = np.abs(beta * y[:, -1])
            done = np.all(gap <= tol * theta)
            if done or j + 1 == _LANCZOS_CYCLE or it == max_iter:
                v = np.matmul(y[:, None, :], q)[:, 0]
                residual = gap / np.where(live, theta, 1.0)
                if done:
                    return theta, v, residual, it
                break
            np.divide(w, np.where(live, beta, 1.0)[:, None], out=basis[:, j + 1])
            tri[:, j + 1, j] = tri[:, j, j + 1] = beta
    k = int(np.argmax(residual))
    raise SpectralNormError(
        f"Lanczos did not reach tol={tol:g} in {max_iter} iterations "
        f"(last residual {residual[k]:g})",
        sigma=float(np.sqrt(max(theta[k], 0.0))), vector=v[k],
        residual=float(residual[k]), iterations=max_iter)


def power_iteration(a: np.ndarray, tol: float = 1e-10,
                    start: np.ndarray | None = None) -> tuple[float, np.ndarray, float, int]:
    """Largest singular value of `a` by restarted Lanczos on A^T A.

    Returns ``(sigma, right_vector, residual, iterations)``; `iterations`
    counts products with A^T A.  This is `_lanczos` on one operator: the
    Ritz residual ``||A^T A x - theta x|| / theta`` at `tol` bounds the
    relative error of ``sigma**2`` by `tol`.  Each product is one sweep over
    `a` in row blocks of about ``_SWEEP_BYTES``, ``w += (blk @ q) @ blk``,
    so a block is read from memory once.

    `a` is not scanned up front.  When the Rayleigh quotient of a cycle's
    start vector is not in (0, inf), the matrix is checked then: non-finite
    entries raise ValueError, the zero matrix returns
    ``(0.0, zeros, 0.0, 0)``, and otherwise the start vector lies in the
    null space (or is zero) and is replaced by a fresh seeded one.

    `start` replaces the default fixed seeded start vector (warm starts
    converge in a handful of iterations when `a` changes slightly between
    calls).  Raises SpectralNormError after `_lanczos`'s cap of 10,000
    products.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError(f"need a nonempty 2-d matrix, got shape {a.shape}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if start is None:
        start = PortableRng(_START_SEED).normals(a.shape[1])
    start = np.asarray(start, dtype=np.float64)
    if start.shape != (a.shape[1],):
        raise ValueError("start vector has wrong length")
    rows = max(1, _SWEEP_BYTES // (8 * a.shape[1]))

    def gram(q):
        q = q[0]
        w = (a[:rows] @ q) @ a[:rows]
        for i in range(rows, a.shape[0], rows):
            blk = a[i:i + rows]
            w += (blk @ q) @ blk
        return w[None]

    def degenerate(bad, it):
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix has non-finite entries")
        if not a.any():
            return None
        # the start vector is zero or fell in the null space; reseed
        v = PortableRng(_START_SEED + it).normals(a.shape[1])
        return v / np.linalg.norm(v)

    theta, v, residual, it = _lanczos(gram, start[None], tol, degenerate=degenerate)
    if theta[0] == 0.0:     # only the zero matrix: a nonzero one is reseeded
        return 0.0, np.zeros(a.shape[1]), 0.0, 0
    return float(np.sqrt(theta[0])), v[0], float(residual[0]), it


def spectral_norm(a: np.ndarray, tol: float = 1e-10) -> float:
    """Largest singular value of `a`; exact 0 for the zero matrix."""
    sigma, _, _, _ = power_iteration(a, tol=tol)
    return sigma
