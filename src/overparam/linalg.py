"""Dense linear algebra and a portable seeded random stream.

Matrices are numpy float64 arrays in C (row-major) order throughout the
package.  Activation patterns are numpy bool arrays and are only ever used
as elementwise masks, never as 0/1 float diagonals.

Every spectral norm of the package is taken here, except the training
gradients' (`network.gradient_norms` takes those from an ``eigh`` of the
n x n Gram matrices of their factors).  A matrix (`power_iteration`) or each
example's masked chain (`MaskedChain`) gets its norm by one of two rules.
An operator whose short side is at most ``THIN_SIDE`` gets its norm exactly
from ``eigh`` of its small Gram matrix (`thin_norms`).
Any other gets it from restarted Lanczos on its Gram operator (`_lanczos`).
Exact scaling keeps both inside the float range: the operator is taken on
``a / 2**e``, e the binary exponent of max|a| (`_peak`), which commutes with
rounding, so ``2**k a`` gets exactly ``2**k`` times the norm.  A weight, or
a pair difference, is scaled and rounded in one place only: its `Rounded`,
``Rounded(a)`` or ``Rounded(a, b)`` for ``a - b``, whose scaling and float32
copy live as long as it does and are shared by every solve and chain given
it.  A `power_iteration` operand is a matrix or a `Rounded`.
One precision rule: a Lanczos solve at a `tol` of at least ``_SINGLE_TOL``
takes its Gram products in float32, on that copy; any other solve, the
Lanczos recurrences, the thin rule and every returned value are float64.  A
masked chain that could leave the float32 range, or an example whose value
lies near its bottom, is solved in float64.  A pair's float64 products form
its difference one row block at a time, so only the thin rule forms a
difference whole, and a pair of finite matrices whose difference overflows
float64 is taken on the pair's exact scaling and reads inf.
`power_iteration`'s float64 Lanczos path scales only to re-solve after a
solve that ends badly.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.random import PCG64

__all__ = [
    "MaskedChain",
    "PortableRng",
    "Rounded",
    "SpectralNormError",
    "THIN_SIDE",
    "aligned_empty",
    "gaussian_matrix",
    "power_iteration",
    "spectral_norm",
    "thin_norms",
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

# The largest short side of a matrix whose norm is taken from its Gram
# matrix (thin_norms), not by Lanczos.  At one BLAS thread, in the same GD
# run at n=40, m=1000, the warm (10, 1000) layer-1 radius solves took 5.01
# products and 0.26-0.30 ms a call by Lanczos at tol 1e-5, and 0.12-0.16 ms
# by the thin rule (0.06 ms on a matrix timed alone).
THIN_SIDE = 16

# Bytes of the row block of `a` that power_iteration's product A^T A q
# streams at a time: the block's two products run while it is still in L2.
# A pair's difference is formed a block of this size at a time.
# At one BLAS thread, 1 MiB blocks took the product from 0.70 to 0.60 ms at
# 1000x1000 and from 2.8 to 2.5 ms at 2000x2000 (2 MiB L2 a core); 256 KiB
# blocks were no faster than two whole-matrix passes.
_SWEEP_BYTES = 1 << 20

# The smallest `tol` of a Lanczos solve whose Gram products run in float32.
# Such a solve converges to the norm of the rounded operator: at one BLAS
# thread that was within 4.4e-11 of the dense norm of a (1000, 1000)
# training difference, and within 0.8e-9 to 1.4e-9 on a Gaussian weight, at
# every tol from 1e-5 to 1e-10.  Past that floor the residual certifies
# nothing (at tol 1e-10 the Gaussian weight took 384 products, against 130
# in float64), so tighter solves stay float64.  The floor sits above
# training's warm radius solves (1e-5) and below the battery's default
# spectral_tol (1e-3).
_SINGLE_TOL = 1e-4

# The float32 range a masked chain's float32 solve may use, well inside
# 2**+-126 (a matrix's copy peaks in [2**-51, 1] and needs no check): a
# chain whose scaled weights' squared Frobenius norms multiply past it could
# overflow a Gram product, and a top eigenvalue below its inverse may have
# come through float32 subnormals; both are solved in float64.
_SINGLE_RANGE = 2.0 ** 100

# Raws that PortableRng.normals turns into normals at a time (an even count,
# so no Box-Muller pair straddles two chunks).  A chunk's temporaries stay
# near 1 MiB.  One pass over all raws held about five arrays of the result's
# size: on a 2-core Xeon, 2.01 M normals took 89-96 ms that way and 59-63 ms
# in chunks.
_NORMAL_CHUNK = 1 << 16

# Bytes of a cache line.  numpy aligns its buffers to 16 bytes only, and
# glibc places a buffer of megabytes 16 bytes past a page boundary, so that
# every 64-byte load or store of it spans two lines.  `aligned_empty` backs
# training's radius work arrays and a pair's difference block.
_CACHE_LINE = 64


def _box_muller(raw: np.ndarray, out: np.ndarray) -> None:
    """Box-Muller on the raw pairs along the last axis of `raw` (consumed),
    into `out` of the same leading shape; an `out` one shorter drops the
    last sine.  Every step is elementwise, so a normal does not depend on
    the array it is in."""
    raw >>= np.uint64(11)
    radius = raw[..., 0::2].astype(np.float64)
    radius += 1.0
    radius *= _INV_2_53
    angle = raw[..., 1::2].astype(np.float64)
    angle *= _INV_2_53
    del raw   # before the cosine's temporary
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    np.multiply(radius, np.cos(angle), out=out[..., 0::2])
    odd = out[..., 1::2]
    np.sin(angle, out=angle)
    np.multiply(radius[..., :odd.shape[-1]], angle[..., :odd.shape[-1]], out=odd)


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
        """Skip `draws` raw outputs without generating them (a negative
        count steps back)."""
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
            _box_muller(self.raw(2 * (hi - lo)), out[2 * lo:2 * hi])
        return out

    def sample_without_replacement(self, population: int, size: int) -> np.ndarray:
        """`size` distinct indices from range(population), partial Fisher-Yates.

        Swap i takes an unbiased integer below ``population - i``: the next
        raw r, redrawn while r is at least the largest multiple of the bound
        below 2**64, taken modulo the bound.  The `size` raws are drawn at
        once and taken in order; each rejected raw adds one more draw, so
        the indices and the stream position are those of the per-index
        draws.
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

    def samples_and_normals(self, population: int, size: int,
                            count: int) -> tuple[np.ndarray, np.ndarray]:
        """``(samples, normals)``, each ``(count, size)``: row j is what round
        j of ``sample_without_replacement(population, size)`` then
        ``normals(size)`` would return, bit for bit, and the stream ends where
        those rounds would leave it.  The raws are drawn in one call, and the
        swaps and the Box-Muller pass of all rounds run together.  A raw that
        a swap would reject (probability below population / 2**64) steps the
        stream back, and the rounds are drawn one by one."""
        if not 0 <= size <= population:
            raise ValueError("size must be in [0, population]")
        width = size + 2 * ((size + 1) // 2)
        raws = self.raw(count * width).reshape(count, width)
        bound = np.arange(population, population - size, -1, dtype=np.uint64)
        # swap i accepts r < 2**64 - 2**64 % bound_i, that is r <= ~(2**64 % bound_i)
        top = ~np.array([_TWO_64 % b for b in bound.tolist()], dtype=np.uint64)
        normals = np.empty((count, size))
        if np.any(raws[:, :size] > top):
            self.advance(-raws.size)
            samples = np.empty((count, size), dtype=np.intp)
            for j in range(count):
                samples[j] = self.sample_without_replacement(population, size)
                normals[j] = self.normals(size)
            return samples, normals
        index = np.arange(size)
        picks = index + (raws[:, :size] % bound).astype(np.intp)
        # round j's positions are the keys j * population + p, sorted, and its
        # pool entry for position p sits at the first slot of p's key
        base = np.arange(count)[:, None] * population
        keys = np.sort(np.concatenate([base + index, base + picks], axis=1), axis=None)
        pool = keys % population
        slot_i = np.searchsorted(keys, base + index)
        slot_j = np.searchsorted(keys, base + picks)
        for i in range(size):
            a, b = slot_i[:, i], slot_j[:, i]
            pool[a], pool[b] = pool[b], pool[a]
        _box_muller(raws[:, size:], normals)
        return pool[slot_i], normals


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


# a non-finite or overflowing product makes beta NaN or inf; it ends the
# solve with theta inf, not a RuntimeWarning
@np.errstate(invalid="ignore", over="ignore")
def _lanczos(gram, start: np.ndarray, tol: float, max_iter: int = 10_000) -> tuple:
    """Top eigenpairs of n symmetric PSD operators by restarted Lanczos, each
    stopped at its own tolerance.

    `start` holds the n start rows (zero rows allowed).  ``gram(rows, ids)``
    maps the ``(k, dim)`` rows of the operators still iterating to their k
    products; ``ids`` are those operators' indices into `start`, ascending,
    and the set only shrinks.  Returns ``(theta, vectors, residual,
    iterations)`` in the order of `start`: each row's top Ritz value, Ritz
    vector (unit to roundoff) and Ritz residual, and the number of `gram`
    calls.

    Each cycle grows each row's orthonormal Krylov basis, with full
    reorthogonalisation, by up to ``_LANCZOS_CYCLE`` vectors, and after each
    step takes the top Ritz pair ``(theta, x)`` of the row's tridiagonal
    projection; the first step is a power step.  The residual
    ``||G x - theta x|| / theta`` is ``|beta_j y_j| / theta``.  A row stops
    at the first step where its residual is at most `tol`: its values are
    final, and it takes no more products, so each row gets the values and
    the product count of its own solve.  An unconverged cycle restarts each
    row from its top Ritz vector.  A zero beta (breakdown) means the row's
    Krylov space is invariant, so its residual is 0: a zero start row or a
    zero operator stops at its first product with theta 0.

    A row whose new diagonal entry or beta is not finite (a non-finite
    operator, or a product that overflows) ends the solve before ``eigh``
    sees it, with theta inf; the other rows still iterating keep the values
    of their last finished cycle.  After `max_iter` products it raises
    SpectralNormError with the last iterate of the row of largest residual.
    """
    n, dim = start.shape
    norm = np.linalg.norm(start, axis=1, keepdims=True)
    v = start / np.where(norm > 0.0, norm, 1.0)
    # the rows still iterating sit at the front of `basis` and `tri`, in the
    # order of `start`, and every step works on views of the first k
    basis = np.empty((n, _LANCZOS_CYCLE, dim))
    tri = np.zeros((n, _LANCZOS_CYCLE, _LANCZOS_CYCLE))
    ids = np.arange(n)
    theta, vectors, residual = np.zeros(n), v, np.full(n, np.inf)
    it = 0
    while it < max_iter:
        k = len(ids)
        basis[:k, 0] = v
        for j in range(_LANCZOS_CYCLE):
            it += 1
            q = basis[:k, : j + 1]
            w = gram(basis[:k, j], ids)
            # Gram-Schmidt coefficients of w; the last one is q_j . w
            c = np.matmul(q, w[:, :, None])
            tri[:k, j, j] = c[:, j, 0]
            # full reorthogonalisation: classical Gram-Schmidt, twice
            w -= np.matmul(c.transpose(0, 2, 1), q)[:, 0]
            w -= np.matmul(np.matmul(q, w[:, :, None]).transpose(0, 2, 1), q)[:, 0]
            beta = np.sqrt(np.matmul(w[:, None, :], w[:, :, None])[:, 0, 0])
            # a non-finite product ends the solve before eigh sees it
            fine = np.isfinite(beta) & np.isfinite(tri[:k, j, j])
            if not fine.all():
                theta[ids[~fine]] = np.inf
                return theta, vectors, residual, it
            ritz, vecs = np.linalg.eigh(tri[:k, : j + 1, : j + 1])
            th, y = ritz[:, -1], vecs[:, :, -1]
            # residual <= tol as |beta_j y_j| <= tol * theta: a breakdown
            # (beta = 0) passes, and a zero operator's theta is not divided by
            live = beta > 0.0
            gap = np.abs(beta * y[:, -1])
            stop = gap <= tol * th
            done = stop.all()
            if stop.any() and not done:
                gone = ids[stop]
                theta[gone] = th[stop]
                residual[gone] = gap[stop] / np.where(live[stop], th[stop], 1.0)
                for r in np.flatnonzero(stop):
                    vectors[ids[r]] = y[r] @ q[r]
                # move the rows left forward, each with its live basis and
                # its projection; dst <= src, so no row is overwritten unread
                keep = np.flatnonzero(~stop)
                for dst, src in enumerate(keep):
                    if dst < src:
                        basis[dst, : j + 1] = basis[src, : j + 1]
                        tri[dst, : j + 1, : j + 1] = tri[src, : j + 1, : j + 1]
                ids, w, beta, th, y, gap, live = (
                    a[keep] for a in (ids, w, beta, th, y, gap, live))
                k = len(ids)
                q = basis[:k, : j + 1]
            if done or j + 1 == _LANCZOS_CYCLE or it == max_iter:
                v = np.matmul(y[:, None, :], q)[:, 0]
                theta[ids], vectors[ids] = th, v
                residual[ids] = gap / np.where(live, th, 1.0)
                if done:
                    return theta, vectors, residual, it
                break
            np.divide(w, np.where(live, beta, 1.0)[:, None], out=basis[:k, j + 1])
            tri[:k, j + 1, j] = tri[:k, j, j + 1] = beta
    worst = int(np.argmax(residual))
    raise SpectralNormError(
        f"Lanczos did not reach tol={tol:g} in {max_iter} iterations "
        f"(last residual {residual[worst]:g})",
        sigma=float(np.sqrt(max(theta[worst], 0.0))), vector=vectors[worst],
        residual=float(residual[worst]), iterations=max_iter)


def _sweep_gram(a, e: int = 0):
    """`_lanczos`'s one-row product with A^T A (its `ids` go unused): one
    sweep over A in row blocks of about ``_SWEEP_BYTES``,
    ``w += (blk @ q) @ blk``, so a block is read from memory once.  `a` is a
    matrix, whose products run in its dtype, or a `Rounded`, whose float64
    matrix scaled by ``2**-e`` is taken block by block (`Rounded.blocks`):
    a pair's difference is formed a block at a time, just before the
    block's two products, on the row blocks of the difference itself, so
    the products have the bits of the difference's.  Returns float64."""
    if isinstance(a, Rounded):
        blocks, dtype = a.blocks(e), np.float64
    else:
        rows = max(1, _SWEEP_BYTES // (a.itemsize * a.shape[1]))
        dtype = a.dtype

        def blocks():
            for i in range(0, len(a), rows):
                yield None, a[i:i + rows]

    def gram(q, ids):
        q = q[0].astype(dtype, copy=False)
        sweep = blocks()
        _, blk = next(sweep)
        w = (blk @ q) @ blk
        for _, blk in sweep:
            w += (blk @ q) @ blk
        return w.astype(np.float64, copy=False)[None]
    return gram


def _peak(a: np.ndarray) -> tuple:
    """max|a| of a matrix, or of each matrix of a stack, and its binary
    exponent e (0 where max|a| is 0, inf or NaN).  One max and one min make
    no |a| temporary, which raised a train-gd benchmark job's peak RSS by
    about 0.1 MiB."""
    peak = np.maximum(np.max(a, axis=(-2, -1)), -np.min(a, axis=(-2, -1)))
    return peak, np.frexp(np.where(np.isfinite(peak), peak, 0.0))[1]


class Rounded:
    """The operand of a spectral solve: a float64 matrix `a`, or with `b`
    the difference ``a - b`` of a pair of one shape.

    Its float64 matrix is read in row blocks (`blocks`), so a pair's
    difference is formed a block at a time and never whole, except by
    ``matrix``, which only the thin rule reads.  ``scaling`` (its peak and
    exponent), ``matrix`` and ``single``, the float32 copy that a float32
    solve multiplies with, are each made when a solve first reads them and
    shared by every solve given this object.

    A pair of finite matrices whose difference overflows float64 has a norm
    past the float range.  Its difference is taken on the pair's exact
    scaling: `scaling` sets ``shift`` to the binary exponent of
    max(max|a|, max|b|), and from then on a block is formed as
    ``a / 2**shift - b / 2**shift``."""

    def __init__(self, a, b=None):
        self.a = np.asarray(a, dtype=np.float64)
        self.shape = self.a.shape
        if self.a.ndim != 2 or 0 in self.shape:
            raise ValueError(f"need a nonempty 2-d matrix, got shape {self.shape}")
        self.b = None if b is None else np.asarray(b, dtype=np.float64)
        if self.b is not None and self.b.shape != self.shape:
            raise ValueError(f"pair shapes differ: {self.shape} and {self.b.shape}")
        self.rows = max(1, _SWEEP_BYTES // (8 * self.shape[1]))
        self.shift = 0

    def blocks(self, e: int = 0):
        """A function that yields ``(row slice, block)`` for each row block
        of ``rows`` rows of the float64 matrix scaled by ``2**-e``, e at
        least -1023 and, for a pair, at least ``shift``.  A plain matrix's
        blocks at e = 0 are views of it.  Every other block is formed in one
        aligned buffer that each call reuses, so a block is read before the
        next one is taken."""
        a, b, rows = self.a, self.b, self.rows
        view = b is None and e == 0
        buf = None if view else aligned_empty((min(rows, len(a)), a.shape[1]))

        def blocks():
            shift = self.shift
            step, scale = np.ldexp(1.0, -shift), np.ldexp(1.0, shift - e)
            for i in range(0, len(a), rows):
                s = slice(i, i + rows)
                if view:
                    yield s, a[s]
                    continue
                d = buf[:len(a[s])]
                if b is None:
                    np.multiply(a[s], scale, out=d)
                    yield s, d
                    continue
                if shift:
                    np.subtract(a[s] * step, b[s] * step, out=d)
                else:
                    np.subtract(a[s], b[s], out=d)
                if e != shift:
                    d *= scale
                yield s, d
        return blocks

    @cached_property
    @np.errstate(invalid="ignore", over="ignore")
    def scaling(self) -> tuple:
        """``(peak, e)``: max|d| of the float64 matrix d, found over its row
        blocks, and the binary exponent e of its exact scaling ``d / 2**e``
        (`_peak`'s, kept at -1023 or above so ``2**-e`` is a float).  peak is
        NaN where `a` or `b` has a non-finite entry, with e 0, and inf where
        a pair of finite matrices has a difference past the float range: e
        is then that of the difference on the pair's exact scaling, plus
        ``shift``."""
        def block_peak():
            return np.max([_peak(d)[0] for _, d in self.blocks(self.shift)()])

        peak = block_peak()
        if not np.isfinite(peak) and self.b is not None:
            ends = np.max([_peak(self.a)[0], _peak(self.b)[0]])
            if np.isfinite(ends):   # the difference overflowed
                self.shift = int(np.frexp(ends)[1])
                return np.inf, int(np.frexp(block_peak())[1]) + self.shift
        if not np.isfinite(peak):
            return np.nan, 0
        return float(peak), max(int(np.frexp(peak)[1]), -1023)

    @cached_property
    @np.errstate(invalid="ignore", over="ignore")
    def matrix(self) -> np.ndarray:
        """The float64 matrix: `a`, or a pair's difference formed whole,
        divided by ``2**shift``."""
        if self.b is None:
            return self.a
        self.scaling   # sets the shift
        out = np.empty(self.shape)
        for s, d in self.blocks(self.shift)():
            out[s] = d
        return out

    # a non-finite entry makes a non-finite copy, which the callers read
    @cached_property
    @np.errstate(invalid="ignore", over="ignore")
    def single(self) -> tuple:
        """``(copy, e, peak)``: the exact scaling ``d / 2**e`` of the float64
        matrix d, with ``(peak, e)`` its `scaling`, each entry scaled exactly
        and rounded once to float32, so ``2**k`` on `a` (and `b`) gives the
        same copy, whose entries are at most 1 in magnitude.  A difference
        goes twice through one float64 row block of about ``_SWEEP_BYTES``,
        for its peak and then into the copy, and is never formed whole."""
        peak, e = self.scaling
        out = np.empty(self.shape, dtype=np.float32)
        scale = np.ldexp(1.0, self.shift - e)
        for s, d in self.blocks(self.shift)():
            np.multiply(d, scale, out=out[s], casting="same_kind")
        return out, e, peak


def thin_norms(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral norms and top right singular vectors of a stack of thin
    matrices, exact to roundoff.

    `stack` is ``(n, k, m)`` with ``min(k, m) <= THIN_SIDE``.  Each matrix
    is taken on its exact scaling, whose entries lie below 1 in magnitude,
    so its Gram matrix on the short side cannot overflow; one stacked
    ``eigh`` of the n Grams gives every top eigenpair.  Returns ``(sigma,
    vectors)``: the n norms and the n unit right vectors, ``(n, m)``; a
    non-finite matrix gets inf and the zero matrix 0, both a zero vector.
    """
    k, m = stack.shape[1:]
    peak, e = _peak(stack)
    finite = np.isfinite(peak)
    # 2**-e in two factors, each a float for any exponent; two products took
    # 9 us on a (10, 1000) matrix, where np.ldexp took 46 us
    half = -e // 2
    a = stack * np.ldexp(1.0, half)[:, None, None]
    a *= np.ldexp(1.0, -e - half)[:, None, None]
    a[~finite] = 0.0
    if k < m:
        lam, u = np.linalg.eigh(np.matmul(a, a.transpose(0, 2, 1)))
        v = np.matmul(u[:, None, :, -1], a)[:, 0]
        length = np.linalg.norm(v, axis=1, keepdims=True)
        v /= np.where(length > 0.0, length, 1.0)
    else:
        lam, vecs = np.linalg.eigh(np.matmul(a.transpose(0, 2, 1), a))
        v = vecs[:, :, -1]
    v[(peak == 0.0) | ~finite] = 0.0
    with np.errstate(over="ignore"):   # a norm past the float range reads inf
        sigma = np.ldexp(np.sqrt(np.maximum(lam[:, -1], 0.0)), e)
    return np.where(finite, sigma, np.inf), v


def power_iteration(a, tol: float = 1e-10,
                    start: np.ndarray | None = None) -> tuple[float, np.ndarray, float, int]:
    """Largest singular value of `a` by restarted Lanczos on A^T A, or
    exactly for a thin matrix.

    `a` is a matrix or a `Rounded`, whose matrix and copy the solve shares.
    Returns ``(sigma, right_vector, residual, iterations)``; `iterations`
    counts products with A^T A.  This is `_lanczos` on one operator: the
    Ritz residual ``||A^T A x - theta x|| / theta`` at `tol` bounds the
    relative error of ``sigma**2`` by `tol`.

    A thin matrix takes its norm and right vector from `thin_norms`, with
    residual 0 and 0 iterations; `tol` and `start` go unused.  On either
    path non-finite entries raise ValueError and the zero matrix returns
    ``(0.0, zeros, 0.0, 0)``.

    Below ``_SINGLE_TOL`` the Lanczos path takes float64 products on the
    matrix itself, and scans it only after a solve that ends badly.  A
    pair's products form its difference a row block at a time, just before
    the block's two products (`_sweep_gram`), with the bits of the
    difference's products; only the thin rule forms a pair's difference
    whole (`Rounded.matrix`).  From that floor on the Lanczos path takes
    float32 products on `Rounded.single`, the copy of its exact scaling,
    whose peak settles a zero or non-finite matrix before any product.  A
    solve ends badly with theta outside (0, inf) or with residual 0: a
    zero, null or eigenvector start, or a float64 product that under- or
    overflowed.  Then `_lanczos` runs once more, on float64 products, from
    a fresh seeded start on the exact scaling of the matrix (a pair's
    streamed as well), and the iterations are summed.  A pair of finite
    matrices whose difference overflows float64 reads inf on every path
    (see `Rounded`).

    `start` replaces the default fixed seeded start vector (warm starts
    converge in a handful of iterations when `a` changes slightly between
    calls).  Raises SpectralNormError after `_lanczos`'s cap of 10,000
    products.
    """
    op = a if isinstance(a, Rounded) else Rounded(a)
    cols = op.shape[1]
    if tol <= 0:
        raise ValueError("tol must be positive")
    if start is not None:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != (cols,):
            raise ValueError("start vector has wrong length")
    if min(op.shape) <= THIN_SIDE:
        sigma, v = thin_norms(op.matrix[None])
        # a finite matrix whose norm overflows reads inf as well
        if sigma[0] == np.inf and np.isnan(op.scaling[0]):
            raise ValueError("matrix has non-finite entries")
        with np.errstate(over="ignore"):   # a norm past the float range reads inf
            return float(np.ldexp(sigma[0], op.shift)), v[0], 0.0, 0
    if start is None:
        start = PortableRng(_START_SEED).normals(cols)
    if tol >= _SINGLE_TOL:
        copy, e, peak = op.single
        gram = _sweep_gram(copy)
    else:
        gram, e, peak = _sweep_gram(op), 0, None
    it = 0
    if peak is None or peak > 0.0:   # not a zero or non-finite (NaN) copy
        theta, v, residual, it = _lanczos(gram, start[None], tol)
        if 0.0 < theta[0] < np.inf and residual[0] > 0.0:
            with np.errstate(over="ignore"):   # a norm past the float range reads inf
                return float(np.ldexp(np.sqrt(theta[0]), e)), v[0], float(residual[0]), it
    if peak is None:   # the float64 path scans the matrix only now
        peak, e = op.scaling
    if np.isnan(peak):
        raise ValueError("matrix has non-finite entries")
    if peak == 0.0:
        return 0.0, np.zeros(cols), 0.0, 0
    fresh = PortableRng(_START_SEED + it).normals(cols)
    theta, v, residual, more = _lanczos(_sweep_gram(op, e), fresh[None], tol)
    with np.errstate(over="ignore"):   # a norm past the float range reads inf
        sigma = float(np.ldexp(np.sqrt(theta[0]), e))
    return sigma, v[0], float(residual[0]), it + more


def spectral_norm(a, tol: float = 1e-10) -> float:
    """Largest singular value of `a`, a matrix or a `Rounded` (see
    `power_iteration`); exact 0 for the zero matrix."""
    sigma, _, _, _ = power_iteration(a, tol=tol)
    return sigma


def _rows(block: np.ndarray, w: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``block @ w`` (``block @ w.T`` with `transpose`) over the last axis of
    an (n, b, dim) block, as one GEMM on the weight as stored.  A float64
    weight goes on the right: on one BLAS thread of a 2-core Xeon,
    (20, 1000) @ W takes 1.2 ms and W^T @ (1000, 20), the same flops,
    2.1 ms.  A transposed float32 weight goes on the left: on one BLAS
    thread of a Haswell-class Xeon, (20, 1000) @ W.T took 0.60 ms and
    (W @ (1000, 20)).T 0.39 ms, where float64 took 0.72 and 0.87 ms."""
    flat = block.reshape(-1, block.shape[-1])
    if not transpose:
        out = flat @ w
    elif w.dtype == np.float32:
        out = (w @ flat.T).T
    else:
        out = flat @ w.T
    return out.reshape(*block.shape[:-1], out.shape[1])


class MaskedChain:
    """Masked chain products of all n examples at once.

    Example i's operator is ``D_{last,i} W_last^T ... D_{first,i} W_first^T``,
    where ``D_{r,i}`` masks to the active units of its layer-r pattern; with
    `head` it gains a final unmasked ``W_head^T``.  ``apply`` and
    ``apply_t`` (the transpose) act on row blocks of shape ``(n, b, dim)``,
    taking example i's b rows through example i's operator, so each layer is
    one GEMM over n*b rows (`_rows`).  ``first > last`` leaves no masked
    layers.  The products run in the dtype of the block and the weights.
    `rounded`, a `Rounded` of each weight, gives the chain every exponent and
    float32 copy (`Rounded.single`); without it the chain makes its own list
    when it first needs one.  The chains it derives for a solve never read it.
    """

    def __init__(self, weights, patterns, first: int, last: int,
                 head: int | None = None, rounded=None):
        self.weights, self.patterns = weights, patterns
        self.first, self.last, self.head = first, last, head
        if rounded is not None:   # else made when first read
            self.rounded = rounded
        self.n = patterns[0].shape[0]
        self.masks = {r: patterns[r - 1][:, None, :]
                      for r in range(first, last + 1)}

    rounded = cached_property(lambda self: [Rounded(w) for w in self.weights])

    def apply(self, block: np.ndarray) -> np.ndarray:
        t = block
        for r in range(self.first, self.last + 1):
            t = _rows(t, self.weights[r - 1])
            t *= self.masks[r]
        if self.head is not None:
            t = _rows(t, self.weights[self.head - 1])
        return t

    def apply_t(self, block: np.ndarray) -> np.ndarray:
        t = block
        if self.head is not None:
            t = _rows(t, self.weights[self.head - 1], transpose=True)
        for r in range(self.last, self.first - 1, -1):
            t = _rows(self.masks[r] * t, self.weights[r - 1], transpose=True)
        return t

    def _exponents(self) -> list:
        """e_r of each masked layer r: W_r's `Rounded.scaling` exponent, the
        head's folded into the last, each kept where ``2**-e_r`` is a float."""
        exps = [self.rounded[r - 1].scaling[1]
                for r in range(self.first, self.last + 1)]
        if self.head is not None:
            exps[-1] += self.rounded[self.head - 1].scaling[1]
        return [min(max(e, -1023), 1074) for e in exps]

    def _float64(self, ids=slice(None)) -> tuple:
        """``(chain, e)``: the chain of examples `ids` with mask r scaled by
        ``2**-e_r`` (`_exponents`), and e the sum of the e_r."""
        exps = self._exponents()
        patterns = [p[ids] for p in self.patterns]
        for r, e in zip(range(self.first, self.last + 1), exps):
            patterns[r - 1] = patterns[r - 1] * np.ldexp(1.0, -e)
        return (MaskedChain(self.weights, patterns, self.first, self.last, self.head),
                sum(exps))

    def _float32(self) -> tuple | None:
        """``(chain, e)``: the chain on the float32 copy of each weight's
        exact scaling ``W_r / 2**e_r`` (`Rounded.single`), its masks
        unscaled, and e the sum of the e_r; None where the product of the
        copies' squared Frobenius norms exceeds ``_SINGLE_RANGE`` (or is not
        finite), since a Gram product, which takes each weight twice, could
        then overflow float32."""
        layers = list(range(self.first, self.last + 1))
        if self.head is not None:
            layers.append(self.head)
        weights, total, bound = list(self.weights), 0, 1.0
        for r in layers:
            copy, e, _ = self.rounded[r - 1].single
            bound *= float(np.vdot(copy, copy))
            if not bound <= _SINGLE_RANGE:
                return None
            weights[r - 1] = copy
            total += e
        return (MaskedChain(weights, self.patterns, self.first, self.last, self.head),
                total)

    def _solve(self, start: np.ndarray, tol: float) -> np.ndarray:
        """Top eigenvalue of each example's Gram operator
        ``apply_t(apply(.))`` by `_lanczos` from the rows of `start`, the
        products in the weights' dtype.  Whenever examples stop, the chain
        GEMMs are rebuilt over the masks of the examples left, so a stopped
        example costs no more flops.  It saves less time: a product's time
        is mostly the weight's pass through memory, and on one BLAS thread
        of a Haswell-class Xeon a float32 (k, 1000) @ (1000, 1000) took
        0.30-0.52 ms for k = 2..20 and 0.14 ms at k = 1."""
        chain = self
        dtype = self.weights[self.first - 1].dtype

        def gram(rows, ids):
            nonlocal chain
            if chain.n > len(ids):   # chain only the examples left
                chain = None         # one set of mask copies at a time
                chain = MaskedChain(self.weights, [p[ids] for p in self.patterns],
                                    self.first, self.last, self.head)
            out = chain.apply_t(chain.apply(rows[:, None, :].astype(dtype, copy=False)))
            return out[:, 0].astype(np.float64, copy=False)

        return _lanczos(gram, start, tol)[0]

    def prefix_norms(self, headed: bool) -> list:
        """For l2 from ``first + 1`` to `last`, each example's exact norm of
        the thin chain first..l2, or with `headed` of first..l2-1 headed by
        ``W_l2^T``, from one pass that scales mask r by ``2**-e_r``.  Bit for
        bit what `norms` gives each chain alone: `norms` folds a head's
        exponent into the last mask, a power of two that `thin_norms`' exact
        scaling takes out again (outside the subnormal range)."""
        dim = self.weights[self.first - 1].shape[0]
        exps = self._exponents()
        t = np.broadcast_to(np.eye(dim), (self.n, dim, dim))
        norms, e = [], 0
        with np.errstate(over="ignore", invalid="ignore"):
            for r, e_r in zip(range(self.first, self.last + 1), exps):
                t = _rows(t, self.weights[r - 1])
                if headed and r > self.first:
                    norms.append(np.ldexp(thin_norms(t)[0], e))
                t *= self.masks[r] * np.ldexp(1.0, -e_r)
                e += e_r
                if not headed and r > self.first:
                    norms.append(np.ldexp(thin_norms(t)[0], e))
        return norms

    def norms(self, rng: PortableRng, tol: float) -> np.ndarray:
        """Spectral norm of each example's operator, from one solve on the
        exact scaling of its weights.

        A thin chain, whose input dimension is at most ``THIN_SIDE`` (such
        as one from layer 1, acting on R^d), draws nothing from `rng`:
        applied once to the identity, `thin_norms` of the n operators gives
        the exact norms.  A wider one draws ``n * dim`` normals and runs the
        Lanczos rule on the n Gram operators ``apply_t(apply(.))``,
        example i from the i-th `dim` normals, each until its own Ritz
        residual is at most `tol`; each estimate approaches its norm from
        below.

        Below ``_SINGLE_TOL``, and on a thin chain, mask r is scaled by
        ``2**-e_r`` (`_float64`) and the products are float64.  From it on,
        the products are float32, on the rounded exact scaling of each
        weight (`_float32`), unless the chain fails its range check; an
        example whose float32 eigenvalue lies below ``1 / _SINGLE_RANGE`` is
        solved again, from its start, in float64.  Either way the norms are
        scaled back by ``2**sum(e_r)``: weights ``2**k W_r`` give exactly the
        norms times ``2**(k * number of weights)``, and a norm past the float
        range reads inf.  A non-finite operator reads inf, and a zero one (a
        layer pattern with no active unit) 0.
        """
        dim = self.weights[self.first - 1].shape[0]
        if dim <= THIN_SIDE:
            chain, e = self._float64()
            eye = np.broadcast_to(np.eye(dim), (self.n, dim, dim))
            with np.errstate(over="ignore", invalid="ignore"):
                sigma = thin_norms(chain.apply(eye))[0]
        else:
            start = rng.normals(self.n * dim).reshape(self.n, dim)
            single = self._float32() if tol >= _SINGLE_TOL else None
            chain, e = single or self._float64()
            theta = chain._solve(start, tol)
            e = np.full(self.n, e)
            if single is not None:
                single = chain = None   # the float32 chain
                redo = np.flatnonzero(theta < 1.0 / _SINGLE_RANGE)
                if redo.size:
                    chain, e[redo] = self._float64(redo)
                    theta[redo] = chain._solve(start[redo], tol)
            sigma = np.sqrt(theta)
        with np.errstate(over="ignore"):   # a norm past the float range reads inf
            return np.ldexp(sigma, e)
