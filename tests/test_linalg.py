import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overparam import linalg
from overparam.linalg import (_LANCZOS_CYCLE, _NORMAL_CHUNK, _SWEEP_BYTES,
                              PortableRng, SpectralNormError, aligned_empty,
                              gaussian_matrix, power_iteration, spectral_norm)

from oracles import box_muller, integer_below

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
dims = st.integers(min_value=1, max_value=40)
examples = settings(max_examples=60, deadline=None, derandomize=True)


def jacobi_sigma_max(a, sweeps=60, tol=1e-14):
    """Independent oracle: largest singular value via one-sided Jacobi.

    Rotates column pairs of a working copy until all columns are mutually
    orthogonal; the singular values are then the column norms.
    """
    w = np.array(a, dtype=np.float64, copy=True)
    n = w.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                alpha = w[:, i] @ w[:, i]
                beta = w[:, j] @ w[:, j]
                gamma = w[:, i] @ w[:, j]
                off = max(off, abs(gamma) / max(np.sqrt(alpha * beta), 1e-300))
                if gamma == 0.0:
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                wi = w[:, i].copy()
                w[:, i] = c * wi - s * w[:, j]
                w[:, j] = s * wi + c * w[:, j]
        if off < tol:
            break
    return float(np.max(np.linalg.norm(w, axis=0)))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-9)

    def test_matches_jacobi_oracle(self):
        rng = PortableRng(20240)
        a = rng.normals(100).reshape(10, 10)
        assert spectral_norm(a) == pytest.approx(jacobi_sigma_max(a), abs=1e-8)

    def test_rectangular_matches_oracle(self):
        rng = PortableRng(77)
        a = rng.normals(84).reshape(12, 7)
        assert spectral_norm(a) == pytest.approx(jacobi_sigma_max(a), rel=1e-8)

    def test_zero_matrix_exact(self):
        assert spectral_norm(np.zeros((4, 6))) == 0.0

    def test_nonconvergence_carries_state(self, monkeypatch):
        monkeypatch.setattr(linalg, "_lanczos",
                            functools.partial(linalg._lanczos, max_iter=2))
        a = PortableRng(5).normals(400).reshape(20, 20)
        with pytest.raises(SpectralNormError) as err:
            spectral_norm(a, tol=1e-14)
        assert err.value.iterations == 2
        assert err.value.residual > 0
        assert err.value.vector.shape == (20,)
        assert err.value.sigma > 0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            spectral_norm(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            spectral_norm(np.eye(2), tol=0.0)
        with pytest.raises(ValueError):
            spectral_norm(np.array([[np.nan, 1.0], [0.0, 1.0]]))

    def test_warm_start(self):
        a = PortableRng(9).normals(625).reshape(25, 25)
        sigma, vec, _, _ = power_iteration(a, tol=1e-12)
        sigma2, _, _, iters = power_iteration(a, tol=1e-12, start=vec)
        assert sigma2 == pytest.approx(sigma, rel=1e-10)
        assert iters <= 3

    def test_bounded_by_frobenius(self):
        rng = PortableRng(123)
        for _ in range(10):
            a = rng.normals(48).reshape(6, 8)
            assert spectral_norm(a) <= np.linalg.norm(a) + 1e-9

    def test_absolute_scaling(self):
        rng = PortableRng(321)
        a = rng.normals(36).reshape(6, 6)
        base = spectral_norm(a)
        for c in (-2.5, 0.3, 7.0):
            assert spectral_norm(c * a) == pytest.approx(abs(c) * base, rel=1e-8)
        # ||A^T A q||^2 underflows or overflows: the rescaled re-solve
        dense = np.linalg.norm(a, 2)
        for c in (1e-100, 1e-80, 1e100, 1e300):
            assert spectral_norm(c * a, tol=1e-12) == pytest.approx(c * dense, rel=1e-12)


class TestLanczos:
    """power_iteration against dense SVD norms."""

    @examples
    @given(rows=dims, cols=dims, seed=seeds)
    def test_gaussian_matches_dense(self, rows, cols, seed):
        a = np.random.default_rng(seed).standard_normal((rows, cols))
        sigma, vec, residual, _ = power_iteration(a, tol=1e-12)
        assert sigma == pytest.approx(np.linalg.norm(a, 2), rel=1e-8)
        assert residual <= 1e-12
        assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-12)

    @examples
    @given(rows=dims, cols=dims, rank=st.integers(min_value=1, max_value=5),
           zero_rows=st.integers(min_value=0, max_value=5), seed=seeds)
    def test_rank_deficient_matches_dense(self, rows, cols, rank, zero_rows, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        a[: min(zero_rows, rows - 1)] = 0.0
        sigma, _, _, _ = power_iteration(a, tol=1e-12)
        assert sigma == pytest.approx(np.linalg.norm(a, 2), rel=1e-8)

    def test_clustered_spectrum_needs_restarts(self):
        # the top singular values of a square Gaussian matrix crowd at the
        # edge of its spectrum, the slow case for Krylov methods
        a = gaussian_matrix(1000, 1000, 1.0, PortableRng(42))
        sigma, _, residual, iters = power_iteration(a, tol=1e-12)
        assert iters > _LANCZOS_CYCLE
        assert residual <= 1e-12
        assert sigma == pytest.approx(np.linalg.norm(a, 2), rel=1e-8)

    @pytest.mark.parametrize("shape", [(10, 1000), (1000, 10)])
    def test_wide_and_tall(self, shape):
        a = gaussian_matrix(*shape, 1.0, PortableRng(7))
        sigma, _, _, iters = power_iteration(a, tol=1e-12)
        assert sigma == pytest.approx(np.linalg.norm(a, 2), rel=1e-8)
        # the Krylov space of A^T A has at most min(shape) + 1 dimensions;
        # roundoff in the null-space direction can cost one more step
        assert iters <= min(shape) + 2

    def test_start_in_null_space_reseeds(self):
        rng = PortableRng(3)
        u = rng.normals(30)
        w = rng.normals(20)
        a = np.outer(u, w)
        start = rng.normals(20)
        start -= (start @ w) / (w @ w) * w     # orthogonal to the row space
        assert np.linalg.norm(a @ start) <= 1e-12 * np.linalg.norm(start)
        sigma, _, _, _ = power_iteration(a, tol=1e-12, start=start)
        assert sigma == pytest.approx(np.linalg.norm(u) * np.linalg.norm(w),
                                      rel=1e-10)

    def test_exact_null_start_reseeds(self):
        a = np.diag([3.0, 2.0, 0.0, 0.0])
        sigma, _, _, iters = power_iteration(a, start=np.array([0.0, 0.0, 1.0, 1.0]))
        assert sigma == pytest.approx(3.0, rel=1e-12)
        assert iters >= 2    # the null-space step counts

    def test_eigenvector_start_reseeds(self):
        # the start e_2 breaks down at once on the eigenvalue 2**2
        sigma, _, _, iters = power_iteration(np.diag([3.0, 2.0]),
                                             start=np.array([0.0, 1.0]))
        assert sigma == pytest.approx(3.0, rel=1e-12)
        assert iters >= 2

    def test_warm_start_beats_cold_start(self):
        rng = PortableRng(11)
        a = gaussian_matrix(300, 300, 1.0, rng)
        _, vec, _, cold = power_iteration(a, tol=1e-10)
        nudged = a + 1e-4 * gaussian_matrix(300, 300, 1.0, rng)
        _, _, _, cold_nudged = power_iteration(nudged, tol=1e-10)
        sigma, _, _, warm = power_iteration(nudged, tol=1e-10, start=vec)
        assert warm < cold_nudged
        assert sigma == pytest.approx(np.linalg.norm(nudged, 2), rel=1e-8)

    def test_first_step_is_a_power_step(self):
        a = PortableRng(13).normals(48).reshape(8, 6)
        v = PortableRng(14).normals(6)
        v /= np.linalg.norm(v)
        u = a.T @ (a @ v)
        lam = v @ u
        sigma, _, residual, iters = power_iteration(a, tol=1e6, start=v)
        assert iters == 1
        assert sigma ** 2 == pytest.approx(lam, rel=1e-14)
        assert residual == pytest.approx(np.linalg.norm(u - lam * v) / lam,
                                         rel=1e-12)


class TestLazyChecks:
    """The input checks that run only when a cycle's first product is off."""

    @pytest.mark.parametrize("entry", [np.inf, -np.inf])
    def test_infinite_entry_raises(self, entry):
        a = PortableRng(17).normals(30).reshape(5, 6)
        a[3, 2] = entry
        with pytest.raises(ValueError, match="non-finite"):
            power_iteration(a)

    def test_zero_matrix_with_zero_start(self):
        sigma, vec, residual, iters = power_iteration(np.zeros((7, 5)),
                                                      start=np.zeros(5))
        assert (sigma, residual, iters) == (0.0, 0.0, 0)
        assert np.array_equal(vec, np.zeros(5))

    def test_zero_start_reseeds(self):
        a = PortableRng(19).normals(63).reshape(9, 7)
        sigma, _, _, _ = power_iteration(a, tol=1e-12, start=np.zeros(7))
        assert sigma == pytest.approx(np.linalg.norm(a, 2), rel=1e-10)


class TestSweepBlocks:
    """The one-sweep product over several row blocks of `a`."""

    @pytest.mark.parametrize("shape", [
        # 2, 3 and 5 full row blocks plus a partial one, then single rows
        *[(blocks * (_SWEEP_BYTES // (8 * cols)) + 17, cols)
          for cols, blocks in ((200, 2), (1000, 3), (3000, 5))],
        (1, 1), (1, 3), (1, 5000)], ids=lambda shape: "%dx%d" % shape)
    def test_matches_dense(self, shape):
        a = np.random.default_rng(shape[1]).standard_normal(shape)
        sigma, _, _, _ = power_iteration(a, tol=1e-12)
        dense = np.linalg.norm(a, 2)
        assert sigma == pytest.approx(dense, rel=1e-12)
        assert sigma <= dense * (1.0 + 1e-12)


class TestGaussianMatrix:
    def test_deterministic(self):
        a = gaussian_matrix(7, 5, 0.5, PortableRng(99))
        b = gaussian_matrix(7, 5, 0.5, PortableRng(99))
        assert np.array_equal(a, b)

    def test_column_norm_expectation(self):
        # variance 2/cols per entry => E||column||^2 = 2 * rows / cols
        rows, cols = 400, 50
        w = gaussian_matrix(rows, cols, 2.0 / cols, PortableRng(11))
        mean_sq = float(np.mean(np.sum(w * w, axis=0)))
        assert mean_sq == pytest.approx(2.0 * rows / cols, rel=0.1)

    def test_law_of_large_numbers(self):
        n = 10_000
        sample = gaussian_matrix(n, 1, 1.0, PortableRng(2024)).ravel()
        assert abs(sample.mean()) <= 4.0 / np.sqrt(n)
        assert sample.var() == pytest.approx(1.0, rel=0.05)

    def test_rejects_bad_args(self):
        rng = PortableRng(0)
        with pytest.raises(ValueError):
            gaussian_matrix(0, 3, 1.0, rng)
        with pytest.raises(ValueError):
            gaussian_matrix(3, 0, 1.0, rng)
        with pytest.raises(ValueError):
            gaussian_matrix(3, 3, 0.0, rng)

    @pytest.mark.parametrize("variance", [np.inf, np.nan])
    def test_rejects_non_finite_variance(self, variance):
        with pytest.raises(ValueError, match="^variance must be positive and finite"):
            gaussian_matrix(3, 3, variance, PortableRng(0))

    def test_pure_function_of_seed(self):
        a = gaussian_matrix(4, 4, 2.0, PortableRng(5))
        rng = PortableRng(5)
        b = gaussian_matrix(4, 4, 2.0, rng)
        c = gaussian_matrix(4, 4, 2.0, rng)  # stream moved on
        assert np.array_equal(a, b)
        assert not np.array_equal(b, c)


def per_index_sample(rng, population, size):
    """Reference partial Fisher-Yates: one integer_below call per index."""
    pool = np.arange(population)
    for i in range(size):
        j = i + integer_below(rng, population - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:size].copy()


class ScriptedBits:
    """Stand-in bit generator that replays a fixed list of raw outputs."""

    def __init__(self, values):
        self.values = list(values)
        self.pos = 0

    def random_raw(self, count):
        out = self.values[self.pos:self.pos + count]
        self.pos += count
        return np.array(out, dtype=np.uint64)


def scripted_rng(values):
    rng = PortableRng(0)
    rng._bits = ScriptedBits(values)
    return rng


class TestPortableRng:
    def test_deterministic_streams(self):
        a, b = PortableRng(31337), PortableRng(31337)
        assert np.array_equal(a.raw(16), b.raw(16))
        assert np.array_equal(a.normals(9), b.normals(9))
        assert np.array_equal(a.uniforms(5), b.uniforms(5))

    def test_uniform_range(self):
        u = PortableRng(1).uniforms(10_000)
        assert np.all((u >= 0.0) & (u < 1.0))

    def test_advance_skips_raws(self):
        a, b = PortableRng(8), PortableRng(8)
        a.raw(6)
        b.advance(6)
        assert np.array_equal(a.raw(4), b.raw(4))

    def test_odd_normal_draw_consumes_fixed_raws(self):
        a, b = PortableRng(4), PortableRng(4)
        a.normals(3)   # consumes 4 raws
        b.raw(4)
        assert np.array_equal(a.raw(2), b.raw(2))

    def test_sample_without_replacement(self):
        rng = PortableRng(99)
        for _ in range(50):
            s = rng.sample_without_replacement(10, 4)
            assert len(set(s.tolist())) == 4
            assert np.all((s >= 0) & (s < 10))

    def test_integer_below_bounds(self):
        rng = PortableRng(17)
        draws = [integer_below(rng, 7) for _ in range(200)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7

    @pytest.mark.parametrize("population, size", [
        (0, 0), (1, 0), (1, 1), (7, 0), (7, 3), (7, 7), (40, 10), (40, 40),
        (1000, 8), (100_003, 5)])
    def test_sample_matches_per_index_draws(self, population, size):
        for seed in range(20):
            ref, fast = PortableRng(seed), PortableRng(seed)
            expected = per_index_sample(ref, population, size)
            got = fast.sample_without_replacement(population, size)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
            assert ref.raw(1)[0] == fast.raw(1)[0]

    def test_rejected_draw_falls_back_to_per_index_draws(self):
        # 2**64 % 5 == 1, so the first draw, 2**64 - 1, is rejected for
        # bound 5; later bounds 4, 2 and 1 divide 2**64 and reject nothing
        top = 2 ** 64 - 1
        script = [top, 11, 22, 33, top, 44, 55, 66]
        for population, size in [(5, 3), (5, 5)]:
            ref, fast = scripted_rng(script), scripted_rng(script)
            expected = per_index_sample(ref, population, size)
            got = fast.sample_without_replacement(population, size)
            assert np.array_equal(got, expected)
            assert fast._bits.pos == ref._bits.pos > size


class TestNormalChunks:
    """normals in chunks of _NORMAL_CHUNK raws against one Box-Muller pass."""

    @pytest.mark.parametrize("count", [
        1, 2, _NORMAL_CHUNK - 1, _NORMAL_CHUNK, _NORMAL_CHUNK + 1,
        2 * _NORMAL_CHUNK + 6, 3 * _NORMAL_CHUNK + 7])
    def test_chunks_match_one_pass(self, count):
        for seed in (0, 77):
            fast, ref = PortableRng(seed), PortableRng(seed)
            fast.raw(3)   # start mid-stream, off a pair boundary
            ref.raw(3)
            got = fast.normals(count)
            want = box_muller(ref, count)
            assert got.shape == (count,)
            assert got.tobytes() == want.tobytes()
            assert fast.raw(1)[0] == ref.raw(1)[0]

    def test_gaussian_matrix_scales_one_pass(self):
        got = gaussian_matrix(3, _NORMAL_CHUNK // 3 + 5, 0.3, PortableRng(6))
        want = box_muller(PortableRng(6), got.size) * np.sqrt(0.3)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (1000, 1000), (10, 1000)])
def test_aligned_empty_starts_on_a_cache_line(shape):
    a = aligned_empty(shape)
    assert a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
    assert a.ctypes.data % 64 == 0
    a[...] = 1.0   # writable over its whole extent
