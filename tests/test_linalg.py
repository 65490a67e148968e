import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overparam import linalg
from overparam.linalg import (_LANCZOS_CYCLE, _NORMAL_CHUNK, _SINGLE_RANGE,
                              _SINGLE_TOL, _SWEEP_BYTES, THIN_SIDE, PortableRng,
                              Rounded, SpectralNormError, _lanczos, _peak,
                              _sweep_gram, aligned_empty,
                              gaussian_matrix, power_iteration, spectral_norm,
                              thin_norms)

from oracles import box_muller, integer_below

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
dims = st.integers(min_value=1, max_value=40)
examples = settings(max_examples=60, deadline=None, derandomize=True)


def padded(a):
    """`a` zero-padded to at least ``THIN_SIDE + 1`` along every axis, so a
    matrix takes the Lanczos path; its singular values, and a vector's
    products with it, do not change."""
    a = np.asarray(a, dtype=np.float64)
    out = np.zeros(tuple(max(n, THIN_SIDE + 1) for n in a.shape))
    out[tuple(slice(0, n) for n in a.shape)] = a
    return out


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
        a = padded(rng.normals(36).reshape(6, 6))
        base = spectral_norm(a)
        for c in (-2.5, 0.3, 7.0):
            assert spectral_norm(c * a) == pytest.approx(abs(c) * base, rel=1e-8)
        # ||A^T A q||^2 underflows or overflows: the rescaled re-solve
        dense = np.linalg.norm(a, 2)
        for c in (1e-100, 1e-80, 1e100, 1e300):
            assert spectral_norm(c * a, tol=1e-12) == pytest.approx(c * dense, rel=1e-12)


def diagonal_batch(dim=40):
    """Diagonal PSD operators with top eigenvalue 1 and gaps from 0.9 down to
    0.002 below it, in mixed order, and their start rows."""
    gaps = (0.9, 0.002, 0.3, 0.01, 0.05)
    diags = np.array([np.concatenate(([1.0], np.linspace(1.0 - g, 0.0, dim - 1)))
                      for g in gaps])
    return diags, PortableRng(23).normals(len(gaps) * dim).reshape(len(gaps), dim)


def recording(diags, calls):
    """A `_lanczos` product with the operators `diags` that appends each
    call's `ids` to `calls`; row r's product depends on row r alone."""
    def gram(rows, ids):
        calls.append(ids.copy())
        return rows * diags[ids]
    return gram


def solo(diags, start, i, tol, max_iter=10_000):
    """`_lanczos` on operator i alone, from its own start row."""
    return _lanczos(recording(diags[i:i + 1], []), start[i:i + 1], tol, max_iter)


class TestLanczos:
    """power_iteration against dense SVD norms, and `_lanczos` stopping each
    operator of a batch at its own tolerance: a row gets the values and the
    product count of its solve alone."""

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

    @pytest.mark.parametrize("shape", [(THIN_SIDE + 1, 1000), (1000, THIN_SIDE + 1)])
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
        a = padded(np.diag([3.0, 2.0, 0.0, 0.0]))
        sigma, _, _, iters = power_iteration(
            a, start=padded(np.array([0.0, 0.0, 1.0, 1.0])))
        assert sigma == pytest.approx(3.0, rel=1e-12)
        assert sigma == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
        assert iters >= 2    # the null-space step counts

    def test_eigenvector_start_reseeds(self):
        # the start e_2 breaks down at once on the eigenvalue 2**2
        a = padded(np.diag([3.0, 2.0]))
        sigma, _, _, iters = power_iteration(a, start=padded(np.array([0.0, 1.0])))
        assert sigma == pytest.approx(3.0, rel=1e-12)
        assert sigma == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
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

    def test_first_step_is_a_power_step(self, monkeypatch):
        # tol 1e6 stops at the first step; with the float32 floor above it
        # the product is float64
        monkeypatch.setattr(linalg, "_SINGLE_TOL", np.inf)
        a = padded(PortableRng(13).normals(48).reshape(8, 6))
        v = padded(PortableRng(14).normals(6))
        v /= np.linalg.norm(v)
        u = a.T @ (a @ v)
        lam = v @ u
        sigma, _, residual, iters = power_iteration(a, tol=1e6, start=v)
        assert iters == 1
        assert sigma ** 2 == pytest.approx(lam, rel=1e-14)
        assert residual == pytest.approx(np.linalg.norm(u - lam * v) / lam,
                                         rel=1e-12)

    def test_first_float32_step_is_a_power_step(self):
        # the float32 twin: one product with the float32 copy of a / 2**e
        a = padded(PortableRng(13).normals(48).reshape(8, 6))
        v = padded(PortableRng(14).normals(6))
        v /= np.linalg.norm(v)
        copy, e, _ = Rounded(a).single
        u = ((copy @ v.astype(np.float32)) @ copy).astype(np.float64)
        lam = v @ u
        sigma, _, residual, iters = power_iteration(a, tol=1e6, start=v)
        assert iters == 1
        assert sigma ** 2 == pytest.approx(np.ldexp(lam, 2 * e), rel=1e-14)
        assert residual == pytest.approx(np.linalg.norm(u - lam * v) / lam,
                                         rel=1e-12)

    def test_each_row_matches_its_solve_alone(self):
        diags, start = diagonal_batch()
        calls = []
        theta, vectors, residual, iters = _lanczos(recording(diags, calls), start, 1e-8)
        counts = []
        for i in range(len(start)):
            alone = solo(diags, start, i, 1e-8)
            assert theta[i] == pytest.approx(alone[0][0], rel=1e-12)
            assert np.linalg.norm(vectors[i] - alone[1][0]) <= 1e-12
            assert residual[i] == pytest.approx(alone[2][0], rel=1e-12)
            # the row takes its own products, and none after it met tol
            assert [i in ids for ids in calls] == \
                [True] * alone[3] + [False] * (iters - alone[3])
            counts.append(alone[3])
        assert len(set(counts)) == len(counts)   # the rows stop at different steps
        assert iters == len(calls) == max(counts)
        assert sum(len(ids) for ids in calls) == sum(counts)

    def test_ids_ascend_and_only_shrink(self):
        diags, start = diagonal_batch()
        calls = []
        _lanczos(recording(diags, calls), start, 1e-8)
        assert np.array_equal(calls[0], np.arange(len(start)))
        for ids, later in zip(calls, calls[1:]):
            assert np.all(np.diff(ids) > 0)
            assert set(later) <= set(ids)

    def test_zero_start_row_stops_at_its_first_product(self):
        diags, start = diagonal_batch()
        start[1] = 0.0
        calls = []
        theta, vectors, residual, _ = _lanczos(recording(diags, calls), start, 1e-8)
        assert 1 in calls[0]
        assert all(1 not in ids for ids in calls[1:])
        assert (theta[1], residual[1]) == (0.0, 0.0)
        assert not vectors[1].any()

    def test_cap_reports_the_callers_worst_row(self):
        diags, start = diagonal_batch()
        cap, last = 20, []
        for i in range(len(start)):
            try:
                theta, vec, res, _ = solo(diags, start, i, 1e-8, max_iter=cap)
                last.append((res[0], np.sqrt(theta[0]), vec[0]))
            except SpectralNormError as err:
                last.append((err.residual, err.sigma, err.vector))
        worst = int(np.argmax([res for res, _, _ in last]))
        # row 0 stops before the cap, so the worst row has moved forward
        assert last[0][0] <= 1e-8 and worst > 0
        with pytest.raises(SpectralNormError) as info:
            _lanczos(recording(diags, []), start, 1e-8, max_iter=cap)
        err = info.value
        assert err.iterations == cap
        assert err.residual == pytest.approx(last[worst][0], rel=1e-12)
        assert err.sigma == pytest.approx(last[worst][1], rel=1e-12)
        assert np.linalg.norm(err.vector - last[worst][2]) <= 1e-12

    def test_non_finite_row_ends_the_solve(self):
        diags, start = diagonal_batch()
        calls = []
        plain = recording(diags, calls)

        def gram(rows, ids):
            out = plain(rows, ids)
            # the first product of the second cycle, after row 0 has stopped
            # at 7 products
            if len(calls) == _LANCZOS_CYCLE + 1:
                out[ids == 3] = np.nan
            return out

        theta, vectors, residual, iters = _lanczos(gram, start, 1e-8)
        alone = solo(diags, start, 0, 1e-8)
        assert iters == _LANCZOS_CYCLE + 1
        # the stopped row keeps its values; the others are unconverged
        assert theta[0] == pytest.approx(alone[0][0], rel=1e-12)
        assert residual[0] == pytest.approx(alone[2][0], rel=1e-12)
        assert np.linalg.norm(vectors[0] - alone[1][0]) <= 1e-12
        assert theta[3] == np.inf
        assert np.all(np.isfinite(theta[[1, 2, 4]]))

    def test_nan_inside_a_cycle_reads_inf(self):
        # row 1's 5th product turns NaN, at a step whose projection would go
        # to eigh; row 0 keeps the values of its last finished cycle, here
        # those of its start
        diags = np.array([np.linspace(1.0, 0.0, 30), np.linspace(2.0, 0.5, 30)])
        start = np.ones((2, 30))
        calls = []
        plain = recording(diags, calls)

        def gram(rows, ids):
            out = plain(rows, ids)
            if len(calls) == 5:
                out[ids == 1] = np.nan
            return out

        theta, vectors, residual, iters = _lanczos(gram, start, 1e-8)
        assert iters == 5
        assert theta[1] == np.inf
        assert (theta[0], residual[0]) == (0.0, np.inf)
        np.testing.assert_allclose(vectors[0], start[0] / np.sqrt(30), rtol=1e-15)


def training_pair(rows=1000, cols=1000, rank=8):
    """(w, w0): a Gaussian weight w0 and w0 plus a rank-`rank` update, the
    form of a GD difference over `rank` examples."""
    rng = PortableRng(31)
    w0 = gaussian_matrix(rows, cols, 2.0 / cols, rng)
    update = gaussian_matrix(rows, rank, 1.0, rng) @ gaussian_matrix(rank, cols, 1.0, rng)
    return w0 + 1e-4 * update, w0


class TestSinglePrecision:
    """The float32 copies (`Rounded.single`), the `Rounded` operand and
    power_iteration's float32 path from ``_SINGLE_TOL`` on, against dense
    norms and its float64 path."""

    def test_copy_is_the_rounded_exact_scaling(self):
        a = gaussian_matrix(40, 30, 1.0, PortableRng(3))
        copy, e, peak = Rounded(a).single
        assert copy.dtype == np.float32
        assert peak == np.abs(a).max() and e == np.frexp(peak)[1]
        assert np.array_equal(copy, np.ldexp(a, -e).astype(np.float32))
        assert np.abs(copy).max() < 1.0

    @pytest.mark.parametrize("k", [-340, -1, 1, 300, 990])
    def test_copies_follow_exact_scaling(self, k):
        # 2**k on the matrix (and on both of a pair) gives the same copy,
        # also with entries near 1e298, past float32's range
        w, w0 = training_pair(300, 200)
        for pair in ((w, None), (w, w0)):
            base, e, peak = Rounded(*pair).single
            scaled = [None if x is None else np.ldexp(x, k) for x in pair]
            copy, ek, pk = Rounded(*scaled).single
            assert np.array_equal(copy, base) and ek == e + k and pk == np.ldexp(peak, k)
            assert np.all(np.isfinite(copy)) and np.abs(copy).max() < 1.0

    def test_subnormal_peak_keeps_its_scaling_a_float(self):
        # max|a| below 2**-1024, where 2**-e would overflow: e stays at -1023
        a = np.ldexp(gaussian_matrix(40, 30, 1.0, PortableRng(3)), -1060)
        copy, e, peak = Rounded(a).single
        assert e == -1023 and peak == np.abs(a).max()
        assert np.array_equal(copy, np.ldexp(a, 1023).astype(np.float32))

    def test_difference_copy_across_row_blocks(self):
        # 3 row blocks of the float64 difference and a partial one
        rows = 3 * (_SWEEP_BYTES // (8 * 300)) + 17
        w, w0 = training_pair(rows, 300)
        # the exponent is the difference's own, from its peak over the blocks
        copy, e, peak = Rounded(w, w0).single
        assert peak == np.abs(w - w0).max() and e == np.frexp(peak)[1]
        assert np.array_equal(copy, np.ldexp(w - w0, -e).astype(np.float32))
        assert 0.5 <= np.abs(copy).max() <= 1.0

    def test_norms_match_dense_at_the_floor(self):
        # a (1000, 1000) Gaussian weight and a training difference
        w, w0 = training_pair()
        assert spectral_norm(w0, tol=_SINGLE_TOL) == pytest.approx(
            np.linalg.norm(w0, 2), rel=1e-6)
        assert spectral_norm(Rounded(w, w0), tol=_SINGLE_TOL) == pytest.approx(
            np.linalg.norm(w - w0, 2), rel=1e-6)

    def test_below_the_floor_a_pair_is_its_float64_difference(self):
        w, w0 = training_pair(200, 300)
        pair = power_iteration(Rounded(w, w0), tol=1e-10)
        diff = power_iteration(w - w0, tol=1e-10)
        assert pair[0] == diff[0] and np.array_equal(pair[1], diff[1])
        assert pair[2:] == diff[2:]

    @pytest.mark.parametrize("tol", [1e-10, 1e-3])
    @pytest.mark.parametrize("cols", [THIN_SIDE, 300])
    def test_equal_pair_reads_zero(self, tol, cols):
        w = gaussian_matrix(200, cols, 1.0, PortableRng(4))
        sigma, vec, residual, iters = power_iteration(Rounded(w, w.copy()), tol=tol)
        assert (sigma, residual, iters) == (0.0, 0.0, 0)
        assert np.array_equal(vec, np.zeros(cols))

    def test_pair_shapes_must_match(self):
        w = np.ones((20, 30))
        with pytest.raises(ValueError, match="pair shapes"):
            Rounded(w, np.ones((30, 20)))

    def test_tuple_operand_raises(self):
        # a pair is a `Rounded`; a tuple of two matrices is no operand
        w, w0 = training_pair(200, 300)
        with pytest.raises(ValueError, match="2-d matrix"):
            power_iteration((w, w0), tol=1e-3)

    @pytest.mark.parametrize("side", ["a", "b", "both"])
    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_non_finite_pair_raises_before_any_product(self, monkeypatch, side, entry):
        w, w0 = training_pair(200, 300)
        for x in {"a": [w], "b": [w0], "both": [w, w0]}[side]:
            x[7, 11] = entry
        calls = []
        monkeypatch.setattr(linalg, "_lanczos", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="non-finite"):
            power_iteration(Rounded(w, w0), tol=1e-3)
        assert calls == []

    @pytest.mark.parametrize("k", [-72, -150])
    def test_difference_near_float32_bottom_is_solved_in_float32(self, monkeypatch, k):
        # the difference sits 2**k below the pair's peak.  Its copy takes
        # the difference's own exponent, so its Gram products stay far from
        # float32's subnormals, and every one of them is float32.
        w0 = np.zeros((200, 300))
        w0[0, 0] = 1.0
        w = w0 + np.ldexp(gaussian_matrix(200, 300, 1.0, PortableRng(8)), k)
        w[0, 0] = 1.0
        dense = np.linalg.norm(w - w0, 2)
        assert 0.0 < dense < 2.0 ** (k + 6)
        dtypes = []

        def sweep(a):
            dtypes.append(a.dtype)
            return _sweep_gram(a)

        monkeypatch.setattr(linalg, "_sweep_gram", sweep)
        assert spectral_norm(Rounded(w, w0), tol=_SINGLE_TOL) == pytest.approx(
            dense, rel=1e-6, abs=0)
        assert dtypes == [np.float32]

    def test_float32_sweep_returns_float64(self):
        a = gaussian_matrix(300, 200, 1.0, PortableRng(5))
        copy, _, _ = Rounded(a).single
        q = PortableRng(6).normals(200)[None]
        w = _sweep_gram(copy)(q, np.arange(1))
        assert w.dtype == np.float64 and w.shape == (1, 200)
        ref = (copy @ q[0].astype(np.float32)) @ copy
        np.testing.assert_allclose(w[0], ref, rtol=1e-5)

    def test_range_bound_sits_inside_float32(self):
        assert np.float32(_SINGLE_RANGE) < np.finfo(np.float32).max / 2 ** 20
        assert np.float32(1.0 / _SINGLE_RANGE) > np.finfo(np.float32).tiny * 2 ** 20


class TestPairStream:
    """A pair's float64 products form its difference a row block at a time
    (`Rounded.blocks`), on the row blocks of the difference itself, so they
    have the bits of the difference's products, and so has every solve.  A
    difference past the float range is taken on the pair's exact scaling."""

    @pytest.mark.parametrize("shape", [
        # 3 full row blocks and a partial one; one-row blocks
        (3 * (_SWEEP_BYTES // (8 * 300)) + 17, 300),
        (THIN_SIDE + 1, _SWEEP_BYTES // 16 + 1)], ids=lambda shape: "%dx%d" % shape)
    def test_streamed_products_are_the_differences(self, shape):
        w, w0 = training_pair(*shape)
        op = Rounded(w, w0)
        # one-row blocks, or a partial last block
        assert (op.rows == 1) != (shape[0] % op.rows != 0)
        pair, dense = _sweep_gram(op), _sweep_gram(w - w0)
        rng = PortableRng(41)
        for _ in range(3):
            q = rng.normals(shape[1])[None]
            assert np.array_equal(pair(q, np.arange(1)), dense(q, np.arange(1)))

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_pair_solve_is_the_differences(self, warm):
        w, w0 = training_pair(3 * (_SWEEP_BYTES // (8 * 300)) + 17, 300)
        start = None
        if warm:   # the vector of the last iterate's solve, as in training
            start = power_iteration(w - w0, tol=1e-5)[1]
            w = w + 1e-6 * gaussian_matrix(*w.shape, 1.0, PortableRng(43))
        pair = power_iteration(Rounded(w, w0), tol=1e-5, start=start)
        diff = power_iteration(w - w0, tol=1e-5, start=start)
        assert pair[0] == diff[0] and np.array_equal(pair[1], diff[1])
        assert pair[2:] == diff[2:]
        assert pair[3] > 0

    @pytest.mark.parametrize("k", [0, -600, 600])
    def test_pair_re_solve_is_the_differences(self, k):
        # a zero start ends the first solve at its first product; the
        # re-solve multiplies with the difference's exact scaling
        w, w0 = (np.ldexp(x, k) for x in training_pair(300, 200))
        zero = np.zeros(200)
        pair = power_iteration(Rounded(w, w0), tol=1e-5, start=zero)
        diff = power_iteration(w - w0, tol=1e-5, start=zero)
        assert pair[0] == diff[0] and np.array_equal(pair[1], diff[1])
        assert pair[2:] == diff[2:]
        peak, e = _peak(w - w0)
        fresh = PortableRng(linalg._START_SEED + 1).normals(200)
        theta, vec, residual, its = _lanczos(_sweep_gram(np.ldexp(w - w0, -e)),
                                             fresh[None], 1e-5)
        assert pair[0] == float(np.ldexp(np.sqrt(theta[0]), e))
        assert np.array_equal(pair[1], vec[0])
        assert pair[2:] == (float(residual[0]), its + 1)

    @pytest.mark.parametrize("tol", [1e-10, 1e-3])
    @pytest.mark.parametrize("rows", [10, 20], ids=["thin", "wide"])
    def test_difference_past_the_float_range_reads_inf(self, rows, tol):
        # finite matrices whose difference overflows float64: no overflow
        # warning (an error under this suite's filter), and the norm of
        # (a - b) / 2**1024 scaled back past the range
        a = np.full((rows, 30), 1e308)
        op = Rounded(a, -a)
        sigma, vec, _, _ = power_iteration(op, tol=tol)
        assert sigma == np.inf
        np.testing.assert_allclose(np.abs(vec), np.full(30, 30 ** -0.5), rtol=1e-6)
        assert op.scaling == (np.inf, 1025) and op.shift == 1024
        copy, e, peak = Rounded(a, -a).single
        assert (e, peak) == (1025, np.inf) and np.all(copy == np.float32(np.ldexp(1e308, -1024)))

    @pytest.mark.parametrize("tol", [1e-10, 1e-3])
    @pytest.mark.parametrize("rows", [10, 20], ids=["thin", "wide"])
    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_non_finite_entry_of_an_overflowing_pair_raises(self, rows, tol, entry):
        a = np.full((rows, 30), 1e308)
        b = -a
        b[3, 4] = entry
        with pytest.raises(ValueError, match="non-finite"):
            power_iteration(Rounded(a, b), tol=tol)


class TestLazyChecks:
    """The input checks that run only when a cycle's first product is off
    (the matrices are past the thin rule)."""

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_infinite_entry_raises(self, entry):
        a = padded(PortableRng(17).normals(30).reshape(5, 6))
        a[3, 2] = entry
        with pytest.raises(ValueError, match="non-finite"):
            power_iteration(a)

    def test_zero_matrix_with_zero_start(self):
        shape = (THIN_SIDE + 3, THIN_SIDE + 1)
        sigma, vec, residual, iters = power_iteration(np.zeros(shape),
                                                      start=np.zeros(shape[1]))
        assert (sigma, residual, iters) == (0.0, 0.0, 0)
        assert np.array_equal(vec, np.zeros(shape[1]))

    def test_zero_start_reseeds(self):
        a = padded(PortableRng(19).normals(63).reshape(9, 7))
        sigma, _, _, iters = power_iteration(a, tol=1e-12, start=np.zeros(a.shape[1]))
        assert iters > 0
        assert sigma == pytest.approx(np.linalg.norm(a, 2), rel=1e-10)


class TestPeak:
    """max|a| and its binary exponent, of a matrix or of each of a stack."""

    @pytest.mark.parametrize("a", [
        [[0.0, -0.0], [0.0, 0.0]], [[5e-324, 0.0]], [[1e308, 1.0]],
        [[1.0, -1e308]], [[0.5, -3.0], [2.0, 1.0]]],
        ids=["zero", "subnormal", "1e308", "-1e308", "negative"])
    def test_finite_matrix_matches_abs_max(self, a):
        a = np.array(a)
        peak, e = _peak(a)
        assert peak == np.abs(a).max()
        assert e == np.frexp(np.abs(a).max())[1]

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, entry):
        a = np.ones((3, 4))
        a[1, 2] = entry
        peak, e = _peak(a)
        assert np.isnan(peak) if np.isnan(entry) else peak == np.inf
        assert e == 0

    def test_stack_takes_each_matrix(self):
        stack = np.array([np.zeros((2, 3)), [[0.25, -6.0, 1.0], [2.0, 0.0, 3.0]],
                          [[1.0, np.nan, 2.0], [0.0, 0.0, 0.0]]])
        peak, e = _peak(stack)
        assert peak.shape == e.shape == (3,)
        assert (peak[0], e[0]) == (0.0, 0)
        assert (peak[1], e[1]) == (6.0, np.frexp(6.0)[1])
        assert np.isnan(peak[2]) and e[2] == 0


class TestSweepBlocks:
    """The one-sweep product over several row blocks of `a`."""

    @pytest.mark.parametrize("shape", [
        # 2, 3 and 5 full row blocks plus a partial one, then single rows
        # zero-padded past the thin rule
        *[(blocks * (_SWEEP_BYTES // (8 * cols)) + 17, cols)
          for cols, blocks in ((200, 2), (1000, 3), (3000, 5))],
        (1, 1), (1, 3), (1, 5000)], ids=lambda shape: "%dx%d" % shape)
    def test_matches_dense(self, shape):
        a = padded(np.random.default_rng(shape[1]).standard_normal(shape))
        sigma, _, _, iters = power_iteration(a, tol=1e-12)
        assert iters > 0
        dense = np.linalg.norm(a, 2)
        assert sigma == pytest.approx(dense, rel=1e-12)
        assert sigma <= dense * (1.0 + 1e-12)


class TestThinRule:
    """A matrix whose short side is at most THIN_SIDE: exact norms from its
    Gram matrix, no Lanczos product."""

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("rows", [1, THIN_SIDE, THIN_SIDE + 1])
    @pytest.mark.parametrize("tall", [False, True], ids=["wide", "tall"])
    def test_matches_dense(self, rows, tall, scale):
        base = np.random.default_rng(rows).standard_normal((rows, 300))
        if tall:
            base = base.T
        a = scale * base
        sigma, vec, residual, iters = power_iteration(a, tol=1e-12)
        dense = np.linalg.norm(a, 2)
        assert sigma == pytest.approx(dense, rel=1e-12)
        # the right vector is a unit top singular vector (taken on the
        # unscaled matrix, whose squares do not overflow)
        assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(base @ vec) == pytest.approx(dense / scale, rel=1e-12)
        if rows <= THIN_SIDE:
            assert (residual, iters) == (0.0, 0)
        else:
            assert iters > 0     # 17 rows take Lanczos

    @pytest.mark.parametrize("shape", [(3, 40), (40, 3)])
    def test_zero_matrix(self, shape):
        sigma, vec, residual, iters = power_iteration(np.zeros(shape))
        assert (sigma, residual, iters) == (0.0, 0.0, 0)
        assert np.array_equal(vec, np.zeros(shape[1]))

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("shape", [(3, 40), (40, 3)])
    def test_non_finite_entry_raises(self, shape, entry):
        a = PortableRng(23).normals(120).reshape(shape)
        a[1, 2] = entry
        with pytest.raises(ValueError, match="non-finite"):
            power_iteration(a)

    @pytest.mark.parametrize("rows", [3, THIN_SIDE + 1])
    def test_norm_past_the_float_range_is_inf(self, rows):
        # on both paths, with no overflow warning
        sigma, _, _, iters = power_iteration(np.full((rows, 40), 1e308))
        assert sigma == np.inf
        assert (iters == 0) == (rows <= THIN_SIDE)

    def test_stack_reads_each_matrix(self):
        # a stack of four (5, 40) matrices: two finite, one zero, one with
        # a NaN entry
        stack = PortableRng(29).normals(4 * 5 * 40).reshape(4, 5, 40)
        stack[1] *= 1e-200
        stack[2] = 0.0
        stack[3, 4, 0] = np.nan
        sigma, vecs = thin_norms(stack)
        for i in (0, 1):
            assert sigma[i] == pytest.approx(np.linalg.norm(stack[i], 2), rel=1e-12)
            assert sigma[i] == power_iteration(stack[i])[0]
        assert sigma[2] == 0.0 and sigma[3] == np.inf
        assert not vecs[2:].any()


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


    @pytest.mark.parametrize("population, size, count", [
        (0, 0, 2), (7, 0, 3), (1, 1, 4), (7, 3, 5), (7, 7, 2), (1000, 8, 64),
        (40, 39, 3), (100_003, 5, 1)])
    def test_samples_and_normals_match_per_round_draws(self, population, size, count):
        for seed in range(5):
            ref, fast = PortableRng(seed), PortableRng(seed)
            rounds = [(ref.sample_without_replacement(population, size),
                       ref.normals(size)) for _ in range(count)]
            samples, normals = fast.samples_and_normals(population, size, count)
            assert samples.dtype == np.intp and samples.shape == normals.shape
            assert samples.shape == (count, size)
            for (want_s, want_n), got_s, got_n in zip(rounds, samples, normals):
                assert np.array_equal(got_s, want_s)
                assert got_n.tobytes() == want_n.tobytes()
            assert ref.raw(1)[0] == fast.raw(1)[0]


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
