import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overparam.data import generate_separated
from overparam.linalg import PortableRng, gaussian_matrix
from overparam.losses import LossSpec, builtin_loss
from overparam.network import (CorruptCheckpointError, batch_forward,
                               checkpoint_header, gradient_factors,
                               gradient_norms, init_network, load_params,
                               max_pattern_distance, save_params)

from oracles import batch_loss, loss_gradient, output_telescope

LOG2 = 0.6931471805599453


def scalar_forward(params, x):
    """Pure-python scalar-loop re-implementation of the forward pass."""
    h = [float(v) for v in x]
    for w in params.weights:
        rows, cols = w.shape
        nxt = []
        for j in range(cols):
            z = 0.0
            for i in range(rows):
                z += w[i, j] * h[i]
            nxt.append(z if z > 0.0 else 0.0)
        h = nxt
    return sum(float(v) * hj for v, hj in zip(params.output_vector, h))


def random_net(seed, dims=None):
    rng = PortableRng(seed)
    if dims is None:
        d = 2 + int(rng.uniforms(1)[0] * 4)
        depth = 1 + int(rng.uniforms(1)[0] * 3)
        width = 2 * (1 + int(rng.uniforms(1)[0] * 12))
        dims = [d] + [width] * depth
    return init_network(dims, seed + 1)


def zero_deriv_loss():
    return LossSpec(name="flat", value=lambda x: np.ones_like(np.asarray(x, float)),
                    deriv=lambda x: np.zeros_like(np.asarray(x, float)),
                    second_deriv=lambda x: np.zeros_like(np.asarray(x, float)),
                    p=1.0, alpha0=np.inf, alpha1=1.0, rho0=np.inf, rho1=1.0, lam=1.0)


class TestInit:
    def test_small_net_matches_stream_and_signs(self):
        params = init_network([2, 2], seed=12)
        expected = gaussian_matrix(2, 2, 2.0 / 2, PortableRng(12))
        assert np.array_equal(params.weights[0], expected)
        assert np.array_equal(params.output_vector, np.array([1.0, -1.0]))

    def test_deterministic(self):
        a = init_network([3, 10, 4], seed=7)
        b = init_network([3, 10, 4], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert np.array_equal(a.output_vector, b.output_vector)

    def test_column_norm_scaling(self):
        params = init_network([3, 100, 100, 4], seed=5)
        w2 = params.weights[1]  # 100 x 100, column variance 2/100
        mean_sq = float(np.mean(np.sum(w2 * w2, axis=0)))
        assert mean_sq == pytest.approx(2.0 * 100 / 100, rel=0.1)

    def test_odd_output_width_rejected(self):
        with pytest.raises(ValueError):
            init_network([4, 8, 5], seed=0)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            init_network([4], seed=0)
        with pytest.raises(ValueError):
            init_network([4, 0, 2], seed=0)


def forward_one(params, x):
    """batch_forward of a single input, as a one-row batch."""
    return batch_forward(params, np.asarray(x, dtype=np.float64)[None, :])


class TestForward:
    def test_zero_input(self):
        params = random_net(3)
        trace = forward_one(params, np.zeros(params.layer_dims[0]))
        assert trace.outputs[0] == 0.0
        assert all(not np.any(h) for h in trace.hidden[1:])
        assert all(not np.any(p) for p in trace.patterns)

    def test_all_positive_weights_is_linear(self):
        params = init_network([3, 6, 4], seed=2)
        params.weights = [np.abs(w) for w in params.weights]
        x = np.array([0.3, 1.2, 0.5])
        trace = forward_one(params, x)
        linear = params.output_vector @ (params.weights[1].T @ (params.weights[0].T @ x))
        assert trace.outputs[0] == pytest.approx(float(linear), rel=1e-14)
        assert all(np.all(p) for p in trace.patterns)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_oracle(self, seed):
        params = random_net(seed, dims=[2, 3, 3, 2])
        x = PortableRng(seed + 100).normals(2)
        trace = forward_one(params, x)
        expected = scalar_forward(params, x)
        assert trace.outputs[0] == pytest.approx(expected,
                                                 abs=1e-14 * (1 + abs(expected)))

    def test_batch_matches_single(self):
        params = random_net(17)
        x = PortableRng(55).normals(3 * params.layer_dims[0]).reshape(3, -1)
        bt = batch_forward(params, x)
        for i in range(3):
            expected = scalar_forward(params, x[i])
            assert bt.outputs[i] == pytest.approx(expected, rel=1e-12, abs=1e-14)
            single = forward_one(params, x[i])
            for l in range(params.depth):
                assert np.array_equal(bt.patterns[l][i], single.patterns[l][0])

    def test_positive_homogeneity(self):
        params = random_net(23)
        x = PortableRng(24).normals(params.layer_dims[0])
        base = forward_one(params, x)
        for c in (0.5, 3.0, 17.0):
            scaled = forward_one(params, c * x)
            assert scaled.outputs[0] == pytest.approx(c * base.outputs[0], rel=1e-12)
            for pa, pb in zip(scaled.patterns, base.patterns):
                assert np.array_equal(pa, pb)

    def test_pattern_consistency_on_rerun(self):
        params = random_net(31)
        x = PortableRng(32).normals(params.layer_dims[0])
        a, b = forward_one(params, x), forward_one(params, x)
        for pa, pb in zip(a.patterns, b.patterns):
            assert np.array_equal(pa, pb)

    def test_dimension_mismatch(self):
        params = random_net(1)
        with pytest.raises(ValueError):
            forward_one(params, np.zeros(params.layer_dims[0] + 1))


class TestTelescope:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_layer_reproduces_output(self, seed):
        params = random_net(seed)
        x = PortableRng(seed + 500).normals(3 * params.layer_dims[0]).reshape(3, -1)
        trace = batch_forward(params, x)
        for l in range(1, params.depth + 2):
            val = output_telescope(params, trace, l)
            assert np.all(np.abs(val - trace.outputs)
                          <= 1e-12 * (1.0 + np.abs(trace.outputs)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(d=st.integers(1, 6), widths=st.lists(st.integers(1, 24), max_size=3),
           half=st.integers(1, 12), n=st.integers(1, 5),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_every_layer_reproduces_output_property(self, d, widths, half, n, seed):
        # layers of unequal widths, width-1 layers and dead units included
        params = init_network([d] + widths + [2 * half], seed)
        x = PortableRng(seed).normals(n * d).reshape(n, d)
        trace = batch_forward(params, x)
        for l in range(1, params.depth + 2):
            val = output_telescope(params, trace, l)
            assert np.all(np.abs(val - trace.outputs)
                          <= 1e-12 * (1.0 + np.abs(trace.outputs)))

    def test_empty_product_layer(self):
        params = random_net(42)
        x = PortableRng(43).normals(params.layer_dims[0])
        trace = forward_one(params, x)
        val = output_telescope(params, trace, params.depth + 1)
        assert val[0] == pytest.approx(trace.outputs[0], abs=1e-15)

    def test_out_of_range(self):
        params = random_net(4)
        trace = forward_one(params, np.zeros(params.layer_dims[0]))
        with pytest.raises(ValueError):
            output_telescope(params, trace, 0)
        with pytest.raises(ValueError):
            output_telescope(params, trace, params.depth + 2)


class TestMaxPatternDistance:
    def test_identical(self):
        p = [np.array([[True, False, True], [False, False, True]])]
        assert max_pattern_distance(p, p) == [0]

    def test_complement(self):
        p = [np.array([[True, False, True, True, False]]),
             np.array([[True, False], [False, False]])]
        assert max_pattern_distance(p, [~q for q in p]) == [5, 2]

    def test_hand_case(self):
        # the worst example counts, not the sum over examples
        a = np.array([[1, 0, 1, 1, 0], [1, 1, 1, 1, 1]], dtype=bool)
        b = np.array([[1, 0, 0, 1, 1], [1, 1, 1, 1, 0]], dtype=bool)
        assert max_pattern_distance([a], [b]) == [2]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            max_pattern_distance([np.ones((2, 3), bool)], [np.ones((2, 4), bool)])
        with pytest.raises(ValueError):
            max_pattern_distance([np.ones((2, 3), bool)], [np.ones((1, 3), bool)])


class TestBatchLoss:
    def test_zero_weights_gives_loss_at_zero(self):
        params = init_network([4, 8, 6], seed=9)
        params.weights = [np.zeros_like(w) for w in params.weights]
        ds = generate_separated(n=6, d=4, mu=0.5, phi=0.05, seed=2)
        assert batch_loss(params, ds, builtin_loss("logistic")) == \
            pytest.approx(LOG2, rel=1e-15)

    def test_single_example(self):
        params = random_net(10, dims=[4, 6, 6, 4])
        ds = generate_separated(n=2, d=4, mu=0.5, phi=0.05, seed=3)
        one = type(ds)(inputs=ds.inputs[:1], labels=ds.labels[:1],
                       mu=ds.mu, phi=ds.phi)
        loss = builtin_loss("logistic")
        got = batch_loss(params, one, loss)
        expected = float(loss.value(ds.labels[0] * scalar_forward(params, ds.inputs[0])))
        assert got == pytest.approx(expected, rel=1e-15)

    def test_matches_scalar_mean(self):
        params = random_net(11, dims=[4, 6, 4])
        ds = generate_separated(n=4, d=4, mu=0.5, phi=0.05, seed=4)
        loss = builtin_loss("logistic")
        per_example = [float(loss.value(y * scalar_forward(params, x)))
                       for x, y in zip(ds.inputs, ds.labels)]
        assert batch_loss(params, ds, loss) == \
            pytest.approx(sum(per_example) / 4, rel=1e-15)


class TestLossGradient:
    def test_zero_derivative_gives_zero_gradients(self):
        params = random_net(12, dims=[4, 8, 4])
        ds = generate_separated(n=5, d=4, mu=0.5, phi=0.05, seed=5)
        grads = loss_gradient(params, ds, zero_deriv_loss())
        assert all(not np.any(g) for g in grads)

    def test_zero_inputs_give_zero_gradients(self):
        params = random_net(13, dims=[4, 8, 4])
        ds = generate_separated(n=5, d=4, mu=0.5, phi=0.05, seed=6)
        ds.inputs[:] = 0.0
        grads = loss_gradient(params, ds, builtin_loss("logistic"))
        assert all(not np.any(g) for g in grads)

    def test_shapes_match_weights(self):
        params = random_net(14)
        ds = generate_separated(n=4, d=params.layer_dims[0], mu=0.5,
                                phi=0.05, seed=7)
        grads = loss_gradient(params, ds, builtin_loss("logistic"))
        assert [g.shape for g in grads] == [w.shape for w in params.weights]

    def test_matches_central_finite_differences(self):
        # small net whose pre-activations are bounded away from the kinks
        params, ds = _net_with_preactivation_margin(dims=[3, 6, 6, 4], n=5,
                                                    margin=1e-3)
        loss = builtin_loss("logistic")
        grads = loss_gradient(params, ds, loss)
        h = 1e-6
        for l, w in enumerate(params.weights):
            for idx in np.ndindex(w.shape):
                orig = w[idx]
                w[idx] = orig + h
                up = batch_loss(params, ds, loss)
                w[idx] = orig - h
                down = batch_loss(params, ds, loss)
                w[idx] = orig
                fd = (up - down) / (2 * h)
                an = grads[l][idx]
                assert abs(fd - an) <= 1e-5 * max(abs(an), abs(fd), 1e-4), \
                    (l, idx, fd, an)


def assert_norms_match_dense(a, b):
    """gradient_norms of one factor pair against dense norms of A^T B.

    Any method that goes through the n x n Gram matrices resolves the
    squared spectral norm to about eps * ||A||_F^2 ||B||_F^2 in absolute
    terms; the bounds below are that with a safety factor.
    """
    (spec,), (fro,) = gradient_norms([(a, b)])
    dense = a.T @ b
    scale = np.sum(a * a) * np.sum(b * b)
    assert spec ** 2 == pytest.approx(np.linalg.norm(dense, 2) ** 2,
                                      rel=1e-9, abs=1e-12 * scale)
    assert fro ** 2 == pytest.approx(np.sum(dense * dense),
                                     rel=1e-9, abs=1e-12 * scale)


class TestGradientNorms:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 12), p=st.integers(1, 30), q=st.integers(1, 30),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_factors(self, n, p, q, seed):
        rng = np.random.default_rng(seed)
        assert_norms_match_dense(rng.standard_normal((n, p)),
                                 rng.standard_normal((n, q)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 12), p=st.integers(1, 30), q=st.integers(1, 30),
           rank=st.integers(1, 3), zero_rows=st.integers(0, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rank_deficient_factors(self, n, p, q, rank, zero_rows, seed):
        # rows of A repeat (rank-deficient A A^T) and some rows of B vanish,
        # as for examples whose loss derivative or ReLU signals are zero
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rank, p))[rng.integers(0, rank, size=n)]
        b = rng.standard_normal((n, q))
        b[: min(zero_rows, n - 1)] = 0.0
        assert_norms_match_dense(a, b)

    def test_zero_gradient(self):
        (spec,), (fro,) = gradient_norms([(np.ones((3, 4)), np.zeros((3, 5)))])
        assert spec == 0.0
        assert fro == 0.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_norms_are_inf(self, sign):
        # finite Gram matrices near 1e200 whose products overflow; with
        # alternating signs the Frobenius sum meets inf - inf
        a = 1e100 * np.ones((3, 4))
        b = 1e100 * np.ones((3, 5)) * np.array([1.0, sign, 1.0])[:, None]
        (spec,), (fro,) = gradient_norms([(a, b)])
        assert spec == fro == np.inf

    def test_factors_give_the_loss_gradient(self):
        params = random_net(15, dims=[4, 8, 6])
        ds = generate_separated(n=6, d=4, mu=0.5, phi=0.05, seed=8)
        loss = builtin_loss("logistic")
        trace = batch_forward(params, ds.inputs)
        factors = gradient_factors(params, trace, ds.labels, loss)
        spec, fro = gradient_norms(factors)
        for g, s, f in zip(loss_gradient(params, ds, loss), spec, fro):
            assert s == pytest.approx(np.linalg.norm(g, 2), rel=1e-10)
            assert f == pytest.approx(np.linalg.norm(g), rel=1e-10)


def _net_with_preactivation_margin(dims, n, margin, start_seed=0):
    """First (net, dataset) pair whose pre-activations all avoid the kinks."""
    ds = generate_separated(n=n, d=dims[0], mu=0.5, phi=0.05, seed=991)
    for seed in range(start_seed, start_seed + 200):
        params = init_network(dims, seed)
        bt = batch_forward(params, ds.inputs)
        if min(float(np.min(np.abs(z))) for z in bt.preacts) > margin:
            return params, ds
    raise AssertionError("no net with the requested pre-activation margin")


class TestSerialization:
    def test_round_trip(self, tmp_path):
        params = random_net(77)
        path = tmp_path / "net.ckpt"
        save_params(params, path, {"init_seed": 77})
        loaded = load_params(path)
        assert tuple(loaded.layer_dims) == tuple(params.layer_dims)
        assert checkpoint_header(path) == {"init_seed": 77,
                                           "layer_dims": list(params.layer_dims)}
        for wa, wb in zip(loaded.weights, params.weights):
            assert np.array_equal(wa, wb)
        assert np.array_equal(loaded.output_vector, params.output_vector)

    def test_bytes_are_magic_header_and_arrays(self, tmp_path):
        params = init_network([3, 4, 6], seed=5)
        # arrays that are not little-endian C-order are written as if they were
        params.weights[0] = np.asfortranarray(params.weights[0])
        params.weights[1] = params.weights[1].astype(">f8")
        path = tmp_path / "net.ckpt"
        provenance = {"init_seed": 5, "data_seed": 4, "n": 2, "d": 3, "mu": 0.5,
                      "phi": 0.1, "loss": "logistic", "data_sha256": "0" * 64}
        save_params(params, path, provenance)
        header = json.dumps(dict(provenance, layer_dims=[3, 4, 6]), sort_keys=True)
        arrays = (*params.weights, params.output_vector)
        assert path.read_bytes() == b"OPNET1\n" + header.encode("ascii") + b"\n" \
            + b"".join(a.astype("<f8").tobytes(order="C") for a in arrays)

    def test_byte_identical_rewrites(self, tmp_path):
        params = random_net(78)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_params(params, p1, {"init_seed": 78})
        save_params(params, p2, {"init_seed": 78})
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dims=st.lists(st.integers(1, 9), min_size=1, max_size=4),
           out=st.integers(1, 5), seed=st.integers(0, 2 ** 31 - 1),
           value=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    def test_round_trip_property(self, tmp_path_factory, dims, out, seed, value):
        params = init_network(dims + [2 * out], seed)
        params.weights[-1][0, 0] = value   # any float64, -0.0 and nan too
        path = tmp_path_factory.mktemp("ckpt") / "net.ckpt"
        save_params(params, path, {"init_seed": seed})
        loaded = load_params(path)
        assert tuple(loaded.layer_dims) == tuple(params.layer_dims)
        header = checkpoint_header(path)
        assert header == {"init_seed": seed, "layer_dims": dims + [2 * out]}
        for wa, wb in zip(loaded.weights, params.weights):
            assert wa.shape == wb.shape and wa.tobytes() == wb.tobytes()
        assert loaded.output_vector.tobytes() == params.output_vector.tobytes()
        again = path.with_name("again.ckpt")
        save_params(loaded, again, header)
        assert again.read_bytes() == path.read_bytes()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_params(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda b: b[:-8], "payload bytes"),
        (lambda b: b[:-3], "payload bytes"),
        (lambda b: b + bytes(8), "payload bytes"),
        (lambda b: b.replace(b'"layer_dims"', b'"layer_dimz"', 1), "unreadable header"),
        (lambda b: b[:-8] + np.array([0.5]).tobytes(), "output vector"),
    ], ids=["truncated", "truncated_mid_value", "trailing_bytes",
            "header_without_dims", "bad_output_vector"])
    def test_rejects_corrupt_checkpoint(self, tmp_path, edit, message):
        path = tmp_path / "net.ckpt"
        save_params(random_net(79), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(CorruptCheckpointError, match=message):
            load_params(path)

    @pytest.mark.parametrize("read", [checkpoint_header, load_params])
    def test_unreadable_path_names_itself(self, tmp_path, read):
        with pytest.raises(CorruptCheckpointError, match="cannot be read") as info:
            read(tmp_path)          # a directory
        assert str(tmp_path) in str(info.value)
