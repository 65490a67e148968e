import itertools
import math

import numpy as np
import pytest

from overparam.data import generate_separated
from overparam.linalg import PortableRng
from overparam.losses import builtin_loss
from overparam.network import batch_forward, init_network
from overparam.verify import (INIT_ITEMS, MaskedChain, _sparse_probes,
                              concavity_inequality_check, mc_relu_kernel,
                              relu_kernel_closed_form, subset_mean_variance,
                              verify_init_properties,
                              verify_perturbation_properties)

INV_2PI = 1.0 / (2.0 * np.pi)


class TestReluKernelClosedForm:
    def test_full_correlation_is_half_second_moment(self):
        assert relu_kernel_closed_form(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_independence_factorizes(self):
        assert relu_kernel_closed_form(0.0) == pytest.approx(INV_2PI, rel=1e-15)

    def test_anticorrelation_vanishes(self):
        assert relu_kernel_closed_form(-1.0) == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            relu_kernel_closed_form(1.5)

    def test_near_one_expansion_bounds(self):
        # closed(1 - theta^2/2) <= 1/2 - theta^2/4 + 0.2 theta^3 ...
        for theta in np.linspace(1e-3, 0.5, 200):
            rho = 1.0 - theta * theta / 2.0
            val = relu_kernel_closed_form(rho)
            assert val <= 0.5 - theta ** 2 / 4.0 + 0.2 * theta ** 3 + 1e-15
            # ... and >= rho / 2
            assert val >= rho / 2.0 - 1e-15

    def test_half_correlation_lower_bound_on_grid(self):
        grid = np.linspace(-1.0, 1.0, 1001)
        vals = relu_kernel_closed_form(grid)
        assert np.min(vals - grid / 2.0) >= -1e-12

    def test_specific_value_against_quadrature(self):
        # independent oracle: 2-d Gaussian quadrature over the positive quadrant
        rho = 0.99
        grid = np.linspace(0.0, 8.0, 1601)
        w = np.gradient(grid)
        z1 = grid[:, None]
        z2 = grid[None, :]
        det = 1.0 - rho * rho
        density = np.exp(-(z1 ** 2 - 2 * rho * z1 * z2 + z2 ** 2) / (2 * det)) \
            / (2 * np.pi * np.sqrt(det))
        quad = float(np.sum(z1 * z2 * density * w[:, None] * w[None, :]))
        assert relu_kernel_closed_form(rho) == pytest.approx(quad, rel=1e-4)


class TestMcReluKernel:
    def test_perfect_correlation(self):
        est, se = mc_relu_kernel(1.0, samples=100_000, seed=0)
        assert abs(est - 0.5) <= 3 * se

    def test_independent(self):
        est, se = mc_relu_kernel(0.0, samples=100_000, seed=1)
        assert abs(est - INV_2PI) <= 3 * se

    def test_negative_correlation(self):
        est, se = mc_relu_kernel(-0.5, samples=100_000, seed=2)
        assert abs(est - relu_kernel_closed_form(-0.5)) <= 4 * se

    def test_preconditions(self):
        with pytest.raises(ValueError):
            mc_relu_kernel(0.0, samples=10, seed=0)
        with pytest.raises(ValueError):
            mc_relu_kernel(2.0, samples=5000, seed=0)


class TestSubsetMeanVariance:
    def test_worked_case(self):
        enum, formula = subset_mean_variance(np.array([1.0, -1.0, 2.0, -2.0]), 2)
        assert enum == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert formula == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert abs(enum - formula) <= 1e-12

    def test_full_batch_is_zero(self):
        u = np.array([3.0, -1.0, -2.0, 1.5, -1.5])
        enum, formula = subset_mean_variance(u, 5)
        assert enum == pytest.approx(0.0, abs=1e-15)
        assert formula == 0.0

    def test_singleton_batch_gives_mean_square(self):
        u = np.array([2.0, -3.0, 1.0])
        enum, formula = subset_mean_variance(u, 1)
        expected = float(np.mean(u * u))
        assert enum == pytest.approx(expected, rel=1e-15)
        assert formula == pytest.approx(expected, rel=1e-15)

    def test_random_zero_sum_vectors(self):
        rng = PortableRng(42)
        for n in range(2, 9):
            for _ in range(5):
                u = rng.normals(n)
                u = u - u.mean()
                for batch in range(1, n + 1):
                    enum, formula = subset_mean_variance(u, batch)
                    assert abs(enum - formula) <= 1e-12

    def test_preconditions(self):
        with pytest.raises(ValueError):
            subset_mean_variance(np.array([1.0, 1.0]), 1)   # nonzero sum
        with pytest.raises(ValueError):
            subset_mean_variance(np.zeros(25), 2)           # n too large
        with pytest.raises(ValueError):
            subset_mean_variance(np.array([1.0, -1.0]), 3)  # batch too large


class TestConcavityInequality:
    def test_p_zero_is_equality(self):
        assert concavity_inequality_check(3.7, 1.2, 0.0)
        assert concavity_inequality_check(1.2, 3.7, 0.0)

    def test_worked_case(self):
        # a=4, b=1, p=1: lhs = 3, rhs = (1/4 - 1)/(-1) = 0.75
        assert concavity_inequality_check(4.0, 1.0, 1.0)

    def test_equal_arguments(self):
        for p in (0.0, 0.3, 0.9, 1.0):
            assert concavity_inequality_check(2.5, 2.5, p)

    def test_half_excluded(self):
        with pytest.raises(ValueError):
            concavity_inequality_check(1.0, 2.0, 0.5)

    def test_positive_arguments_required(self):
        with pytest.raises(ValueError):
            concavity_inequality_check(-1.0, 2.0, 0.3)

    def test_random_triples(self):
        rng = PortableRng(7)
        violations = 0
        for _ in range(10_000):
            a, b = np.exp(rng.normals(2) * 2.0)
            p = float(rng.uniforms(1)[0])
            if abs(p - 0.5) < 1e-6:
                p = 0.25
            if not concavity_inequality_check(float(a), float(b), p):
                violations += 1
        assert violations == 0


def small_battery_inputs(m=48, depth=3, n=8, d=6, seed=0):
    ds = generate_separated(n=n, d=d, mu=0.5, phi=0.08, seed=seed)
    params = init_network([d] + [m] * depth, seed=seed + 1)
    return params, ds


class TestInitBattery:
    def test_all_items_present_and_finite(self):
        params, ds = small_battery_inputs()
        report = verify_init_properties(params, ds, trials=3, seed=11,
                                        probes=8, gradient_probes=4)
        names = [e.name for e in report.entries]
        assert names == list(INIT_ITEMS)
        for entry in report.entries:
            assert len(entry.per_trial) == 3
            assert np.isfinite(entry.measured)

    def test_thresholded_items_pass_at_easy_scale(self):
        params, ds = small_battery_inputs(m=256, depth=2)
        report = verify_init_properties(
            params, ds, trials=4, seed=3, allowed_failures=0,
            items=("hidden_norm_deviation", "cross_class_separation",
                   "output_magnitude", "near_threshold_fraction",
                   "pairwise_inner_product"),
            thresholds={"hidden_norm_deviation": 0.5, "output_magnitude": 8.0})
        assert report.passed, report.as_dict()

    def test_beta_zero_counts_exact_zeros(self):
        params, ds = small_battery_inputs()
        report = verify_init_properties(params, ds, beta=0.0, trials=1,
                                        seed=0, items=("near_threshold_fraction",))
        assert report.entry("near_threshold_fraction").measured == 0.0

    def test_fitted_constants_stable_across_seeds(self):
        params, ds = small_battery_inputs(m=128, depth=2)
        items = ("chain_product_norm", "active_gradient_nodes")
        r1 = verify_init_properties(params, ds, trials=2, seed=100, probes=8,
                                    items=items)
        r2 = verify_init_properties(init_network(params.layer_dims, 999), ds,
                                    trials=2, seed=200, probes=8, items=items)
        for name in items:
            a = r1.entry(name).measured
            b = r2.entry(name).measured
            assert a > 0 and b > 0
            assert max(a, b) / min(a, b) <= 10.0

    def test_sparsity_out_of_range(self):
        params, ds = small_battery_inputs(m=16)
        with pytest.raises(ValueError):
            verify_init_properties(params, ds, sparsity_s=64, trials=1)

    def test_report_serializes(self):
        import json
        params, ds = small_battery_inputs()
        report = verify_init_properties(params, ds, trials=1, seed=5, probes=4,
                                        gradient_probes=2)
        blob = json.dumps(report.as_dict())
        assert "hidden_norm_deviation" in blob


class TestPerturbationBattery:
    def test_identical_params_all_drift_zero(self):
        params, ds = small_battery_inputs()
        report = verify_perturbation_properties(params, params, params, ds)
        assert report.meta["measured_tau"] == 0.0
        assert report.entry("hidden_drift_ratio").measured == 0.0
        assert report.entry("pattern_drift_ratio").measured == 0.0
        assert report.entry("pattern_flip_union").measured == 0.0

    def test_rank_one_perturbation_drift_bounds(self):
        params, ds = small_battery_inputs(m=64)
        tau = 0.05
        tilde = params.copy()
        u = np.zeros(tilde.weights[1].shape[0]); u[0] = 1.0
        v = np.zeros(tilde.weights[1].shape[1]); v[1] = 1.0
        tilde.weights[1] = tilde.weights[1] + tau * np.outer(u, v)
        report = verify_perturbation_properties(params, tilde, params, ds,
                                                declared_tau=0.1)
        assert report.meta["measured_tau"] == pytest.approx(tau, rel=1e-3)
        # hidden drift stays within a small multiple of L * sum ||dW||
        assert report.entry("hidden_drift_ratio").measured <= 5.0
        assert report.entry("perturbation_radius").passed()

    def test_exceeding_declared_tau_flags_not_throws(self):
        params, ds = small_battery_inputs()
        tilde = params.copy()
        tilde.weights[0] = tilde.weights[0] + 0.5 * np.eye(*tilde.weights[0].shape)
        report = verify_perturbation_properties(params, tilde, params, ds,
                                                declared_tau=1e-3)
        entry = report.entry("perturbation_radius")
        assert not entry.passed()
        assert "exceeds declared tau" in entry.note

    def test_gradient_ratio_positive_and_stable(self):
        ds = generate_separated(n=10, d=6, mu=0.5, phi=0.08, seed=4)
        loss = builtin_loss("logistic")
        ratios = []
        for seed in range(3):
            params = init_network([6, 96, 96], seed=seed)
            report = verify_perturbation_properties(params, params, params, ds,
                                                    loss=loss)
            r = report.entry("gradient_lower_ratio").measured
            assert r > 0
            ratios.append(r)
        assert max(ratios) / min(ratios) <= 100.0

    def test_gradient_upper_ratios_finite(self):
        params, ds = small_battery_inputs(m=64)
        report = verify_perturbation_properties(params, params, params, ds)
        assert np.isfinite(report.entry("gradient_upper_ratio").measured)
        assert np.isfinite(
            report.entry("stochastic_gradient_upper_ratio").measured)

    def test_shape_mismatch_rejected(self):
        params, ds = small_battery_inputs()
        other = init_network([6, 24, 24, 48], seed=9)
        with pytest.raises(ValueError):
            verify_perturbation_properties(params, other, params, ds)


# --- per-example reference for the batched masked-chain operator ------------

def _apply_chain(weights, patterns, first, last, block, example):
    """Masked product over layers first..last applied to columns of `block`."""
    t = block
    for r in range(first, last + 1):
        t = patterns[r - 1][example][:, None] * (weights[r - 1].T @ t)
    return t


def _apply_chain_t(weights, patterns, first, last, block, example):
    t = block
    for r in range(last, first - 1, -1):
        t = weights[r - 1] @ (patterns[r - 1][example][:, None] * t)
    return t


def _chain_operator_norm(weights, patterns, l1, l2, example, rng, include_head,
                         block=4, iters=24):
    """Block power estimate of one example's chain norm: with `include_head`
    the masked chain l1..l2-1 followed by W_{l2}^T, else l1..l2 with both
    masks."""
    dim = weights[l1 - 1].shape[0]
    q = rng.normals(dim * block).reshape(dim, block)
    q, _ = np.linalg.qr(q)
    chain_last = l2 - 1 if include_head else l2

    def fwd(b):
        t = _apply_chain(weights, patterns, l1, chain_last, b, example)
        return weights[l2 - 1].T @ t if include_head else t

    def bwd(b):
        t = weights[l2 - 1] @ b if include_head else b
        return _apply_chain_t(weights, patterns, l1, chain_last, t, example)

    for _ in range(iters):
        z = bwd(fwd(q))
        q, _ = np.linalg.qr(z)
    return float(np.linalg.svd(fwd(q), compute_uv=False)[0])


def _dense_chain(weights, patterns, l1, l2, example, include_head):
    dim = weights[l1 - 1].shape[0]
    last = l2 - 1 if include_head else l2
    m = _apply_chain(weights, patterns, l1, last, np.eye(dim), example)
    return weights[l2 - 1].T @ m if include_head else m


def _chain(weights, patterns, l1, l2, include_head):
    if include_head:
        return MaskedChain(weights, patterns, l1, l2 - 1, head=l2)
    return MaskedChain(weights, patterns, l1, l2)


def _oracle_output_probe(params, patterns, layer, block):
    return max(float(np.max(np.abs(params.output_vector @ _apply_chain(
        params.weights, patterns, layer, params.depth, block, i))))
        for i in range(patterns[0].shape[0]))


PAIRS_AND_FORMS = [(l1, l2, head)
                   for l1, l2 in itertools.combinations(range(1, 4), 2)
                   for head in (True, False)]


class TestMaskedChain:
    @pytest.fixture
    def net(self):
        params, ds = small_battery_inputs(m=48, depth=3, n=6)
        return params, batch_forward(params, ds.inputs).patterns

    @pytest.mark.parametrize("l1, l2, head", PAIRS_AND_FORMS)
    def test_apply_matches_dense_products(self, net, l1, l2, head):
        params, patterns = net
        chain = _chain(params.weights, patterns, l1, l2, head)
        rng = PortableRng(3)
        dim_in = params.weights[l1 - 1].shape[0]
        dim_out = params.weights[l2 - 1].shape[1]
        x = rng.normals(dim_in * 6 * 3).reshape(dim_in, 6, 3)
        y = rng.normals(dim_out * 6 * 2).reshape(dim_out, 6, 2)
        fx, ty = chain.apply(x), chain.apply_t(y)
        assert fx.shape == (dim_out, 6, 3) and ty.shape == (dim_in, 6, 2)
        for i in range(6):
            dense = _dense_chain(params.weights, patterns, l1, l2, i, head)
            np.testing.assert_allclose(fx[:, i], dense @ x[:, i], rtol=0, atol=1e-12)
            np.testing.assert_allclose(ty[:, i], dense.T @ y[:, i], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("l1, l2, head", PAIRS_AND_FORMS)
    def test_norms_match_per_example_loop(self, net, l1, l2, head):
        params, patterns = net
        loop_rng, batch_rng = PortableRng(17), PortableRng(17)
        loop = [_chain_operator_norm(params.weights, patterns, l1, l2, i, loop_rng,
                                     include_head=head) for i in range(6)]
        batched = _chain(params.weights, patterns, l1, l2, head).norms(batch_rng)
        np.testing.assert_allclose(batched, loop, rtol=1e-10, atol=0)
        # one draw for all examples leaves the stream where n draws would
        assert loop_rng.raw(1)[0] == batch_rng.raw(1)[0]
        for i, value in enumerate(batched):
            exact = np.linalg.norm(
                _dense_chain(params.weights, patterns, l1, l2, i, head), 2)
            assert value <= exact * (1.0 + 1e-12)


class TestChainItemsAgainstLoops:
    """Each chain item of both batteries against the per-example loop, fed
    the same random stream."""

    def test_init_battery(self):
        params, ds = small_battery_inputs(m=48, depth=3, n=6)
        patterns = batch_forward(params, ds.inputs).patterns
        items = ("chain_product_norm", "sparse_output_probe",
                 "sparse_bilinear_probe")
        pairs = list(itertools.combinations(range(1, 4), 2))
        for name in items:
            rng = PortableRng(21)   # trial 0 stream of seed 21
            if name == "chain_product_norm":
                value = max(_chain_operator_norm(params.weights, patterns, l1, l2,
                                                 i, rng, include_head=True)
                            for l1, l2 in pairs for i in range(6))
            elif name == "sparse_output_probe":
                value = max(_oracle_output_probe(
                    params, patterns, l, _sparse_probes(params.layer_dims[l - 1],
                                                        3, 8, rng))
                    for l in range(1, 4))
            else:
                value = 0.0
                for l1, l2 in pairs:
                    a = _sparse_probes(params.layer_dims[l1 - 1], 3, 8, rng)
                    b = _sparse_probes(params.layer_dims[l2], 3, 8, rng)
                    for i in range(6):
                        prop = _apply_chain(params.weights, patterns, l1, l2 - 1, a, i)
                        value = max(value, float(np.max(np.abs(
                            b.T @ (params.weights[l2 - 1].T @ prop)))))
            report = verify_init_properties(params, ds, sparsity_s=3, trials=1,
                                            seed=21, probes=8, items=(name,))
            assert report.entry(name).per_trial[0] == pytest.approx(value, rel=1e-10)

    def test_perturbation_battery(self):
        params, ds = small_battery_inputs(m=48, depth=3, n=6)
        tilde = params.copy()
        tilde.weights[1] = tilde.weights[1] + 0.01 * PortableRng(4).normals(
            48 * 48).reshape(48, 48)
        report = verify_perturbation_properties(params, tilde, params, ds,
                                                probes=8, sparsity_s=3, seed=5)
        patterns = batch_forward(tilde, ds.inputs).patterns
        rng = PortableRng(5 + 104729)
        chain = max(_chain_operator_norm(tilde.weights, patterns, l1, l2, i, rng,
                                         include_head=False)
                    for l1, l2 in itertools.combinations(range(1, 4), 2)
                    for i in range(6))
        probe = max(_oracle_output_probe(
            tilde, patterns, l, _sparse_probes(tilde.layer_dims[l - 1], 3, 8, rng))
            for l in range(1, 4))
        tau = report.meta["measured_tau"]
        scale = 3 ** (5.0 / 3.0) * tau ** (1.0 / 3.0) * math.sqrt(48 * math.log(48))
        assert report.entry("perturbed_chain_norm").measured * 3 == \
            pytest.approx(chain, rel=1e-10)
        assert report.entry("perturbed_sparse_probe").measured * scale == \
            pytest.approx(probe, rel=1e-10)
