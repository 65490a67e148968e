import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overparam.data import Dataset, generate_separated
from overparam import linalg, verify
from overparam.linalg import MaskedChain, PortableRng
from overparam.losses import builtin_loss
from overparam.network import batch_forward, init_network
from overparam.verify import (INIT_ITEMS, _bilinear_probe,
                              _sparse_probes, concavity_inequality_check,
                              mc_relu_kernel,
                              relu_kernel_closed_form, subset_mean_variance,
                              verify_init_properties,
                              verify_perturbation_properties)

from oracles import battery_settings, loss_gradient

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

    def test_arrays_match_scalar_calls(self):
        u = PortableRng(3).uniforms(300).reshape(100, 3)
        a, b = np.exp(6.0 * u[:, :2] - 3.0).T
        p = np.where(np.abs(u[:, 2] - 0.5) < 1e-3, 0.25, u[:, 2])
        holds = concavity_inequality_check(a, b, p)
        assert holds.dtype == bool and holds.shape == (100,)
        scalar = [concavity_inequality_check(*map(float, t)) for t in zip(a, b, p)]
        assert all(type(h) is bool for h in scalar)
        assert holds.tolist() == scalar

    @pytest.mark.parametrize("a, b, p", [
        (np.array([1.0, -1.0]), 2.0, 0.3),
        (1.0, np.array([2.0, 0.0]), 0.3),
        (1.0, 2.0, np.array([0.3, 0.5])),
        (1.0, 2.0, np.array([0.3, 1.5])),
    ])
    def test_one_bad_element_raises(self, a, b, p):
        with pytest.raises(ValueError):
            concavity_inequality_check(a, b, p)

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


NAN, INF = math.nan, math.inf


class TestPropertyEntryRule:
    """One pass rule: a trial passes when its value is finite and at most
    the threshold (upper) or strictly above it (lower); without a threshold
    the limit is +inf (upper) or 0 (lower)."""

    @pytest.mark.parametrize("direction, threshold, value, passed", [
        ("upper", 1.0, 0.5, True), ("upper", 1.0, 1.0, True),
        ("upper", 1.0, 2.0, False), ("upper", 1.0, 0.0, True),
        ("upper", 1.0, NAN, False), ("upper", 1.0, INF, False),
        ("upper", 1.0, -INF, False),
        ("upper", None, 0.5, True), ("upper", None, 1e308, True),
        ("upper", None, 0.0, True), ("upper", None, NAN, False),
        ("upper", None, INF, False), ("upper", None, -INF, False),
        ("lower", 1.0, 2.0, True), ("lower", 1.0, 1.0, False),
        ("lower", 1.0, 0.5, False), ("lower", 1.0, 0.0, False),
        ("lower", 1.0, NAN, False), ("lower", 1.0, INF, False),
        ("lower", 1.0, -INF, False),
        ("lower", None, 0.5, True), ("lower", None, -0.5, False),
        ("lower", None, 0.0, False), ("lower", None, NAN, False),
        ("lower", None, INF, False), ("lower", None, -INF, False),
    ])
    def test_pass_rule(self, direction, threshold, value, passed):
        entry = verify.PropertyEntry(name="p", direction=direction,
                                     threshold=threshold, per_trial=[value])
        assert entry.trial_failures() == (0 if passed else 1)
        assert entry.passed() is passed
        assert entry.as_dict()["passed"] is passed

    @pytest.mark.parametrize("per_trial, allowed, passed", [
        ([2.0], 1, False), ([2.0, 2.0], 2, False), ([2.0, 0.5], 1, True),
        ([2.0, 0.5, 2.0], 1, False), ([0.5], 0, True)])
    def test_entry_failing_every_trial_never_passes(self, per_trial, allowed,
                                                    passed):
        entry = verify.PropertyEntry(name="p", direction="upper", threshold=1.0,
                                     per_trial=per_trial)
        assert entry.passed(allowed) is passed
        assert entry.as_dict(allowed)["passed"] is passed

    @pytest.mark.parametrize("direction", ["upper", "lower"])
    @pytest.mark.parametrize("per_trial", [[0.5, NAN], [NAN, 0.5]])
    def test_nan_trial_is_the_measured_value(self, direction, per_trial):
        entry = verify.PropertyEntry(name="p", direction=direction,
                                     per_trial=per_trial)
        assert math.isnan(entry.measured)

    @pytest.mark.parametrize("num, denom, expected", [
        (1.0, 4.0, 0.25), (0.0, 0.0, 0.0), (1.0, 0.0, INF), (NAN, 0.0, NAN),
        (NAN, 4.0, NAN), (0.0, NAN, NAN), (1.0, NAN, NAN)])
    def test_ratio_propagates_nan(self, num, denom, expected):
        got = verify._ratio(num, denom)
        assert got == expected or math.isnan(got) and math.isnan(expected)

    @pytest.mark.parametrize("direction, worst", [("upper", 3.0), ("lower", -1.0)])
    def test_record_appends_each_trials_worst(self, direction, worst):
        entry = verify.PropertyEntry(name="p", direction=direction)
        assert entry.record([1.0, 3.0, -1.0]) is entry
        entry.record(np.array([2.0]))
        entry.record([0.5, NAN])
        assert entry.per_trial[:2] == [worst, 2.0]
        assert math.isnan(entry.per_trial[2])
        assert entry.trial_failures() >= 1


def item_window(seed, k):
    """Battery item k's window of stream `seed`: its raws from k << 64 on."""
    rng = PortableRng(seed)
    rng.advance(k << 64)
    return rng


def small_battery_inputs(m=48, depth=3, n=8, d=6, seed=0):
    ds = generate_separated(n=n, d=d, mu=0.5, phi=0.08, seed=seed)
    params = init_network([d] + [m] * depth, seed=seed + 1)
    return params, ds


class TestInitBattery:
    def test_all_items_present_and_finite(self):
        params, ds = small_battery_inputs()
        report = verify_init_properties(params, ds, **battery_settings(
            trials=3, seed=11, probes=8, gradient_probes=4))
        names = [e.name for e in report.entries]
        assert names == list(INIT_ITEMS)
        for entry in report.entries:
            assert len(entry.per_trial) == 3
            assert np.isfinite(entry.measured)

    def test_thresholded_items_pass_at_easy_scale(self):
        params, ds = small_battery_inputs(m=256, depth=2)
        limits = {
            "hidden_norm_deviation": ("upper", 0.5),
            "cross_class_separation": ("lower", ds.phi / 2.0),
            "output_magnitude": ("upper", 8.0),
            "near_threshold_fraction": ("upper", 1.0),
            "pairwise_inner_product": ("lower", ds.mu ** 2 / 2.0),
        }
        report = verify_init_properties(params, ds, **battery_settings(
            trials=4, seed=3, allowed_failures=0, items=tuple(limits)))
        for entry in report.entries:
            direction, limit = limits[entry.name]
            assert entry.direction == direction
            assert len(entry.per_trial) == 4
            for value in entry.per_trial:
                assert (value <= limit if direction == "upper"
                        else value >= limit), (entry.name, entry.per_trial)

    def test_item_order_does_not_change_values(self):
        ds = generate_separated(n=6, d=5, mu=0.5, phi=0.08, seed=2)
        params = init_network([5, 40, 40, 40], seed=3)
        kwargs = battery_settings(trials=2, seed=4, probes=8, gradient_probes=4)
        default = verify_init_properties(params, ds, **kwargs)
        backward = verify_init_properties(params, ds, **kwargs,
                                          items=list(reversed(INIT_ITEMS)))
        assert [e.name for e in backward.entries] == list(reversed(INIT_ITEMS))
        for entry in backward.entries:
            assert entry.per_trial == default.entry(entry.name).per_trial
        for name in INIT_ITEMS:
            alone = verify_init_properties(params, ds, **kwargs, items=[name])
            assert alone.entry(name).per_trial == default.entry(name).per_trial

    def test_beta_zero_counts_exact_zeros(self):
        params, ds = small_battery_inputs()
        report = verify_init_properties(params, ds, beta=0.0, **battery_settings(
            trials=1, seed=0, items=("near_threshold_fraction",)))
        assert report.entry("near_threshold_fraction").measured == 0.0

    def test_fitted_constants_stable_across_seeds(self):
        params, ds = small_battery_inputs(m=128, depth=2)
        items = ("chain_product_norm", "active_gradient_nodes")
        r1 = verify_init_properties(params, ds, **battery_settings(
            trials=2, seed=100, probes=8, items=items))
        r2 = verify_init_properties(init_network(params.layer_dims, 999), ds,
                                    **battery_settings(trials=2, seed=200, probes=8,
                                                       items=items))
        for name in items:
            a = r1.entry(name).measured
            b = r2.entry(name).measured
            assert a > 0 and b > 0
            assert max(a, b) / min(a, b) <= 10.0

    def test_active_gradient_nodes_match_dense_columns(self):
        params, ds = small_battery_inputs(m=64, depth=3, n=8)
        trace = batch_forward(params, ds.inputs)
        h_prev = trace.hidden[2]
        active = trace.patterns[2].astype(np.float64)
        need = max(1, math.ceil(64 * ds.phi / 8))
        rng = item_window(13, INIT_ITEMS.index("active_gradient_nodes"))
        low = math.inf
        for _ in range(4):
            a = np.abs(rng.normals(8))
            c = a * ds.labels / 8
            dense = np.linalg.norm(h_prev.T @ (c[:, None] * active), axis=0)
            low = min(low, np.sort(dense)[::-1][need - 1] * 8 / np.max(a))
        report = verify_init_properties(params, ds, **battery_settings(
            trials=1, seed=13, gradient_probes=4, items=("active_gradient_nodes",)))
        assert report.entry("active_gradient_nodes").per_trial[0] == \
            pytest.approx(low, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kwargs, name", [
        ({"delta": 0.0}, "delta"),
        ({"delta": 1.0}, "delta"),
        ({"probes": 0}, "probes"),
        ({"gradient_probes": 0}, "gradient_probes"),
        ({"allowed_failures": -1}, "allowed_failures"),
        ({"items": "output_magnitude"}, "items"),
        ({"items": []}, "items"),
        ({"items": ["output_magnitude", "output_magnitude"]}, "items"),
    ])
    def test_bad_arguments_rejected(self, kwargs, name):
        params, ds = small_battery_inputs()
        with pytest.raises(ValueError, match=f"^{name} must"):
            verify_init_properties(params, ds, **battery_settings(trials=1, **kwargs))

    def test_sparsity_out_of_range(self):
        params, ds = small_battery_inputs(m=16)
        with pytest.raises(ValueError):
            verify_init_properties(params, ds, sparsity_s=64,
                                   **battery_settings(trials=1))

    def test_report_serializes(self):
        import json
        params, ds = small_battery_inputs()
        report = verify_init_properties(params, ds, **battery_settings(
            trials=1, seed=5, probes=4, gradient_probes=2))
        blob = json.dumps(report.as_dict())
        assert "hidden_norm_deviation" in blob


class TestPerturbationBattery:
    def test_identical_params_all_drift_zero(self):
        params, ds = small_battery_inputs()
        report = verify_perturbation_properties(params, params, ds)
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
        report = verify_perturbation_properties(params, tilde, ds,
                                                declared_tau=0.1)
        assert report.meta["measured_tau"] == pytest.approx(tau, rel=1e-3)
        # hidden drift stays within a small multiple of L * sum ||dW||
        assert report.entry("hidden_drift_ratio").measured <= 5.0
        assert report.entry("perturbation_radius").passed()

    def test_exceeding_declared_tau_flags_not_throws(self):
        params, ds = small_battery_inputs()
        tilde = params.copy()
        tilde.weights[0] = tilde.weights[0] + 0.5 * np.eye(*tilde.weights[0].shape)
        report = verify_perturbation_properties(params, tilde, ds,
                                                declared_tau=1e-3)
        entry = report.entry("perturbation_radius")
        assert not entry.passed()
        assert "exceeds declared tau" in entry.note

    def test_entries_in_stream_window_order(self):
        # verify._PERTURBATION_ENTRIES places each entry's stream window, so
        # it must restate the report order; here all ten entries apply
        params, ds = small_battery_inputs()
        tilde = params.copy()
        tilde.weights[1] = tilde.weights[1] + 0.05 * PortableRng(3).normals(
            48 * 48).reshape(48, 48)
        report = verify_perturbation_properties(params, tilde, ds)
        assert tuple(e.name for e in report.entries) == \
            verify._PERTURBATION_ENTRIES

    def test_gradient_ratio_positive_and_stable(self):
        ds = generate_separated(n=10, d=6, mu=0.5, phi=0.08, seed=4)
        loss = builtin_loss("logistic")
        ratios = []
        for seed in range(3):
            params = init_network([6, 96, 96], seed=seed)
            report = verify_perturbation_properties(params, params, ds,
                                                    loss=loss)
            r = report.entry("gradient_lower_ratio").measured
            assert r > 0
            ratios.append(r)
        assert max(ratios) / min(ratios) <= 100.0

    def test_gradient_upper_ratios_finite(self):
        params, ds = small_battery_inputs(m=64)
        report = verify_perturbation_properties(params, params, ds)
        assert np.isfinite(report.entry("gradient_upper_ratio").measured)
        assert np.isfinite(
            report.entry("stochastic_gradient_upper_ratio").measured)

    def test_shape_mismatch_rejected(self):
        params, ds = small_battery_inputs()
        other = init_network([6, 24, 24, 48], seed=9)
        with pytest.raises(ValueError):
            verify_perturbation_properties(params, other, ds)

    def test_drift_and_gradient_entries_match_dense_oracles(self):
        # one perturbed layer, so layer 1 drifts 0 over a zero radius sum
        ds = generate_separated(n=8, d=6, mu=0.5, phi=0.08, seed=3)
        params = init_network([6, 32, 32, 32], seed=4)
        trained = params.copy()
        trained.weights[1] = trained.weights[1] + 0.3 * PortableRng(7).normals(
            32 * 32).reshape(32, 32)
        loss = builtin_loss("logistic")
        report = verify_perturbation_properties(params, trained, ds,
                                                loss=loss, spectral_tol=1e-10,
                                                seed=2)
        assert [(e.name, e.trials) for e in report.entries] == [
            ("perturbation_radius", 1), ("perturbed_weight_norm", 1),
            ("hidden_drift_ratio", 1), ("pattern_drift_ratio", 1),
            ("pattern_flip_union", 1), ("perturbed_chain_norm", 1),
            ("perturbed_sparse_probe", 1), ("gradient_lower_ratio", 2),
            ("gradient_upper_ratio", 2), ("stochastic_gradient_upper_ratio", 1)]
        assert sum(e.trials for e in report.entries) == 12

        radii = [np.linalg.norm(w - w0, 2)
                 for w, w0 in zip(trained.weights, params.weights)]
        assert radii[0] == radii[2] == 0.0
        tau = max(radii)
        assert report.meta["measured_tau"] == pytest.approx(tau, rel=1e-8)
        assert report.entry("perturbation_radius").per_trial[0] == \
            pytest.approx(tau, rel=1e-8)

        t0 = batch_forward(params, ds.inputs)
        t1 = batch_forward(trained, ds.inputs)
        hidden = max(np.max(np.linalg.norm(t1.hidden[l] - t0.hidden[l], axis=1))
                     / (3 * sum(radii[:l])) for l in (2, 3))
        assert np.array_equal(t1.hidden[1], t0.hidden[1])
        assert report.entry("hidden_drift_ratio").per_trial[0] == \
            pytest.approx(hidden, rel=1e-8)

        drift_scale = 3 ** (4.0 / 3.0) * tau ** (2.0 / 3.0)
        flips = [np.count_nonzero(p1 != p0, axis=1)
                 for p1, p0 in zip(t1.patterns, t0.patterns)]
        assert max(np.max(f) for f in flips) > 0
        assert report.entry("pattern_drift_ratio").per_trial[0] == pytest.approx(
            max(np.max(f) for f in flips) / (drift_scale * 32), rel=1e-8)
        union = np.count_nonzero(np.any(t1.patterns[-1] != t0.patterns[-1], axis=0))
        assert union > 0
        assert report.entry("pattern_flip_union").per_trial[0] == pytest.approx(
            union / (8 * drift_scale * 32), rel=1e-8)

        lower, upper = [], []
        for net, trace in ((trained, t1), (params, t0)):
            grads = loss_gradient(net, ds, loss)
            sum_lp = float(np.sum(loss.deriv(ds.labels * trace.outputs)))
            lower.append(np.linalg.norm(grads[-1]) ** 2 * 8 ** 5
                         / (32 * ds.phi * sum_lp ** 2))
            upper.append(max(np.linalg.norm(g, 2) for g in grads) * 8
                         / (3 ** 2 * math.sqrt(32) * abs(sum_lp)))
        assert report.entry("gradient_lower_ratio").per_trial == \
            pytest.approx(lower, rel=1e-8)
        assert report.entry("gradient_upper_ratio").per_trial == \
            pytest.approx(upper, rel=1e-8)

        # 8 batches of n // 4, from entry 9's window of the battery's stream
        rng = item_window(2 + 104729, 9)
        stochastic = 0.0
        for _ in range(8):
            batch = rng.sample_without_replacement(8, 2)
            sub = Dataset(ds.inputs[batch], ds.labels[batch], ds.mu, ds.phi)
            grads = loss_gradient(trained, sub, loss)
            sum_lp = float(np.sum(loss.deriv(sub.labels * t1.outputs[batch])))
            stochastic = max(stochastic, max(np.linalg.norm(g, 2) for g in grads)
                             * 2 / (3 ** 2 * math.sqrt(32) * abs(sum_lp)))
        assert report.entry("stochastic_gradient_upper_ratio").per_trial == \
            pytest.approx([stochastic], rel=1e-8)


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


def _item_chain_norm(weights, patterns, l1, l2, example, include_head):
    """One example's chain norm as the batteries take it, from the dense
    operator."""
    return float(np.linalg.norm(
        _dense_chain(weights, patterns, l1, l2, example, include_head), 2))


def _dense_chain(weights, patterns, l1, l2, example, include_head):
    dim = weights[l1 - 1].shape[0]
    last = l2 - 1 if include_head else l2
    m = _apply_chain(weights, patterns, l1, last, np.eye(dim), example)
    return weights[l2 - 1].T @ m if include_head else m


def _chain(weights, patterns, l1, l2, include_head):
    if include_head:
        return MaskedChain(weights, patterns, l1, l2 - 1, head=l2)
    return MaskedChain(weights, patterns, l1, l2)


def _output_rows(params, patterns, layer):
    """Each example's ``v^T chain_i`` over the masked layers layer..L, from
    the per-example loop."""
    eye = np.eye(params.layer_dims[layer - 1])
    return [params.output_vector @ _apply_chain(params.weights, patterns, layer,
                                                params.depth, eye, i)
            for i in range(patterns[0].shape[0])]


def _oracle_output_probe(params, patterns, layer, s):
    """The sup of |r . u| over s-sparse unit u: the 2-norm of the s entries
    of r largest in magnitude, taken by a full sort."""
    return max(float(np.linalg.norm(np.sort(np.abs(row))[::-1][:s]))
               for row in _output_rows(params, patterns, layer))


def _brute_force_output_probe(params, patterns, layer, s):
    """The sup of |r . u| over unit u on every support of min(s, dim)
    entries: on support S it is ||r_S||."""
    return max(float(np.linalg.norm(row[list(support)]))
               for row in _output_rows(params, patterns, layer)
               for support in itertools.combinations(range(row.size),
                                                     min(s, row.size)))


PAIRS_AND_FORMS = [(l1, l2, head)
                   for l1, l2 in itertools.combinations(range(1, 4), 2)
                   for head in (True, False)]


class TestMaskedChain:
    @pytest.fixture
    def net(self):
        # d=6: chains from layer 1 are thin (dense path), from layer 2 wide
        params, ds = small_battery_inputs(m=48, depth=3, n=6)
        return params, batch_forward(params, ds.inputs).patterns

    @pytest.fixture
    def wide_net(self):
        # d=20 > 16: every chain takes the Lanczos path
        params, ds = small_battery_inputs(m=64, depth=3, n=3, d=20)
        return params, batch_forward(params, ds.inputs).patterns

    @pytest.mark.parametrize("l1, l2, head", PAIRS_AND_FORMS)
    def test_apply_matches_dense_products(self, net, l1, l2, head):
        params, patterns = net
        chain = _chain(params.weights, patterns, l1, l2, head)
        rng = PortableRng(3)
        dim_in = params.weights[l1 - 1].shape[0]
        dim_out = params.weights[l2 - 1].shape[1]
        x = rng.normals(6 * 3 * dim_in).reshape(6, 3, dim_in)
        y = rng.normals(6 * 3 * dim_out).reshape(6, 3, dim_out)
        fx, ty = chain.apply(x), chain.apply_t(y)
        assert fx.shape == (6, 3, dim_out) and ty.shape == (6, 3, dim_in)
        for i in range(6):
            dense = _dense_chain(params.weights, patterns, l1, l2, i, head)
            np.testing.assert_allclose(fx[i], x[i] @ dense.T, rtol=0, atol=1e-12)
            np.testing.assert_allclose(ty[i], y[i] @ dense, rtol=0, atol=1e-12)
            # <apply x, y> = <x, apply_t y>, example by example
            assert abs(np.vdot(fx[i], y[i]) - np.vdot(x[i], ty[i])) <= 1e-12

    @pytest.mark.parametrize("l1, l2, head", PAIRS_AND_FORMS)
    def test_norms_match_per_example_loop(self, wide_net, l1, l2, head):
        params, patterns = wide_net
        n = patterns[0].shape[0]
        dim = params.weights[l1 - 1].shape[0]
        ref_rng, batch_rng = PortableRng(17), PortableRng(17)
        exact = [np.linalg.norm(_dense_chain(params.weights, patterns, l1, l2, i,
                                             head), 2) for i in range(n)]
        batched = _chain(params.weights, patterns, l1, l2, head).norms(
            batch_rng, tol=1e-10)
        np.testing.assert_allclose(batched, exact, rtol=1e-10, atol=0)
        for value, bound in zip(batched, exact):
            assert value <= bound * (1.0 + 1e-12)
        # a wide chain draws exactly n * dim normals
        ref_rng.normals(n * dim)
        assert ref_rng.raw(1)[0] == batch_rng.raw(1)[0]

    @pytest.mark.parametrize("l1, l2, head", PAIRS_AND_FORMS)
    def test_each_norm_is_its_chain_solved_alone(self, wide_net, l1, l2, head):
        # at tol 1e-3 the examples stop at different steps; a row kept
        # iterating past its own stop would read a larger norm
        params, patterns = wide_net
        n = patterns[0].shape[0]
        dim = params.weights[l1 - 1].shape[0]
        norms = _chain(params.weights, patterns, l1, l2, head).norms(
            PortableRng(17), tol=1e-3)
        starts = PortableRng(17).normals(n * dim).reshape(n, dim)
        for i in range(n):
            alone = _chain(params.weights, [p[i:i + 1] for p in patterns], l1, l2, head)
            theta, _, _, _ = linalg._lanczos(
                lambda rows, ids: alone.apply_t(alone.apply(rows[:, None, :]))[:, 0],
                starts[i:i + 1], 1e-3)
            assert norms[i] == pytest.approx(np.sqrt(theta[0]), rel=1e-12)

    @pytest.mark.parametrize("l1, l2, head",
                             [case for case in PAIRS_AND_FORMS if case[0] == 1])
    def test_thin_norms_are_exact(self, net, l1, l2, head):
        params, patterns = net
        ref_rng, dense_rng = PortableRng(17), PortableRng(17)
        norms = _chain(params.weights, patterns, l1, l2, head).norms(dense_rng,
                                                                     tol=1e-3)
        exact = [np.linalg.norm(_dense_chain(params.weights, patterns, l1, l2, i,
                                             head), 2) for i in range(6)]
        np.testing.assert_allclose(norms, exact, rtol=1e-12, atol=0)
        # a thin chain draws nothing
        assert ref_rng.raw(1)[0] == dense_rng.raw(1)[0]

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(d=st.integers(min_value=17, max_value=24),
           half=st.integers(min_value=4, max_value=20),
           depth=st.integers(min_value=2, max_value=3),
           n=st.integers(min_value=1, max_value=5),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_wide_norms_match_dense(self, d, half, depth, n, seed):
        params = init_network([d] + [2 * half] * depth, seed=seed)
        inputs = PortableRng(seed).normals(n * d).reshape(n, d)
        patterns = batch_forward(params, inputs).patterns
        for l1, l2 in itertools.combinations(range(1, depth + 1), 2):
            for head in (True, False):
                norms = _chain(params.weights, patterns, l1, l2, head).norms(
                    PortableRng(seed), tol=1e-10)
                exact = [np.linalg.norm(_dense_chain(
                    params.weights, patterns, l1, l2, i, head), 2) for i in range(n)]
                np.testing.assert_allclose(norms, exact, rtol=1e-8, atol=0)
                for value, bound in zip(norms, exact):
                    assert value <= bound * (1.0 + 1e-12)

    @pytest.mark.parametrize("l1, l2, head", [
        case for case in PAIRS_AND_FORMS
        if case[0] <= 2 <= (case[1] - 1 if case[2] else case[1])])
    def test_dead_example_has_norm_zero(self, wide_net, l1, l2, head):
        params, patterns = wide_net
        patterns = [p.copy() for p in patterns]
        patterns[1][1] = False          # example 1 has no active layer-2 unit
        norms = _chain(params.weights, patterns, l1, l2, head).norms(
            PortableRng(5), tol=1e-10)
        assert norms[1] == 0.0
        for i in (0, 2):
            exact = np.linalg.norm(_dense_chain(params.weights, patterns, l1, l2,
                                                i, head), 2)
            assert norms[i] == pytest.approx(exact, rel=1e-10, abs=0)

    def test_nan_weight_gives_inf(self, wide_net, monkeypatch):
        # a NaN product ends the solve at once, well before this cap
        monkeypatch.setattr(linalg, "_lanczos",
                            functools.partial(linalg._lanczos, max_iter=2))
        params, patterns = wide_net
        weights = [w.copy() for w in params.weights]
        weights[1][0, 0] = np.nan
        norms = MaskedChain(weights, patterns, 1, 3).norms(PortableRng(5), tol=1e-10)
        assert np.array_equal(norms, np.full(3, np.inf))

    @pytest.mark.parametrize("fixture", ["net", "wide_net"])
    def test_overflowing_chain_gives_inf_on_both_paths(self, request, fixture):
        params, patterns = request.getfixturevalue(fixture)
        weights = [w.copy() for w in params.weights]
        weights[1] *= 1e300
        weights[2] *= 1e300
        norms = MaskedChain(weights, patterns, 1, 3).norms(PortableRng(5), tol=1e-3)
        assert np.array_equal(norms, np.full(patterns[0].shape[0], np.inf))

    @pytest.mark.parametrize("scale", [1e-60, 1e-100])
    def test_underflowing_chain_is_solved_at_scale(self, scale):
        # the Gram products of norms near 1e-180 underflow; example 1 has
        # no active layer-2 unit, and its zero operator stays 0
        params = init_network([20, 64, 64, 64], seed=3)
        ds = generate_separated(n=3, d=20, mu=0.5, phi=0.08, seed=0)
        patterns = [p.copy() for p in batch_forward(params, ds.inputs).patterns]
        patterns[1][1] = False
        weights = [scale * w for w in params.weights]
        norms = MaskedChain(weights, patterns, 1, 3).norms(PortableRng(5), tol=1e-10)
        exact = [np.linalg.norm(_dense_chain(weights, patterns, 1, 3, i, False), 2)
                 for i in range(3)]
        assert exact[1] == norms[1] == 0.0
        assert 0.0 < min(exact[0], exact[2]) < 1e-170
        np.testing.assert_allclose(norms, exact, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("head", [True, False])
    def test_all_examples_dead(self, wide_net, head):
        params, patterns = wide_net
        patterns = [p.copy() for p in patterns]
        patterns[1][:] = False
        norms = _chain(params.weights, patterns, 1, 3, head).norms(
            PortableRng(5), tol=1e-3)
        assert np.array_equal(norms, np.zeros(3))

    @pytest.mark.parametrize("head", [True, False])
    @pytest.mark.parametrize("fixture", ["net", "wide_net"])
    def test_norms_follow_exact_weight_scaling(self, request, fixture, head):
        # 2**k on each of the chain's three weights scales every norm by
        # exactly 2**(3k), also where the Gram products of the wide path
        # would land in subnormals (k near -170) or overflow (k >= 222)
        params, patterns = request.getfixturevalue(fixture)
        base = _chain(params.weights, patterns, 1, 3, head).norms(
            PortableRng(5), tol=1e-10)
        for k in (-340, -172, -170, 222, 300):
            weights = [np.ldexp(w, k) for w in params.weights]
            norms = _chain(weights, patterns, 1, 3, head).norms(
                PortableRng(5), tol=1e-10)
            assert np.array_equal(norms, np.ldexp(base, 3 * k)), k

    @pytest.mark.parametrize("fixture", ["net", "wide_net"])
    def test_head_exponent_folded_past_float_range(self, request, fixture):
        # 2**k on the last masked layer and on the head would fold 2**-2k
        # into the last mask, which no float holds: norms near 2**1200 read
        # inf, not 0, and norms near 2**-1120 read 0, with no warning
        params, patterns = request.getfixturevalue(fixture)
        n = patterns[0].shape[0]
        for k, expected in ((600, np.inf), (-560, 0.0)):
            weights = params.weights[:1] + [np.ldexp(w, k) for w in params.weights[1:]]
            norms = MaskedChain(weights, patterns, 1, 2, head=3).norms(
                PortableRng(5), tol=1e-10)
            assert np.array_equal(norms, np.full(n, expected)), k


def _chain_matrix(params, patterns, l1, l2, example):
    """Example's ``W_l2^T D_{l2-1} W_{l2-1}^T ... D_{l1} W_l1^T`` as one
    explicit matrix, with the masks as diagonal matrices."""
    c = params.weights[l1 - 1].T
    for r in range(l1, l2):
        c = params.weights[r].T @ np.diag(patterns[r - 1][example].astype(float)) @ c
    return c


class TestBilinearProbe:
    """_bilinear_probe's largest block value against max |b^T C_i a| over
    explicit chain matrices.
    With d = 6, 8 probes take layer 1 through its masked rows and 4 probes
    through the probe images; a later layer (m = 24) always takes the images.
    A budget of 3072 bytes puts two examples in a block, so n = 5 runs in
    blocks of 2, 2 and 1."""

    @pytest.mark.parametrize("probes", [4, 8])
    @pytest.mark.parametrize("block_bytes", [None, 3072])
    def test_matches_dense_chains(self, monkeypatch, probes, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(verify, "_PROBE_BLOCK_BYTES", block_bytes)
        params, ds = small_battery_inputs(m=24, depth=3, n=5, d=6)
        patterns = batch_forward(params, ds.inputs).patterns
        rng = PortableRng(9)
        for l1, l2 in itertools.combinations(range(1, 4), 2):
            a = _sparse_probes(params.layer_dims[l1 - 1], 3, probes, rng)
            b = _sparse_probes(params.layer_dims[l2], 3, probes, rng)
            dense = max(float(np.max(np.abs(
                b.T @ _chain_matrix(params, patterns, l1, l2, i) @ a)))
                for i in range(5))
            assert max(_bilinear_probe(params, patterns, l1, l2, a, b)) == \
                pytest.approx(dense, rel=1e-12, abs=0)


class TestChainItemsAgainstLoops:
    """Each chain item of both batteries against the per-example loop, fed
    the item's window of the battery's stream."""

    def test_init_battery(self):
        params, ds = small_battery_inputs(m=48, depth=3, n=6)
        patterns = batch_forward(params, ds.inputs).patterns
        items = ("chain_product_norm", "sparse_output_probe",
                 "sparse_bilinear_probe")
        pairs = list(itertools.combinations(range(1, 4), 2))
        for name in items:
            rng = item_window(21, INIT_ITEMS.index(name))   # trial 0, seed 21
            if name == "chain_product_norm":
                value = max(_item_chain_norm(params.weights, patterns, l1, l2,
                                             i, include_head=True)
                            for l1, l2 in pairs for i in range(6))
            elif name == "sparse_output_probe":
                value = max(_oracle_output_probe(params, patterns, l, 3)
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
            report = verify_init_properties(
                params, ds, sparsity_s=3, **battery_settings(
                    trials=1, seed=21, probes=8, items=(name,), spectral_tol=1e-10))
            assert report.entry(name).per_trial[0] == pytest.approx(value, rel=1e-10)

    def test_perturbation_battery(self):
        params, ds = small_battery_inputs(m=48, depth=3, n=6)
        tilde = params.copy()
        # small enough that the derived probe support stays below m = 48
        tilde.weights[1] = tilde.weights[1] + 0.002 * PortableRng(4).normals(
            48 * 48).reshape(48, 48)
        report = verify_perturbation_properties(params, tilde, ds, seed=5,
                                                spectral_tol=1e-10)
        tau = report.meta["measured_tau"]
        # the probe support is the expected pattern drift
        s = min(48, math.ceil(3 ** (4.0 / 3.0) * tau ** (2.0 / 3.0) * 48))
        assert 1 < s < 48
        patterns = batch_forward(tilde, ds.inputs).patterns
        chain = max(_item_chain_norm(tilde.weights, patterns, l1, l2, i,
                                     include_head=False)
                    for l1, l2 in itertools.combinations(range(1, 4), 2)
                    for i in range(6))
        probe = max(_oracle_output_probe(tilde, patterns, l, s) for l in range(1, 4))
        scale = 3 ** (5.0 / 3.0) * tau ** (1.0 / 3.0) * math.sqrt(48 * math.log(48))
        assert report.entry("perturbed_chain_norm").measured * 3 == \
            pytest.approx(chain, rel=1e-10)
        assert report.entry("perturbed_sparse_probe").measured * scale == \
            pytest.approx(probe, rel=1e-10)
        assert report.entry("perturbed_sparse_probe").note == f"probe sparsity {s}"


class TestOutputProbe:
    """_output_probe, the closed-form sup over s-sparse unit vectors, against
    brute force over supports and against the random probes it replaced."""

    @pytest.mark.parametrize("s", [1, 2, 4, 6])
    def test_matches_brute_force_over_supports(self, s):
        # d = 4 and m = 6: s < dim, s = dim and (layer 1 at s = 6) s > dim
        params, ds = small_battery_inputs(m=6, depth=3, n=4, d=4, seed=2)
        trace = batch_forward(params, ds.inputs)
        values = verify._output_probe(params, trace, s)
        exact = [_brute_force_output_probe(params, trace.patterns, l, s)
                 for l in range(1, 4)]
        np.testing.assert_allclose(values, exact, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_at_least_every_random_probe(self, seed):
        params, ds = small_battery_inputs(m=48, depth=3, n=6, seed=seed)
        trace = batch_forward(params, ds.inputs)
        rng = PortableRng(seed)
        for l, (value, w) in enumerate(zip(verify._output_probe(params, trace, 3),
                                           params.weights), 1):
            probes = _sparse_probes(w.shape[0], 3, 64, rng)
            sampled = max(float(np.max(np.abs(row @ probes)))
                          for row in _output_rows(params, trace.patterns, l))
            assert sampled <= value * (1.0 + 1e-12)

    def test_entries_ignore_probes_and_seed(self):
        params, ds = small_battery_inputs(m=48, depth=3, n=6)
        init = [verify_init_properties(params, ds, **battery_settings(
                    trials=1, seed=seed, probes=probes, items=("sparse_output_probe",)))
                .entry("sparse_output_probe").per_trial
                for seed, probes in ((0, 1), (7, 64))]
        assert init[0] == init[1]
        tilde = params.copy()
        tilde.weights[1] = tilde.weights[1] + 0.002 * PortableRng(4).normals(
            48 * 48).reshape(48, 48)
        pert = [verify_perturbation_properties(params, tilde, ds, seed=seed)
                .entry("perturbed_sparse_probe").per_trial for seed in (0, 7)]
        assert pert[0] == pert[1]
