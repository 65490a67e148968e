import dataclasses
import itertools
import logging
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overparam import linalg, network, optim
from overparam.data import generate_separated
from overparam.linalg import THIN_SIDE, PortableRng, gaussian_matrix, power_iteration
from overparam.losses import builtin_loss
from overparam.network import (NetworkParams, backprop_signals, batch_forward,
                               gradient_factors, init_network)
from overparam.optim import (TrainConfig, TrajectoryRecord, TrajectoryRow,
                             run_gd, run_sgd, theoretical_step_size,
                             write_trajectory_csv)
from overparam.verify import perturbation_radius

from oracles import loss_gradient


def small_problem(n=8, d=4, m=16, depth=2, phi=0.05, data_seed=1, net_seed=2):
    ds = generate_separated(n=n, d=d, mu=0.5, phi=phi, seed=data_seed)
    params = init_network([d] + [m] * depth, seed=net_seed)
    return params, ds


def column(record, name):
    """One field of every recorded row, in order."""
    return [getattr(row, name) for row in record.rows]


def oracle_iterates(params, ds, loss, eta, steps, batch_size=None, seed=0):
    """Weights W_0..W_steps of the update loop written out directly: every
    step backpropagates, gathers the batch rows and forms a fresh
    ``W - eta * G`` per layer.  Batches are run_sgd's fresh draws."""
    n = ds.n
    y = ds.labels
    rng = PortableRng(seed)
    weights = [w.copy() for w in params.weights]
    iterates = [weights]
    for _ in range(steps):
        net = NetworkParams(params.layer_dims, weights, params.output_vector)
        trace = batch_forward(net, ds.inputs)
        lprime = loss.deriv(y * trace.outputs)
        batch = np.arange(n) if batch_size is None \
            else rng.sample_without_replacement(n, batch_size)
        coeff = lprime[batch] * y[batch] / batch.shape[0]
        signals = backprop_signals(net, trace.patterns)
        weights = [w - eta * (h[batch].T @ (coeff[:, None] * g[batch]))
                   for w, h, g in zip(weights, trace.hidden, signals)]
        iterates.append(weights)
    return iterates


class TestStepSize:
    def test_unit_arguments(self):
        assert theoretical_step_size(1, 1, 1, 1.0, scale=1.0) == 1.0

    def test_width_halves_step(self):
        a = theoretical_step_size(10, 2, 100, 0.1, scale=1.0)
        b = theoretical_step_size(10, 2, 200, 0.1, scale=1.0)
        assert b == pytest.approx(a / 2, rel=1e-15)

    def test_arithmetic(self):
        # 1e6 * 0.1 / (20^3 * 3^9 * 1000)
        got = theoretical_step_size(20, 3, 1000, 0.1, scale=1e6)
        assert got == pytest.approx(1e5 / (8000.0 * 19683.0 * 1000.0), rel=1e-15)
        assert got == pytest.approx(6.350658334e-7, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            theoretical_step_size(0, 1, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            theoretical_step_size(1, 1, 1, -1.0, 1.0)


class TestRunGd:
    def test_zero_step_size_keeps_params(self):
        params, ds = small_problem()
        loss = builtin_loss("logistic")
        k = 7
        final, rec = run_gd(params, ds, loss,
                            TrainConfig(max_iters=k, eta=0.0, tau=1.0))
        assert len(rec.rows) == k + 1
        assert rec.stop_reason == "max_iters"
        assert len(set(column(rec, "loss"))) == 1
        for wa, wb in zip(final.weights, params.weights):
            assert np.array_equal(wa, wb)

    def test_one_step_equals_explicit_gradient(self):
        params, ds = small_problem()
        loss = builtin_loss("logistic")
        eta = 0.01
        grads = loss_gradient(params, ds, loss)
        final, rec = run_gd(params, ds, loss,
                            TrainConfig(max_iters=1, eta=eta, tau=1.0))
        assert rec.summary()["iterations"] == 1
        for w1, w0, g in zip(final.weights, params.weights, grads):
            assert np.array_equal(w1, w0 - eta * g)

    def test_stops_at_target_loss_immediately(self):
        params, ds = small_problem()
        loss = builtin_loss("logistic")
        final, rec = run_gd(params, ds, loss,
                            TrainConfig(max_iters=50, eta=0.01, tau=1.0,
                                        target_loss=10.0))
        assert rec.stop_reason == "target_loss"
        assert rec.summary()["iterations"] == 0
        assert len(rec.rows) == 1
        for wa, wb in zip(final.weights, params.weights):
            assert np.array_equal(wa, wb)

    def test_divergence_preserves_last_finite_row(self):
        params, ds = small_problem()
        loss = builtin_loss("exponential")
        final, rec = run_gd(params, ds, loss,
                            TrainConfig(max_iters=300, eta=1e6, tau=1e9))
        assert rec.stop_reason == "diverged"
        losses = column(rec, "loss")
        assert not np.isfinite(losses[-1])
        assert all(np.isfinite(v) for v in losses[:-1])

    def test_diverged_run_warns_only_on_finite_rows(self):
        params, ds = small_problem()
        final, rec = run_gd(params, ds, builtin_loss("exponential"),
                            TrainConfig(max_iters=300, eta=1.0, tau=1e-3))
        assert rec.stop_reason == "diverged"
        nan_row = rec.rows[-1].k
        assert rec.warnings
        assert all(k < nan_row for k, _, _ in rec.warnings)
        assert rec.summary()["budget_warnings"] == len(rec.warnings)

    def test_budget_warning_iff_radius_exceeds_tau(self):
        params, ds = small_problem()
        loss = builtin_loss("logistic")
        tau = 1e-4
        final, rec = run_gd(params, ds, loss,
                            TrainConfig(max_iters=40, eta=0.05, tau=tau))
        radii = perturbation_radius(final, params)
        assert max(radii) > tau  # run genuinely leaves the region
        assert rec.warnings
        for k, layer, value in rec.warnings:
            fresh = rec.rows[k].radius[layer - 1]
            assert value == pytest.approx(fresh, rel=1e-12)
            assert value > tau
        # every recorded exceedance has a warning event
        events = {(k, layer) for k, layer, _ in rec.warnings}
        for row in rec.rows:
            for layer in range(1, rec.layer_count + 1):
                if row.radius[layer - 1] > tau:
                    assert (row.k, layer) in events

    def test_recorded_radii_match_fresh_recomputation(self):
        params, ds = small_problem()
        loss = builtin_loss("logistic")
        config = TrainConfig(max_iters=15, eta=0.05, tau=10.0)
        final, rec = run_gd(params, ds, loss, config)
        fresh = perturbation_radius(final, params)
        # the final radii are the last row's, solved warm like every row's
        final_radii = rec.summary()["final_radii"]
        for got, expected in zip(final_radii, fresh):
            assert got == pytest.approx(expected, rel=1e-6, abs=1e-12)
        assert rec.stop_reason == "max_iters"
        dense = [np.linalg.norm(w - w0, 2)
                 for w, w0 in zip(final.weights, params.weights)]
        np.testing.assert_allclose(final_radii, dense, rtol=1e-9, atol=0)

    def test_final_radii_of_a_zero_error_stop_are_its_last_row(self):
        params, ds = small_problem(m=64)
        final, rec = run_gd(params, ds, builtin_loss("logistic"),
                            TrainConfig(max_iters=2000, eta=0.01, tau=100.0))
        summary = rec.summary()
        assert rec.stop_reason == "zero_error" and summary["iterations"] > 0
        assert summary["final_radii"] == rec.rows[-1].radius
        dense = [np.linalg.norm(w - w0, 2)
                 for w, w0 in zip(final.weights, params.weights)]
        np.testing.assert_allclose(summary["final_radii"], dense, rtol=1e-9, atol=0)

    def test_descent_on_small_problem(self):
        params, ds = small_problem(m=64)
        loss = builtin_loss("logistic")
        final, rec = run_gd(params, ds, loss,
                            TrainConfig(max_iters=400, eta=0.005, tau=10.0,
                                        target_loss=1e-6))
        losses = column(rec, "loss")
        diffs = np.diff(losses)
        assert np.mean(diffs <= 1e-12) >= 0.99
        assert losses[-1] < losses[0]

    def test_rejects_batch_size(self):
        # a batch size is a minibatch run, which run_sgd draws
        params, ds = small_problem()
        with pytest.raises(ValueError, match="run_gd takes no batch_size"):
            run_gd(params, ds, builtin_loss("logistic"),
                   TrainConfig(max_iters=3, eta=0.01, tau=1.0, batch_size=3))


class TestRunSgd:
    def test_full_batch_reduces_to_gd_bitwise(self):
        params, ds = small_problem()
        loss = builtin_loss("logistic")
        cfg_gd = TrainConfig(max_iters=25, eta=0.02, tau=1.0)
        cfg_sgd = TrainConfig(max_iters=25, eta=0.02, tau=1.0,
                              batch_size=ds.n)
        final_gd, rec_gd = run_gd(params, ds, loss, cfg_gd)
        final_sgd, rec_sgd = run_sgd(params, ds, loss, cfg_sgd)
        for name in ("loss", "radius", "grad_spec"):
            assert column(rec_gd, name) == column(rec_sgd, name)
        for wa, wb in zip(final_gd.weights, final_sgd.weights):
            assert np.array_equal(wa, wb)

    def test_requires_batch_size(self):
        params, ds = small_problem()
        with pytest.raises(ValueError):
            run_sgd(params, ds, builtin_loss("logistic"),
                    TrainConfig(max_iters=3, eta=0.01, tau=1.0))

    def test_batch_average_over_all_subsets_is_full_gradient(self):
        # enumerate every size-B batch: the mean batch gradient must equal
        # the full gradient (each example appears in C(n-1, B-1) subsets)
        params, ds = small_problem(n=6, m=8, depth=2)
        loss = builtin_loss("logistic")
        full = loss_gradient(params, ds, loss)
        trace = batch_forward(params, ds.inputs)
        y = ds.labels
        lprime = loss.deriv(y * trace.outputs)
        batch_size = 2
        sums = [np.zeros_like(w) for w in params.weights]
        count = 0
        for subset in itertools.combinations(range(6), batch_size):
            rows = np.asarray(subset)
            factors = gradient_factors(params, trace, y, lprime, rows=rows)
            for acc, (a, b) in zip(sums, factors):
                acc += a.T @ b
            count += 1
        for acc, g in zip(sums, full):
            assert np.allclose(acc / count, g, rtol=1e-12, atol=1e-14)

    def test_fresh_batches_without_replacement(self):
        params, ds = small_problem()
        loss = builtin_loss("logistic")
        final, rec = run_sgd(params, ds, loss,
                             TrainConfig(max_iters=30, eta=0.01, tau=1.0,
                                         batch_size=3, seed=5))
        assert rec.stop_reason in ("max_iters", "zero_error", "target_loss")
        assert len(rec.rows) >= 1

    def test_sgd_deterministic_under_seed(self):
        params, ds = small_problem()
        loss = builtin_loss("logistic")
        cfg = TrainConfig(max_iters=20, eta=0.01, tau=1.0, batch_size=3, seed=7)
        _, rec_a = run_sgd(params, ds, loss, cfg)
        _, rec_b = run_sgd(params, ds, loss, cfg)
        assert column(rec_a, "loss") == column(rec_b, "loss")
        assert column(rec_a, "batch_sum_lprime") == column(rec_b, "batch_sum_lprime")


class TestTrainingPath:
    # at m=16 every layer difference is thin and its radius exact; at m=64
    # the (64, 64) layer takes the warm Lanczos solve
    @pytest.mark.parametrize("batch_size, m", [
        pytest.param(None, 16, id="None"), pytest.param(3, 16, id="3"),
        pytest.param(None, 64, id="None-64"), pytest.param(3, 64, id="3-64")])
    def test_matches_oracle_loop_bitwise(self, batch_size, m):
        params, ds = small_problem(m=m)
        loss = builtin_loss("logistic")
        config = TrainConfig(max_iters=12, eta=0.05, tau=10.0, seed=4,
                             batch_size=batch_size)
        run = run_gd if batch_size is None else run_sgd
        final, rec = run(params, ds, loss, config)
        assert rec.stop_reason == "max_iters"
        iterates = oracle_iterates(params, ds, loss, 0.05, rec.rows[-1].k,
                                   batch_size=batch_size, seed=4)
        for w, expected in zip(final.weights, iterates[-1]):
            assert np.array_equal(w, expected)
        # every exact radius and every bound against a dense norm of that
        # row's iterate; a Ritz value approaches the norm from below
        solved = 0
        for row in rec.rows:
            for r, bound, w, w0 in zip(row.radius, row.radius_bound,
                                       iterates[row.k], params.weights):
                dense = np.linalg.norm(w - w0, 2)
                assert bound >= dense * (1.0 - 1e-9)
                if r is not None:
                    solved += 1
                    thin = min(w.shape) <= THIN_SIDE
                    assert r == pytest.approx(dense, rel=1e-12 if thin else 1e-9,
                                              abs=0.0)
        # tau 10 is above every bound: the snapshots 0, 3, 6, 9 and 12 solve
        assert solved == 5 * params.depth

    @pytest.mark.parametrize("m", [300, 16])
    def test_blocked_update_matches_dense_product(self, m):
        # m=300 splits each hidden weight into a full row block and a partial
        # one; m=16 fits every weight in one block
        rows = optim._UPDATE_BYTES // (8 * m)
        assert (m > rows and m % rows) or m < rows
        params, ds = small_problem(m=m)
        loss = builtin_loss("logistic")
        eta = 0.05
        final, rec = run_gd(params, ds, loss,
                            TrainConfig(max_iters=1, eta=eta, tau=10.0))
        assert rec.rows[-1].k == 1
        trace = batch_forward(params, ds.inputs)
        factors = gradient_factors(params, trace, ds.labels,
                                   loss.deriv(ds.labels * trace.outputs))
        for w1, w0, (a, b) in zip(final.weights, params.weights, factors):
            np.testing.assert_array_max_ulp(w1, w0 - eta * (a.T @ b), maxulp=2)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(min_value=2, max_value=8),
           d=st.integers(min_value=3, max_value=6),
           m=st.sampled_from([6, 16, 40, 258, 300]),
           depth=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           eta=st.floats(min_value=1e-3, max_value=0.2))
    def test_full_batch_sgd_equals_gd_bitwise(self, n, d, m, depth, seed, eta):
        # a hidden weight spans more than one update row block when m > 256
        params, ds = small_problem(n=n, d=d, m=m, depth=depth,
                                   data_seed=seed, net_seed=seed + 1)
        loss = builtin_loss("logistic")
        final_gd, rec_gd = run_gd(params, ds, loss,
                                  TrainConfig(max_iters=4, eta=eta, tau=1.0))
        final_sgd, rec_sgd = run_sgd(params, ds, loss,
                                     TrainConfig(max_iters=4, eta=eta, tau=1.0,
                                                 batch_size=n, seed=seed))
        for wa, wb in zip(final_gd.weights, final_sgd.weights):
            assert np.array_equal(wa, wb)
        assert len(rec_gd.rows) == len(rec_sgd.rows)
        for ra, rb in zip(rec_gd.rows, rec_sgd.rows):
            for f in fields(ra):
                assert getattr(ra, f.name) == getattr(rb, f.name), f.name
        assert rec_gd.summary() == rec_sgd.summary()

    @pytest.mark.parametrize("batch_size", [None, 3])
    def test_one_backprop_pass_per_update_step(self, monkeypatch, batch_size):
        calls = []

        def counting(params, patterns):
            calls.append(patterns)
            return backprop_signals(params, patterns)

        monkeypatch.setattr(network, "backprop_signals", counting)
        params, ds = small_problem()
        run = run_gd if batch_size is None else run_sgd
        _, rec = run(params, ds, builtin_loss("logistic"),
                     TrainConfig(max_iters=9, eta=0.02, tau=10.0,
                                 batch_size=batch_size))
        assert rec.stop_reason == "max_iters"
        # a row for each of the 10 iterates, the last one's as at any stop
        assert len(calls) == len(rec.rows) == rec.rows[-1].k + 1 == 10
        # each pass backprops the batch rows only
        rows = ds.n if batch_size is None else batch_size
        for patterns in calls:
            assert all(p.shape[0] == rows for p in patterns)

    @pytest.mark.parametrize("name, batch_size, eta, stop", [
        ("logistic", None, 0.02, "max_iters"), ("logistic", 3, 0.02, "max_iters"),
        ("exponential", None, 1e6, "diverged")])
    def test_one_loss_derivative_per_finite_row(self, name, batch_size, eta, stop):
        # the row's derivative sums and the update's gradient share one
        # evaluation of l' on every margin; a row whose loss is not finite
        # takes none
        base = builtin_loss(name)
        calls = []

        def counting(margins):
            calls.append(margins.shape)
            return base.deriv(margins)

        params, ds = small_problem()
        run = run_gd if batch_size is None else run_sgd
        _, rec = run(params, ds, dataclasses.replace(base, deriv=counting),
                     TrainConfig(max_iters=9, eta=eta, tau=1e9,
                                 batch_size=batch_size))
        assert rec.stop_reason == stop
        finite = sum(1 for row in rec.rows if math.isfinite(row.loss))
        assert calls == [(ds.n,)] * finite

    def test_budget_warnings_logged_once_per_layer(self, caplog):
        params, ds = small_problem()
        loss = builtin_loss("logistic")
        with caplog.at_level(logging.WARNING, logger="overparam.optim"):
            _, rec = run_gd(params, ds, loss,
                            TrainConfig(max_iters=40, eta=0.05, tau=1e-4))
        assert len(rec.warnings) > 3 * params.depth  # over budget for many steps
        lines = [r.getMessage() for r in caplog.records
                 if r.levelno == logging.WARNING]
        assert 1 <= len(lines) <= params.depth
        for layer in range(1, params.depth + 1):
            events = [w for w in rec.warnings if w[1] == layer]
            if not events:
                continue
            k, _, radius = events[0]
            line, = [m for m in lines if m.startswith(f"layer {layer} ")]
            assert f"at iteration {k} " in line
            assert f"{len(events)} recorded iterations over budget" in line


def solved_layers(row):
    return [l for l, r in enumerate(row.radius, 1) if r is not None]


class TestRadiusSolves:
    """Exact radii only where a decision reads them: at the snapshot rows, at
    the last row, and for a layer whose step-length bound exceeds tau."""

    # the middle tau of each run has bounds on both sides of it
    @pytest.mark.parametrize("batch_size, tau", [
        (None, 1e3), (None, 0.05), (None, 1e-9), (3, 1e3), (3, 0.2), (3, 1e-9)],
        ids=["gd-above", "gd-middle", "gd-below", "sgd-above", "sgd-middle",
             "sgd-below"])
    def test_solves_follow_the_bound(self, batch_size, tau):
        params, ds = small_problem(m=64)
        run = run_gd if batch_size is None else run_sgd
        _, rec = run(params, ds, builtin_loss("logistic"),
                     TrainConfig(max_iters=10, eta=0.05, tau=tau,
                                 batch_size=batch_size))
        assert rec.stop_reason == "max_iters"
        assert rec.rows[0].radius == rec.rows[0].radius_bound == [0.0, 0.0]
        for prev, row in zip(rec.rows, rec.rows[1:]):
            # the last exact radius, or bound, plus the step's length
            assert row.radius_bound == [
                (b if r is None else r) + rec.eta * g
                for b, r, g in zip(prev.radius_bound, prev.radius, prev.grad_spec)]
            snapshot = row.k in (2, 5, 7, 10)
            assert solved_layers(row) == [
                l for l, b in enumerate(row.radius_bound, 1) if snapshot or b > tau]
        bounds = [b for row in rec.rows[1:] for b in row.radius_bound]
        if tau == 1e3:      # only the snapshots and the last row
            assert max(bounds) < tau
        elif tau == 1e-9:   # every row past the first
            assert min(bounds) > tau
        else:               # bounds on both sides, and per layer
            assert min(bounds) < tau < max(bounds)
            assert any(len(solved_layers(row)) == 1 for row in rec.rows)
        assert rec.summary()["max_radius_bound"] == max(bounds)

    @staticmethod
    def count_work_arrays(monkeypatch):
        shapes = []

        def counting(shape):
            shapes.append(tuple(shape))
            return linalg.aligned_empty(shape)

        monkeypatch.setattr(optim, "aligned_empty", counting)
        return shapes

    def test_last_row_solves_make_no_work_array(self, monkeypatch):
        # a one-step GD run records radii 0 at k = 0 and solves only at its
        # last row, where each wide layer streams its difference from the pair
        shapes = self.count_work_arrays(monkeypatch)
        params, ds = small_problem(m=64, depth=3)
        _, rec = run_gd(params, ds, builtin_loss("logistic"),
                        TrainConfig(max_iters=1, eta=0.05, tau=1e3))
        assert [row.k for row in rec.rows] == [0, 1]
        assert solved_layers(rec.rows[-1]) == [1, 2, 3]
        assert shapes == []

    def test_mid_run_solves_make_one_work_array_per_wide_shape(self, monkeypatch):
        # every row past the first solves every layer: the thin (4, 20)
        # layer makes no work array, and each wide shape makes one
        shapes = self.count_work_arrays(monkeypatch)
        ds = generate_separated(n=8, d=4, mu=0.5, phi=0.05, seed=1)
        params = init_network([4, 20, 30, 30], seed=2)
        _, rec = run_sgd(params, ds, builtin_loss("logistic"),
                         TrainConfig(max_iters=10, eta=0.05, tau=1e-9, batch_size=3))
        assert all(solved_layers(row) == [1, 2, 3] for row in rec.rows)
        assert len(rec.rows) > 3
        assert shapes == [(20, 30), (30, 30)]

    @pytest.mark.parametrize("loss_name, eta, nan_weight", [
        ("exponential", 1e6, False), ("logistic", 0.01, True)],
        ids=["loss-diverged", "gradient-diverged"])
    def test_diverged_row_solves_nothing(self, loss_name, eta, nan_weight):
        params, ds = small_problem()
        if nan_weight:
            params.weights[1][0, 0] = np.nan
        _, rec = run_gd(params, ds, builtin_loss(loss_name),
                        TrainConfig(max_iters=300, eta=eta, tau=1e-3))
        assert rec.stop_reason == "diverged"
        last = rec.rows[-1]
        assert last.radius == [None] * params.depth
        assert all(not math.isnan(b) for b in last.radius_bound)
        # every row before it is over the budget, so solved in full
        assert all(solved_layers(row) == [1, 2] for row in rec.rows[:-1])


class TestZeroErrorCheck:
    """The misclassified count of a run: y_i f(x_i) <= 0, ties included."""

    @staticmethod
    def count_at_start(params, ds):
        _, rec = run_gd(params, ds, builtin_loss("logistic"),
                        TrainConfig(max_iters=0, eta=0.01, tau=1.0))
        misclassified = rec.summary()["final_misclassified"]
        assert misclassified == rec.rows[0].misclassified
        return misclassified

    def test_zero_weights_all_ties_count(self):
        params, ds = small_problem()
        params.weights = [np.zeros_like(w) for w in params.weights]
        assert self.count_at_start(params, ds) == ds.n

    def test_perfect_fit(self):
        params, ds = small_problem(m=64)
        loss = builtin_loss("logistic")
        final, rec = run_gd(params, ds, loss,
                            TrainConfig(max_iters=2000, eta=0.01, tau=100.0))
        assert rec.stop_reason == "zero_error"
        assert rec.summary()["final_misclassified"] == 0
        outputs = batch_forward(final, ds.inputs).outputs
        assert np.count_nonzero(ds.labels * outputs <= 0.0) == 0

    def test_hand_built_sign_flip(self):
        params, ds = small_problem(n=4, m=32)
        trace = batch_forward(params, ds.inputs)
        ds.labels = np.sign(trace.outputs)
        ds.labels[2] = -ds.labels[2]
        assert self.count_at_start(params, ds) == 1


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class TestRecordOfEveryIterate:
    """Every iterate a run reaches has a row, the returned one last, and the
    summary's final values are that row's."""

    @pytest.mark.parametrize("loss_name, config, nan_weight, stop", [
        ("logistic", dict(max_iters=0, eta=0.01, tau=1e-3), False, "max_iters"),
        ("logistic", dict(max_iters=1, eta=0.01, tau=1e-3), False, "max_iters"),
        ("logistic", dict(max_iters=5, eta=0.01, tau=1e-3), False, "max_iters"),
        ("logistic", dict(max_iters=2000, eta=0.05, tau=1e-3, target_loss=0.6),
         False, "target_loss"),
        ("logistic", dict(max_iters=2000, eta=0.05, tau=1e-3), False, "zero_error"),
        ("exponential", dict(max_iters=300, eta=1e6, tau=1e9), False, "diverged"),
        ("logistic", dict(max_iters=5, eta=0.01, tau=1e-3), True, "diverged"),
    ], ids=["cap-0", "cap-1", "cap-5", "target-loss", "zero-error",
            "loss-diverged", "gradient-diverged"])
    def test_last_row_is_the_returned_iterate(self, loss_name, config,
                                              nan_weight, stop):
        params, ds = small_problem()
        if nan_weight:
            # the ReLU maps the NaN pre-activations to 0, so the loss stays
            # finite while backprop carries the NaN into the layer-1 gradient
            params.weights[1][0, 0] = np.nan
        loss = builtin_loss(loss_name)
        final, rec = run_gd(params, ds, loss, TrainConfig(**config))
        summary = rec.summary()
        assert rec.stop_reason == summary["stop_reason"] == stop
        last = rec.rows[-1]
        assert len(rec.rows) == summary["iterations"] + 1 == summary["rows"]
        assert last.k == summary["iterations"]
        if stop == "max_iters":
            assert last.k == config["max_iters"]
        assert same(summary["final_loss"], last.loss)
        assert summary["final_misclassified"] == last.misclassified
        margins = ds.labels * batch_forward(final, ds.inputs).outputs
        assert same(float(np.mean(loss.value(margins))), last.loss)
        if stop == "diverged":
            assert summary["final_radii"] == []
        else:
            assert summary["final_radii"] == last.radius
            dense = [np.linalg.norm(w - w0, 2)
                     for w, w0 in zip(final.weights, params.weights)]
            np.testing.assert_allclose(last.radius, dense, rtol=1e-9, atol=0)
        if stop == "diverged":
            assert last.radius == [None] * params.depth
        recorded = [r for row in rec.rows for r in row.radius if r is not None]
        assert summary["max_recorded_radius"] == max(recorded, default=None)
        assert summary["budget_warnings"] == sum(r > rec.tau for r in recorded)

    def test_gradient_divergence_stops_before_any_update(self):
        params, ds = small_problem()
        params.weights[1][0, 0] = np.nan
        final, rec = run_gd(params, ds, builtin_loss("logistic"),
                            TrainConfig(max_iters=5, eta=0.01, tau=1.0))
        assert rec.stop_reason == "diverged"
        last, = rec.rows
        assert np.isfinite(last.loss) and last.misclassified >= 0
        assert math.isnan(last.grad_spec[0]) and math.isnan(last.grad_fro[0])
        assert np.isfinite(last.grad_spec[1]) and np.isfinite(last.grad_fro[1])
        for w, w0 in zip(final.weights, params.weights):
            assert np.array_equal(w, w0, equal_nan=True)

    def test_capped_run_warns_on_its_last_iterate(self, caplog):
        params, ds = small_problem(m=64, data_seed=0, net_seed=1)
        with caplog.at_level(logging.WARNING, logger="overparam.optim"):
            _, rec = run_gd(params, ds, builtin_loss("logistic"),
                            TrainConfig(max_iters=1, eta=0.05, tau=1e-3))
        summary = rec.summary()
        assert [(k, layer) for k, layer, _ in rec.warnings] == [(1, 1), (1, 2)]
        assert summary["budget_warnings"] == params.depth
        assert summary["max_recorded_radius"] == max(summary["final_radii"]) > 1e-3
        lines = [r.getMessage() for r in caplog.records
                 if r.levelno == logging.WARNING]
        assert len(lines) == params.depth
        assert all("at iteration 1 " in line for line in lines)

    def test_cap_at_the_zero_error_step_stops_at_zero_error(self):
        params, ds = small_problem(m=64, data_seed=0, net_seed=1)
        loss = builtin_loss("logistic")
        _, free = run_gd(params, ds, loss,
                         TrainConfig(max_iters=5000, eta=0.01, tau=1.0))
        assert free.stop_reason == "zero_error"
        steps = free.summary()["iterations"]
        _, rec = run_gd(params, ds, loss,
                        TrainConfig(max_iters=steps, eta=0.01, tau=1.0))
        summary = rec.summary()
        assert summary["stop_reason"] == "zero_error"
        assert summary["first_zero_error_iteration"] == summary["iterations"] == steps
        assert summary["final_misclassified"] == 0


class TestPerturbationRadius:
    def test_identical_params_zero(self):
        params, _ = small_problem()
        assert perturbation_radius(params, params) == [0.0, 0.0]

    def test_rank_one_bump(self):
        params, _ = small_problem()
        other = params.copy()
        tau = 0.37
        u = np.zeros(other.weights[0].shape[0])
        v = np.zeros(other.weights[0].shape[1])
        u[0] = 1.0
        v[1] = 1.0
        other.weights[0] = other.weights[0] + tau * np.outer(u, v)
        radii = perturbation_radius(other, params)
        assert radii[0] == pytest.approx(tau, rel=1e-10)
        assert radii[1] == 0.0

    def test_shape_mismatch(self):
        params, _ = small_problem()
        other = init_network([4, 8, 8, 16], seed=3)
        with pytest.raises(ValueError):
            perturbation_radius(params, other)


class TestTelemetry:
    def test_rows_strictly_increasing_and_csv(self, tmp_path):
        params, ds = small_problem()
        loss = builtin_loss("logistic")
        cfg = TrainConfig(max_iters=10, eta=0.02, tau=1.0)
        final, rec = run_gd(params, ds, loss, cfg)
        ks = column(rec, "k")
        assert ks == sorted(set(ks))
        assert all(np.isfinite(v) for v in column(rec, "loss"))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(rec, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(rec.rows) + 1
        assert lines[0].startswith("k,loss,misclassified")
        # snapshot rows carry pattern drift; iteration 0 drift is all zeros
        assert rec.rows[0].pattern_drift == [0] * rec.layer_count

    def test_summary_fields(self):
        params, ds = small_problem()
        loss = builtin_loss("logistic")
        final, rec = run_gd(params, ds, loss,
                            TrainConfig(max_iters=5, eta=0.01, tau=1.0))
        summary = rec.summary()
        for key in ("iterations", "stop_reason", "final_loss", "final_radii",
                    "budget_warnings", "first_zero_error_iteration"):
            assert key in summary

    def test_delta_ratios_bounded_by_median_multiple(self):
        params, ds = small_problem(m=32)
        loss = builtin_loss("logistic")
        final, rec = run_gd(params, ds, loss,
                            TrainConfig(max_iters=200, eta=0.01, tau=10.0))
        # per-step ratios max_i |Delta_i| / (eta L^4 M |mean l'|): row k+1's
        # output change against row k's derivative sum, the step that made it
        scale = rec.eta * params.depth ** 4 * max(params.layer_dims[1:])
        ratios = np.array([
            row.delta_max / (scale * abs(prev.sum_lprime) / ds.n)
            for prev, row in zip(rec.rows, rec.rows[1:])
            if row.delta_max is not None and prev.sum_lprime != 0.0])
        assert ratios.size > 10
        assert np.max(ratios) <= 100.0 * np.median(ratios)


class TestTrajectoryCsv:
    def test_header_at_depth_three(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(TrajectoryRecord(layer_count=3), path)
        assert path.read_text() == (
            "k,loss,misclassified,sum_lprime,batch_sum_lprime,delta_max,"
            "radius_1,radius_2,radius_3,radius_bound_1,radius_bound_2,radius_bound_3,"
            "grad_spec_1,grad_spec_2,grad_spec_3,"
            "grad_fro_1,grad_fro_2,grad_fro_3,"
            "pattern_drift_1,pattern_drift_2,pattern_drift_3\n")

    def test_diverged_row(self, tmp_path):
        params, ds = small_problem()
        _, rec = run_gd(params, ds, builtin_loss("exponential"),
                        TrainConfig(max_iters=300, eta=1e6, tau=1e9))
        assert rec.stop_reason == "diverged"
        path = tmp_path / "traj.csv"
        write_trajectory_csv(rec, path)
        last = path.read_text().splitlines()[-1]
        bound = ",".join(f"{b:.17g}" for b in rec.rows[-1].radius_bound)
        assert last == f"{rec.rows[-1].k},inf,-1,nan,nan,,,,{bound},nan,nan,nan,nan,,"

    def test_rows_with_and_without_drift(self, tmp_path):
        record = TrajectoryRecord(layer_count=2, rows=[
            TrajectoryRow(k=0, loss=0.5, misclassified=2, sum_lprime=-1.25,
                          batch_sum_lprime=-0.75, delta_max=None,
                          radius=[0.0, 0.0], radius_bound=[0.0, 0.0],
                          grad_spec=[1.0, 2.0], grad_fro=[1.5, 2.5],
                          pattern_drift=[0, 0]),
            TrajectoryRow(k=1, loss=0.25, misclassified=0, sum_lprime=-1.0,
                          batch_sum_lprime=-0.5, delta_max=0.125,
                          radius=[0.1, None], radius_bound=[0.125, 0.25],
                          grad_spec=[1.0, 2.0], grad_fro=[1.5, 2.5]),
        ])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(record, path)
        assert path.read_text().splitlines()[1:] == [
            "0,0.5,2,-1.25,-0.75,,0,0,0,0,1,2,1.5,2.5,0,0",
            "1,0.25,0,-1,-0.5,0.125,0.10000000000000001,,0.125,0.25,"
            "1,2,1.5,2.5,,",
        ]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), layers=st.integers(1, 4))
    def test_cells_read_back_exactly(self, tmp_path_factory, data, layers):
        floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        ints = st.integers(0, 10 ** 6)
        per_layer = st.lists(floats, min_size=layers, max_size=layers)
        rows = data.draw(st.lists(st.builds(
            TrajectoryRow, k=ints, loss=floats, misclassified=ints,
            sum_lprime=floats, batch_sum_lprime=floats,
            delta_max=st.none() | floats,
            radius=st.lists(st.none() | floats, min_size=layers, max_size=layers),
            radius_bound=per_layer, grad_spec=per_layer,
            grad_fro=per_layer, pattern_drift=st.none() | st.lists(
                ints, min_size=layers, max_size=layers)), min_size=1, max_size=4))
        path = tmp_path_factory.mktemp("csv") / "traj.csv"
        write_trajectory_csv(TrajectoryRecord(layer_count=layers, rows=rows), path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(rows) + 1
        for row, line in zip(rows, lines[1:]):
            expected = [row.k, row.loss, row.misclassified, row.sum_lprime,
                        row.batch_sum_lprime, row.delta_max, *row.radius,
                        *row.radius_bound, *row.grad_spec, *row.grad_fro,
                        *(row.pattern_drift or [None] * layers)]
            cells = line.split(",")
            assert len(cells) == len(expected) == len(lines[0].split(","))
            for cell, value in zip(cells, expected):
                if value is None:
                    assert cell == ""
                elif isinstance(value, int):
                    assert int(cell) == value
                elif math.isnan(value):
                    assert math.isnan(float(cell))
                else:   # bit for bit, so -0.0 keeps its sign
                    assert np.float64(cell).tobytes() == np.float64(value).tobytes()

    def test_off_snapshot_rows_leave_drift_empty(self, tmp_path):
        params, ds = small_problem()
        _, rec = run_gd(params, ds, builtin_loss("logistic"),
                        TrainConfig(max_iters=8, eta=0.001, tau=1.0))
        assert rec.stop_reason == "max_iters"
        path = tmp_path / "traj.csv"
        write_trajectory_csv(rec, path)
        lines = path.read_text().splitlines()[1:]
        # snapshots of an 8-step run: 0, 2, 4, 6 and the last iterate, 8
        assert len(lines) == 9
        for k, line in enumerate(lines):
            drift = line.split(",")[-2:]
            if k in (0, 2, 4, 6, 8):
                assert all(cell.isdigit() for cell in drift), line
            else:
                assert drift == ["", ""], line


def test_warm_radius_solves_stay_float64():
    # training's radius solves run below the float32 floor, so a warm
    # solve is the float64 sweep's Lanczos bit for bit, and every training
    # artifact keeps its bytes
    assert optim._RADIUS_TOL < linalg._SINGLE_TOL
    rng = PortableRng(12)
    a = gaussian_matrix(300, 200, 1.0, rng)
    _, warm, _, _ = power_iteration(a, tol=optim._RADIUS_TOL)
    a += 1e-3 * gaussian_matrix(300, 200, 1.0, rng)
    sigma, vec, residual, iters = power_iteration(a, tol=optim._RADIUS_TOL, start=warm)
    theta, vectors, residuals, products = linalg._lanczos(
        linalg._sweep_gram(a), warm[None], optim._RADIUS_TOL)
    assert sigma == float(np.sqrt(theta[0]))
    assert np.array_equal(vec, vectors[0])
    assert (residual, iters) == (float(residuals[0]), products)
