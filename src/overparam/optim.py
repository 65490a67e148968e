"""Full-batch and minibatch gradient descent with per-iteration telemetry.

Each recorded row describes the iterate *before* its update step: loss,
misclassified count, the derivative sum, per-layer distances from the
initial weights (spectral norm), and per-layer norms of the update
gradient.  Training stops at the iteration cap, at the target loss, or at
zero training error (strict: a zero-margin example counts as an error).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .linalg import PortableRng, power_iteration, spectral_norm
from .network import (NetworkParams, batch_forward, gradient_factors,
                      gradient_norms)

__all__ = [
    "TrainConfig",
    "TrajectoryRecord",
    "delta_bound_ratios",
    "perturbation_radius",
    "run_gd",
    "run_sgd",
    "theoretical_step_size",
    "write_trajectory_csv",
    "zero_error_check",
]

log = logging.getLogger(__name__)

# Default constant in front of phi / (n^3 L^9 m); calibrated so the default
# desk-scale run converges while staying deep in the lazy regime.
DEFAULT_ETA_SCALE = 2.0e10

# Ritz-residual tolerance of the warm-started Lanczos solves
# (linalg.power_iteration) behind the per-iteration radius telemetry and the
# final radii.  The relative error of a Ritz value is about its residual
# squared over the relative spectral gap, so the radii come out far more
# accurate than 1e-8.
_RADIUS_TOL = 1e-8


def theoretical_step_size(n: int, depth: int, width: int, phi: float,
                          scale: float) -> float:
    """Step size scale * phi / (n^3 * L^9 * m).

    `scale` is the user-chosen absolute constant; the rate in (n, L, m, phi)
    is fixed.
    """
    if min(n, depth, width) <= 0 or phi <= 0 or scale <= 0:
        raise ValueError("all step-size arguments must be positive")
    return scale * phi / (float(n) ** 3 * float(depth) ** 9 * float(width))


@dataclass
class TrainConfig:
    max_iters: int
    eta: float | None = None            # explicit step size wins over eta_scale
    eta_scale: float | None = None      # else eta = theoretical_step_size(...)
    batch_size: int | None = None       # None => full batch
    target_loss: float = 1e-4
    tau: float = 0.1                    # perturbation budget (warning threshold)
    seed: int = 0
    record_patterns: bool = False
    batch_mode: str = "fresh"           # "fresh": resample per step; "epoch": shuffle

    def validate(self, n: int) -> None:
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.eta is not None and self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.batch_size is not None and not 1 <= self.batch_size <= n:
            raise ValueError(f"batch_size must be in [1, {n}]")
        if self.target_loss <= 0:
            raise ValueError("target_loss must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.batch_mode not in ("fresh", "epoch"):
            raise ValueError("batch_mode must be 'fresh' or 'epoch'")

    def resolve_eta(self, n: int, depth: int, width: int, phi: float) -> float:
        if self.eta is not None:
            return self.eta
        scale = self.eta_scale if self.eta_scale is not None else DEFAULT_ETA_SCALE
        return theoretical_step_size(n, depth, width, phi, scale)


@dataclass
class TrajectoryRecord:
    """Per-iteration telemetry of one training run."""

    layer_count: int
    eta: float = float("nan")
    tau: float = float("nan")
    ks: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    misclassified: list = field(default_factory=list)
    sum_lprime: list = field(default_factory=list)         # over the full set
    batch_sum_lprime: list = field(default_factory=list)   # over the update batch
    delta_max: list = field(default_factory=list)          # max_i |yhat_k - yhat_{k-1}|
    radii: list = field(default_factory=list)              # per-layer ||W - W0||_2
    grad_spectral: list = field(default_factory=list)      # per-layer, update gradient
    grad_frobenius: list = field(default_factory=list)
    pattern_drift: dict = field(default_factory=dict)      # k -> per-layer max_i l0 drift
    warnings: list = field(default_factory=list)           # (k, layer, radius) with radius > tau
    stop_reason: str = ""
    iterations: int = 0                                    # update steps performed
    final_loss: float = float("nan")
    final_misclassified: int = -1
    final_radii: list = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return len(self.ks)

    def first_zero_error_iteration(self):
        for k, count in zip(self.ks, self.misclassified):
            if count == 0:
                return k
        return None

    def summary(self) -> dict:
        max_radius = max((max(r) for r in self.radii), default=0.0)
        return {
            "iterations": self.iterations,
            "rows": self.n_rows,
            "stop_reason": self.stop_reason,
            "eta": self.eta,
            "tau": self.tau,
            "final_loss": self.final_loss,
            "final_misclassified": self.final_misclassified,
            "final_radii": list(self.final_radii),
            "max_recorded_radius": max_radius,
            "budget_warnings": len(self.warnings),
            "first_zero_error_iteration": self.first_zero_error_iteration(),
        }


def _trajectory_header(layers: int) -> list:
    cols = ["k", "loss", "misclassified", "sum_lprime", "batch_sum_lprime",
            "delta_max"]
    cols += [f"radius_{l}" for l in range(1, layers + 1)]
    cols += [f"grad_spec_{l}" for l in range(1, layers + 1)]
    cols += [f"grad_fro_{l}" for l in range(1, layers + 1)]
    cols += [f"pattern_drift_{l}" for l in range(1, layers + 1)]
    return cols


def write_trajectory_csv(record: TrajectoryRecord, path) -> None:
    """One row per recorded iteration; pattern drift cells are empty off-snapshot."""
    layers = record.layer_count
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(_trajectory_header(layers)) + "\n")
        for i, k in enumerate(record.ks):
            cells = [str(k), f"{record.losses[i]:.17g}",
                     str(record.misclassified[i]),
                     f"{record.sum_lprime[i]:.17g}",
                     f"{record.batch_sum_lprime[i]:.17g}"]
            delta = record.delta_max[i]
            cells.append("" if np.isnan(delta) else f"{delta:.17g}")
            cells += [f"{r:.17g}" for r in record.radii[i]]
            cells += [f"{s:.17g}" for s in record.grad_spectral[i]]
            cells += [f"{s:.17g}" for s in record.grad_frobenius[i]]
            drift = record.pattern_drift.get(k)
            cells += [str(c) for c in drift] if drift is not None else [""] * layers
            fh.write(",".join(cells) + "\n")


def zero_error_check(params: NetworkParams, dataset) -> int:
    """Number of examples with y_i * f(x_i) <= 0 (ties count as errors)."""
    trace = batch_forward(params, dataset.inputs)
    return int(np.count_nonzero(dataset.labels * trace.outputs <= 0.0))


def perturbation_radius(params: NetworkParams, reference: NetworkParams,
                        tol: float = 1e-10, max_iter: int = 10_000) -> list:
    """Per-layer spectral norm of W_l - W_l^(0)."""
    if tuple(params.layer_dims) != tuple(reference.layer_dims):
        raise ValueError("parameter shapes do not match")
    return [spectral_norm(w - w0, tol=tol, max_iter=max_iter)
            for w, w0 in zip(params.weights, reference.weights)]


class _BatchSampler:
    """Deterministic minibatch index source.

    full batch    -> indices 0..n-1 in order every step (bit-equal to GD)
    "fresh" mode  -> a without-replacement sample drawn anew each step
    "epoch" mode  -> a shuffled epoch consumed in chunks, reshuffled when
                     fewer than B indices remain
    """

    def __init__(self, n: int, batch_size: int, mode: str, seed: int):
        self.n = n
        self.batch_size = batch_size
        self.mode = mode
        self.rng = PortableRng(seed)
        self._epoch: list = []

    def next_batch(self) -> np.ndarray:
        if self.batch_size == self.n:
            return np.arange(self.n)
        if self.mode == "fresh":
            return self.rng.sample_without_replacement(self.n, self.batch_size)
        if len(self._epoch) < self.batch_size:
            self._epoch = list(self.rng.permutation(self.n))
        batch = self._epoch[: self.batch_size]
        del self._epoch[: self.batch_size]
        return np.asarray(batch)


def _snapshot_iterations(max_iters: int) -> set:
    return {0, max_iters // 4, max_iters // 2, (3 * max_iters) // 4, max_iters}


def _train(params0: NetworkParams, dataset, loss, config: TrainConfig,
           stochastic: bool):
    n = dataset.n
    config.validate(n)
    params0.validate()
    if dataset.d != params0.layer_dims[0]:
        raise ValueError("dataset dimension does not match the network input width")

    depth = params0.depth
    eta = config.resolve_eta(n, depth, min(params0.layer_dims[1:]), dataset.phi)
    batch_size = config.batch_size if (stochastic and config.batch_size) else n
    sampler = _BatchSampler(n, batch_size, config.batch_mode, config.seed) \
        if stochastic else None

    live = params0.copy()
    x, y = dataset.inputs, dataset.labels
    record = TrajectoryRecord(layer_count=depth, eta=eta, tau=config.tau)
    snapshots = _snapshot_iterations(config.max_iters)
    warm = [None] * depth
    # one weight-sized work array per shape, reused every step for the radius
    # difference and the update: a fresh weight-sized temporary per step is
    # paid for in page faults
    scratch = {w.shape: np.empty_like(w) for w in params0.weights}
    init_patterns = None
    prev_outputs = None

    k = 0
    stop = None
    while True:
        trace = batch_forward(live, x)
        if config.record_patterns and init_patterns is None:
            init_patterns = [p.copy() for p in trace.patterns]
        margins = y * trace.outputs
        loss_k = float(np.mean(loss.value(margins)))
        if not np.isfinite(loss_k):
            record.ks.append(k)
            record.losses.append(loss_k)
            record.misclassified.append(-1)
            record.sum_lprime.append(float("nan"))
            record.batch_sum_lprime.append(float("nan"))
            record.delta_max.append(float("nan"))
            record.radii.append([float("nan")] * depth)
            record.grad_spectral.append([float("nan")] * depth)
            record.grad_frobenius.append([float("nan")] * depth)
            stop = "diverged"
            break
        if k >= config.max_iters and config.max_iters > 0:
            stop = "max_iters"
            break

        lprime = np.asarray(loss.deriv(margins), dtype=np.float64)
        miscount = int(np.count_nonzero(margins <= 0.0))
        batch = sampler.next_batch() if sampler is not None else np.arange(n)

        radii = [0.0] * depth
        for l in range(depth):
            if k > 0:
                diff = np.subtract(live.weights[l], params0.weights[l],
                                   out=scratch[live.weights[l].shape])
                radii[l], warm[l], _, _ = power_iteration(
                    diff, tol=_RADIUS_TOL, start=warm[l])
            if radii[l] > config.tau:
                record.warnings.append((k, l + 1, radii[l]))

        factors = gradient_factors(live, trace, y, loss,
                                   rows=None if batch_size == n else batch)
        spec, fro = gradient_norms(factors)

        record.ks.append(k)
        record.losses.append(loss_k)
        record.misclassified.append(miscount)
        record.sum_lprime.append(float(lprime.sum()))
        record.batch_sum_lprime.append(float(lprime[batch].sum()))
        if prev_outputs is None:
            record.delta_max.append(float("nan"))
        else:
            record.delta_max.append(float(np.max(np.abs(trace.outputs - prev_outputs))))
        record.radii.append(radii)
        record.grad_spectral.append(spec)
        record.grad_frobenius.append(fro)
        if config.record_patterns and (k in snapshots):
            record.pattern_drift[k] = [
                int(np.max(np.count_nonzero(p != p0, axis=1)))
                for p, p0 in zip(trace.patterns, init_patterns)
            ]
        prev_outputs = trace.outputs

        if loss_k <= config.target_loss:
            stop = "target_loss"
            break
        if miscount == 0:
            stop = "zero_error"
            break
        if config.max_iters == 0:
            stop = "max_iters"
            break

        for w, (a, b) in zip(live.weights, factors):
            step = np.matmul(a.T, b, out=scratch[w.shape])
            step *= eta
            w -= step
        k += 1

    record.stop_reason = stop
    record.iterations = k
    final_trace = batch_forward(live, x)
    final_margins = y * final_trace.outputs
    record.final_loss = float(np.mean(loss.value(final_margins)))
    record.final_misclassified = int(np.count_nonzero(final_margins <= 0.0))
    if stop != "diverged":
        record.final_radii = perturbation_radius(live, params0, tol=_RADIUS_TOL)
        if config.record_patterns and record.iterations not in record.pattern_drift:
            record.pattern_drift[record.iterations] = [
                int(np.max(np.count_nonzero(p != p0, axis=1)))
                for p, p0 in zip(final_trace.patterns, init_patterns)
            ]
    _log_budget_warnings(record.warnings, config.tau)
    return live, record


def _log_budget_warnings(warnings: list, tau: float) -> None:
    """One line per layer that left the tau region: first crossing and count."""
    first = {}
    count = {}
    for k, layer, radius in warnings:
        first.setdefault(layer, (k, radius))
        count[layer] = count.get(layer, 0) + 1
    for layer in sorted(first):
        k, radius = first[layer]
        log.warning("layer %d left the tau=%g region at iteration %d (radius %g); "
                    "%d recorded iterations over budget", layer, tau, k, radius,
                    count[layer])


def run_gd(params0: NetworkParams, dataset, loss, config: TrainConfig):
    """Full-batch gradient descent; returns (final params, trajectory)."""
    return _train(params0, dataset, loss, config, stochastic=False)


def run_sgd(params0: NetworkParams, dataset, loss, config: TrainConfig):
    """Minibatch SGD; batches are drawn without replacement each step.

    With batch_size == n the index-order batch makes the trajectory
    bit-identical to run_gd.
    """
    if config.batch_size is None:
        raise ValueError("run_sgd needs batch_size set (use run_gd for full batch)")
    return _train(params0, dataset, loss, config, stochastic=True)


def delta_bound_ratios(record: TrajectoryRecord, depth: int, max_width: int,
                       n: int) -> np.ndarray:
    """Per-step ratios max_i|Delta_i| / (eta L^4 M |mean l'|).

    The per-step output change of a run in the lazy regime is bounded by a
    run constant times eta L^4 M |mean l'|; a well-behaved run keeps these
    ratios within a fixed multiple of their own median.  Row k+1's delta is
    aligned with row k's derivative sum (the step that produced it).
    """
    ratios = []
    for i in range(1, record.n_rows):
        if record.ks[i] != record.ks[i - 1] + 1:
            continue
        delta = record.delta_max[i]
        mean_lp = abs(record.sum_lprime[i - 1]) / n
        if np.isnan(delta) or mean_lp == 0.0:
            continue
        ratios.append(delta / (record.eta * depth ** 4 * max_width * mean_lp))
    return np.asarray(ratios)
