"""Full-batch and minibatch gradient descent with per-iteration telemetry.

A run's trajectory is a list of `TrajectoryRow`s, one for every iterate
the run reaches, the returned one last.  Each row describes its iterate
before any update from it: loss, misclassified count, the derivative sums,
the largest output change since the previous row, per-layer bounds on the
distance from the initial weights (spectral norm), per-layer norms of the
update gradient and, at snapshot iterations and the last row, per-layer
pattern drift from the initial network.  The row's fields are the columns
of the trajectory CSV.  After an iterate's row is written, training stops
as diverged at a loss or a gradient norm that is not finite, else at the
target loss, at zero training error (strict: a zero-margin example counts
as an error) or at the iteration cap.

The distance bound is the paper's sum of step lengths: ||W_l - W_l^(0)||_2
is at most the layer's last exact radius plus eta times the spectral norms
of the update gradients since (`grad_spec`, under SGD the batch gradient
the step applies).  The exact radius is solved only where a decision reads
it: at the snapshot rows, at the last row and for a layer whose bound
exceeds tau; a diverged row solves nothing.  So an unsolved cell is
certified inside the budget, and the budget warnings (exact radii above
tau) are those every radius would give.  The summary's final values and
the warnings are read from the rows.

A run inside its budget solves its wide layers only at the last row, and
there each solve streams the difference W_l - W_l^(0) from the two weight
sets a row block at a time.  A layer solved before the last row gets one
weight-sized work array for its shape, which the solves of that shape
reuse.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields

import numpy as np

from .linalg import THIN_SIDE, PortableRng, Rounded, aligned_empty, power_iteration
from .network import (NetworkParams, batch_forward, gradient_factors,
                      gradient_norms, max_pattern_distance)

__all__ = [
    "TrainConfig",
    "TrajectoryRecord",
    "TrajectoryRow",
    "run_gd",
    "run_sgd",
    "theoretical_step_size",
    "write_trajectory_csv",
]

log = logging.getLogger(__name__)

# Default constant in front of phi / (n^3 L^9 m); calibrated so the default
# desk-scale run converges while staying deep in the lazy regime.
DEFAULT_ETA_SCALE = 2.0e10

# Default mean loss at which a run stops as converged.
DEFAULT_TARGET_LOSS = 1e-4

# Ritz-residual tolerance of the warm-started Lanczos solves
# (linalg.power_iteration) behind the exact radii and the final radii.  The
# relative error of a Ritz value is about its residual squared over the
# relative spectral gap (Kato-Temple), so the radii come out far more
# accurate than 1e-5.  On perfbench's train-gd and train-sgd configs at seed
# 0 (n=40, d=10, m=1000, L=3, SGD at B=10; one BLAS thread), the (1000,
# 1000) solves took 8.0 products each for GD (only the last row solves, from
# a cold start) and 5.9 for SGD, and every exact radius stayed within
# 4.2e-12 (GD) and 5.1e-11 (SGD) of the dense SVD norm.  The (10, 1000)
# layer-1 difference is thin, and power_iteration takes it exactly.
_RADIUS_TOL = 1e-5

# Bytes of the row block of W_l that one update product A_l^T B_l fills at a
# time: the block is scaled by eta and subtracted while it is still in L2,
# where a whole product took three passes over a weight-sized array.  Each
# entry is the same sum over the batch rows as in the whole product; OpenBLAS
# gave it the same bits at m=1000 and m=2000, but not at m=500.
_UPDATE_BYTES = 1 << 19


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
    tau: float                          # perturbation budget: warnings, radius solves
    eta: float | None = None            # explicit step size wins over eta_scale
    eta_scale: float = DEFAULT_ETA_SCALE    # else eta = theoretical_step_size(...)
    batch_size: int | None = None       # None => full batch
    target_loss: float = DEFAULT_TARGET_LOSS
    seed: int = 0

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

    def resolve_eta(self, n: int, depth: int, width: int, phi: float) -> float:
        if self.eta is not None:
            return self.eta
        return theoretical_step_size(n, depth, width, phi, self.eta_scale)


def _per_layer(**kwargs):
    """A `TrajectoryRow` field with one value per layer, one CSV column each."""
    return field(metadata={"per_layer": True}, **kwargs)


@dataclass
class TrajectoryRow:
    """Telemetry of one recorded iteration; its fields are the CSV columns.

    None leaves a cell empty: the first row has no previous outputs for
    `delta_max`, `pattern_drift` is taken only at snapshot iterations and at
    the last row, and a `radius` cell only where its layer was solved.
    """

    k: int
    loss: float
    misclassified: int
    sum_lprime: float                   # over the full set
    batch_sum_lprime: float             # over the update batch
    delta_max: float | None             # max_i |yhat_k - yhat_{k-1}|
    radius: list = _per_layer()         # ||W_l - W_l^(0)||_2, None if unsolved
    radius_bound: list = _per_layer()   # last radius + eta * grad_spec since
    grad_spec: list = _per_layer()      # ||G_l||_2 of the update gradient
    grad_fro: list = _per_layer()       # ||G_l||_F
    pattern_drift: list | None = _per_layer(default=None)   # max_i l0 drift

    @staticmethod
    def csv_header(layers: int) -> list:
        cols = []
        for f in fields(TrajectoryRow):
            if f.metadata.get("per_layer"):
                cols += [f"{f.name}_{l}" for l in range(1, layers + 1)]
            else:
                cols.append(f.name)
        return cols

    def csv_cells(self, layers: int) -> list:
        cells = []
        for f in fields(self):
            value = getattr(self, f.name)
            if not f.metadata.get("per_layer"):
                cells.append(_cell(value))
            elif value is None:
                cells += [""] * layers
            else:
                cells += [_cell(v) for v in value]
        return cells


def _cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


@dataclass
class TrajectoryRecord:
    """Per-iteration telemetry of one training run: a row for every iterate
    reached, the returned one last (a run stops as diverged at a loss or
    gradient norm that is not finite).  The warnings and every final value
    of `summary` are read from the rows."""

    layer_count: int
    eta: float = float("nan")
    tau: float = float("nan")
    rows: list = field(default_factory=list)               # TrajectoryRow per iterate
    stop_reason: str = ""

    @property
    def warnings(self) -> list:
        """(k, layer, radius) for every exact radius above tau.  An unsolved
        cell is certified at most tau by its `radius_bound`."""
        return [(row.k, l, r) for row in self.rows
                for l, r in enumerate(row.radius, 1)
                if r is not None and r > self.tau]

    def first_zero_error_iteration(self):
        for row in self.rows:
            if row.misclassified == 0:
                return row.k
        return None

    def summary(self) -> dict:
        last = self.rows[-1]
        exact = [r for row in self.rows for r in row.radius if r is not None]
        return {
            "iterations": last.k,                          # update steps performed
            "rows": len(self.rows),
            "stop_reason": self.stop_reason,
            "eta": self.eta,
            "tau": self.tau,
            "final_loss": last.loss,
            "final_misclassified": last.misclassified,
            "final_radii": [] if self.stop_reason == "diverged" else list(last.radius),
            "max_recorded_radius": max(exact, default=None),
            "max_radius_bound": max(max(row.radius_bound) for row in self.rows),
            "budget_warnings": len(self.warnings),
            "first_zero_error_iteration": self.first_zero_error_iteration(),
        }


def write_trajectory_csv(record: TrajectoryRecord, path) -> None:
    """A header of `TrajectoryRow`'s fields, then one line per row.

    Per-layer fields take one column per layer.  Floats are written with
    17 significant digits, so they read back exactly; empty cells are the
    row's None values.
    """
    layers = record.layer_count
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(TrajectoryRow.csv_header(layers)) + "\n")
        for row in record.rows:
            fh.write(",".join(row.csv_cells(layers)) + "\n")


def _snapshot_iterations(max_iters: int) -> set:
    return {0, max_iters // 4, max_iters // 2, (3 * max_iters) // 4, max_iters}


def _train(params0: NetworkParams, dataset, loss, config: TrainConfig):
    n = dataset.n
    config.validate(n)
    params0.validate()
    if dataset.d != params0.layer_dims[0]:
        raise ValueError("dataset dimension does not match the network input width")

    depth = params0.depth
    eta = config.resolve_eta(n, depth, min(params0.layer_dims[1:]), dataset.phi)
    batch_size = config.batch_size or n
    rng = PortableRng(config.seed)

    live = params0.copy()
    x, y = dataset.inputs, dataset.labels
    record = TrajectoryRecord(layer_count=depth, eta=eta, tau=config.tau)
    snapshots = _snapshot_iterations(config.max_iters)
    warm = [None] * depth
    # per layer, the last exact radius plus the step lengths eta * grad_spec
    # since: by the triangle inequality a bound on ||W_l - W_l^(0)||_2.  A
    # row records it as it stood before the row's own solve
    bound = [0.0] * depth
    # A wide radius solve at the last row streams W_l - W_l^(0) from the
    # pair (`Rounded`), so a run that stays inside its budget holds two
    # weight sets and no third.  A wide solve before the last row makes one
    # work array for its shape, starting on a cache line (glibc puts a
    # buffer of megabytes 16 bytes past one), and every later solve of that
    # shape subtracts into it and sweeps it.  Such solves are warm and take
    # about six products each: at (1000, 1000) on one BLAS thread a pair
    # product took 1.22 ms, a product on the array 0.48 ms plus one 0.91 ms
    # subtract a solve, and streaming every solve took perfbench's
    # train-sgd radius solves from 36 to 77 ms of a 0.9 s run.  A fresh
    # np.subtract temporary a solve lost 0.8 % steps/s on train-sgd.
    work = {}
    init_patterns = None
    prev_outputs = None

    stop = None
    # iterates 0..max_iters at most: the cap stops the run at the last one
    for k in range(config.max_iters + 1):
        trace = batch_forward(live, x)
        if init_patterns is None:
            init_patterns = trace.patterns
        margins = y * trace.outputs
        loss_k = float(np.mean(loss.value(margins)))
        miscount = int(np.count_nonzero(margins <= 0.0))
        if not np.isfinite(loss_k):
            nan = float("nan")
            record.rows.append(TrajectoryRow(k, loss_k, -1, nan, nan, None,
                                             [None] * depth, bound,
                                             [nan] * depth, [nan] * depth))
            stop = "diverged"
            break

        lprime = np.asarray(loss.deriv(margins), dtype=np.float64)
        batch = np.arange(n) if batch_size == n \
            else rng.sample_without_replacement(n, batch_size)

        factors = gradient_factors(live, trace, y, lprime,
                                   rows=None if batch_size == n else batch)
        spec, fro = gradient_norms(factors)

        if not np.all(np.isfinite(spec + fro)):
            stop = "diverged"
        elif loss_k <= config.target_loss:
            stop = "target_loss"
        elif miscount == 0:
            stop = "zero_error"
        elif k >= config.max_iters:
            stop = "max_iters"
        snapshot = k in snapshots or stop is not None
        drift = max_pattern_distance(trace.patterns, init_patterns) \
            if snapshot else None
        # exact radii at the snapshots and the last row, and wherever the
        # bound does not certify radius <= tau; a diverged row solves nothing
        radii = [None] * depth
        for l in range(depth):
            if stop == "diverged":
                break
            if k == 0:
                radii[l] = 0.0
            elif snapshot or bound[l] > config.tau:
                w, w0 = live.weights[l], params0.weights[l]
                if stop is None and min(w.shape) > THIN_SIDE and w.shape not in work:
                    work[w.shape] = aligned_empty(w.shape)
                if w.shape in work:
                    diff = np.subtract(w, w0, out=work[w.shape])
                else:
                    diff = Rounded(w, w0)
                radii[l], warm[l], _, _ = power_iteration(
                    diff, tol=_RADIUS_TOL, start=warm[l])
        record.rows.append(TrajectoryRow(
            k=k, loss=loss_k, misclassified=miscount,
            sum_lprime=float(lprime.sum()),
            batch_sum_lprime=float(lprime[batch].sum()),
            delta_max=None if prev_outputs is None
            else float(np.max(np.abs(trace.outputs - prev_outputs))),
            radius=radii, radius_bound=bound, grad_spec=spec, grad_fro=fro,
            pattern_drift=drift))
        if stop is not None:
            break
        prev_outputs = trace.outputs
        bound = [(b if r is None else r) + eta * g
                 for b, r, g in zip(bound, radii, spec)]

        for w, (a, b) in zip(live.weights, factors):
            rows = max(1, _UPDATE_BYTES // (8 * w.shape[1]))
            for i in range(0, w.shape[0], rows):
                w[i:i + rows] -= eta * (a[:, i:i + rows].T @ b)

    record.stop_reason = stop
    _log_budget_warnings(record.warnings, config.tau)
    return live, record


def _log_budget_warnings(warnings: list, tau: float) -> None:
    """One line per layer that left the tau region: first crossing and count."""
    for layer in sorted({layer for _, layer, _ in warnings}):
        over = [(k, radius) for k, l, radius in warnings if l == layer]
        log.warning("layer %d left the tau=%g region at iteration %d (radius %g); "
                    "%d recorded iterations over budget", layer, tau, *over[0],
                    len(over))


def run_gd(params0: NetworkParams, dataset, loss, config: TrainConfig):
    """Full-batch gradient descent; returns (final params, trajectory)."""
    if config.batch_size is not None:
        raise ValueError("run_gd takes no batch_size (use run_sgd for minibatches)")
    return _train(params0, dataset, loss, config)


def run_sgd(params0: NetworkParams, dataset, loss, config: TrainConfig):
    """Minibatch SGD, as in the paper: every step draws a fresh batch of
    batch_size examples without replacement, from one
    `PortableRng(config.seed)` stream.

    With batch_size == n nothing is drawn: the index-order batch makes the
    trajectory bit-identical to run_gd.
    """
    if config.batch_size is None:
        raise ValueError("run_sgd needs batch_size set (use run_gd for full batch)")
    return _train(params0, dataset, loss, config)

