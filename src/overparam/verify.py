"""Empirical verification batteries and closed-form oracles.

``verify_init_properties`` measures, over repeated fresh initializations,
the quantities that a healthy Gaussian-initialized network must exhibit:
near-unit hidden norms, preserved cross-class separation, bounded outputs,
few near-threshold units, bounded masked-chain products, and a positive
count of active gradient nodes.  ``verify_perturbation_properties``
measures how two nearby parameter sets drift apart in hidden outputs and
activation patterns, and the gradient norm bounds that hold near the
initialization.

Thresholded entries assert concrete limits; the remaining entries fit and
report an empirical constant (their pass flag only demands a finite,
positive value) because the matching theory constants are existential.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import PortableRng, pattern_diff_count, spectral_norm
from .network import (NetworkParams, batch_forward, gradient_factors,
                      gradient_norms, init_network)

__all__ = [
    "MaskedChain",
    "PropertyEntry",
    "PropertyReport",
    "concavity_inequality_check",
    "mc_relu_kernel",
    "relu_kernel_closed_form",
    "subset_mean_variance",
    "verify_init_properties",
    "verify_perturbation_properties",
]

INIT_ITEMS = (
    "hidden_norm_deviation",
    "weight_spectral_norm",
    "cross_class_separation",
    "output_magnitude",
    "near_threshold_fraction",
    "chain_product_norm",
    "sparse_output_probe",
    "sparse_bilinear_probe",
    "active_gradient_nodes",
    "pairwise_inner_product",
)


@dataclass
class PropertyEntry:
    name: str
    direction: str               # "upper": measured <= threshold; "lower": >=
    per_trial: list = field(default_factory=list)
    threshold: float | None = None
    bound: float | None = None   # reference scale the constant is fitted against
    note: str = ""

    @property
    def trials(self) -> int:
        return len(self.per_trial)

    @property
    def measured(self) -> float:
        # worst case across trials
        if not self.per_trial:
            return float("nan")
        return float(max(self.per_trial) if self.direction == "upper"
                     else min(self.per_trial))

    @property
    def constant(self) -> float | None:
        if self.bound in (None, 0.0) or not self.per_trial:
            return None
        return self.measured / self.bound

    def trial_failures(self) -> int:
        if self.threshold is None:
            return sum(0 if np.isfinite(v) else 1 for v in self.per_trial)
        if self.direction == "upper":
            return sum(1 for v in self.per_trial if not v <= self.threshold)
        return sum(1 for v in self.per_trial if not v >= self.threshold)

    def passed(self, allowed_failures: int = 0) -> bool:
        return self.trial_failures() <= allowed_failures

    def as_dict(self, allowed_failures: int = 0) -> dict:
        return {
            "name": self.name,
            "direction": self.direction,
            "measured": self.measured,
            "bound": self.bound,
            "constant": self.constant,
            "threshold": self.threshold,
            "per_trial": list(self.per_trial),
            "trials": self.trials,
            "failures": self.trial_failures(),
            "failure_fraction": (self.trial_failures() / self.trials
                                 if self.trials else 0.0),
            "passed": self.passed(allowed_failures),
            "note": self.note,
        }


@dataclass
class PropertyReport:
    meta: dict
    entries: list = field(default_factory=list)
    allowed_failures: int = 0

    def entry(self, name: str) -> PropertyEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(e.passed(self.allowed_failures) for e in self.entries)

    def as_dict(self) -> dict:
        return {
            "meta": self.meta,
            "allowed_failures": self.allowed_failures,
            "passed": self.passed,
            "entries": [e.as_dict(self.allowed_failures) for e in self.entries],
        }


# --- shared helpers ---------------------------------------------------------

def _normalized_rows(h: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    return h / np.where(norms == 0.0, 1.0, norms)


def _min_pair_distance(h: np.ndarray, mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    a, b = h[mask_a], h[mask_b]
    if a.shape[0] == 0 or b.shape[0] == 0:
        return float("inf")
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(np.min(d))


def _example_mask(pattern: np.ndarray) -> np.ndarray:
    """(m, n, 1) mask of an (n, m) pattern, C-ordered so that products with
    a (m, n, b) block come out C-ordered and reshape without a copy."""
    return np.ascontiguousarray(pattern.T)[:, :, None]


def _layer(w: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``w @ block`` over the leading axis of a (dim, ...) block, as one GEMM."""
    return (w @ block.reshape(block.shape[0], -1)).reshape(w.shape[0], *block.shape[1:])


class MaskedChain:
    """Masked chain products of all n examples at once.

    Example i's operator is ``D_{last,i} W_last^T ... D_{first,i} W_first^T``,
    where ``D_{r,i}`` masks to the active units of its layer-r pattern; with
    `head` it gains a final unmasked ``W_head^T``.  ``apply`` and
    ``apply_t`` (the transpose) act on blocks of shape ``(dim, n, b)``,
    multiplying example i's b columns by example i's operator, so each
    layer is one GEMM over n*b columns.  ``first > last`` leaves no masked
    layers.
    """

    def __init__(self, weights, patterns, first: int, last: int,
                 head: int | None = None):
        self.weights = weights
        self.first, self.last, self.head = first, last, head
        self.n = patterns[0].shape[0]
        self.masks = {r: _example_mask(patterns[r - 1])
                      for r in range(first, last + 1)}

    def apply(self, block: np.ndarray) -> np.ndarray:
        t = block
        for r in range(self.first, self.last + 1):
            t = _layer(self.weights[r - 1].T, t)
            t *= self.masks[r]
        if self.head is not None:
            t = _layer(self.weights[self.head - 1].T, t)
        return t

    def apply_t(self, block: np.ndarray) -> np.ndarray:
        t = block
        if self.head is not None:
            t = _layer(self.weights[self.head - 1], t)
        for r in range(self.last, self.first - 1, -1):
            t = _layer(self.weights[r - 1], self.masks[r] * t)
        return t

    def norms(self, rng: PortableRng, block: int = 4, iters: int = 24) -> np.ndarray:
        """Block power estimates of each example's operator spectral norm.

        The n start blocks are one draw of ``n * dim * block`` normals, the
        same stream as n consecutive per-example draws.  Each estimate
        approaches the true norm from below.
        """
        dim = self.weights[self.first - 1].shape[0]
        # QR and SVD stack over the leading example axis: (n, dim, block)
        q, _ = np.linalg.qr(rng.normals(self.n * dim * block).reshape(self.n, dim, block))
        for _ in range(iters):
            z = self.apply_t(self.apply(q.transpose(1, 0, 2)))
            q, _ = np.linalg.qr(z.transpose(1, 0, 2))
        top = self.apply(q.transpose(1, 0, 2)).transpose(1, 0, 2)
        return np.linalg.svd(top, compute_uv=False)[:, 0]


def _output_probe(params: NetworkParams, patterns, layer: int,
                  block: np.ndarray) -> float:
    """max over examples i and probe columns u of ``|v . chain_i u|``, with
    chain_i the masked layers layer..L: v is backpropagated once per example
    and then met with all the probes."""
    chain = MaskedChain(params.weights, patterns, layer, params.depth)
    v = params.output_vector
    back = chain.apply_t(np.broadcast_to(v[:, None, None], (v.shape[0], chain.n, 1)))
    return float(np.max(np.abs(block.T @ back[:, :, 0])))


def _bilinear_probe(params: NetworkParams, patterns, l1: int, l2: int,
                    a_block: np.ndarray, b_block: np.ndarray) -> float:
    """max over examples and probe pairs of ``|b . W_l2^T chain_i a|``, with
    chain_i the masked layers l1..l2-1.  The outer GEMMs do not depend on
    the example, so only the middle layers run per example."""
    w = params.weights
    first = _example_mask(patterns[l1 - 1]) * (w[l1 - 1].T @ a_block)[:, None, :]
    middle = MaskedChain(w, patterns, l1 + 1, l2 - 1).apply(first)
    vals = (w[l2 - 1] @ b_block).T @ middle.reshape(middle.shape[0], -1)
    return float(np.max(np.abs(vals)))


def _sparse_probes(dim: int, s: int, count: int, rng: PortableRng) -> np.ndarray:
    """(dim, count) block of unit vectors with at most s nonzeros each."""
    block = np.zeros((dim, count))
    for j in range(count):
        support = rng.sample_without_replacement(dim, min(s, dim))
        vals = rng.normals(len(support))
        norm = np.linalg.norm(vals)
        if norm == 0.0:
            vals[0] = 1.0
            norm = 1.0
        block[support, j] = vals / norm
    return block


# --- initialization battery -------------------------------------------------

DEFAULT_THRESHOLDS = {
    "hidden_norm_deviation": 0.2,
    "output_magnitude": 6.0,
    "near_threshold_fraction": 1.0,
}


def verify_init_properties(params: NetworkParams, dataset, beta: float | None = None,
                           sparsity_s: int | None = None, trials: int = 20,
                           seed: int = 0, *, allowed_failures: int = 1,
                           delta: float = 0.05, spectral_tol: float = 1e-3,
                           probes: int = 64, gradient_probes: int = 8,
                           items=None, thresholds: dict | None = None) -> PropertyReport:
    """Measure the initialization properties over `trials` fresh networks.

    Trial 0 evaluates `params` itself; trial t re-initializes the same
    architecture with seed ``seed + t``.  An item passes when at most
    `allowed_failures` trials miss its threshold (entries without a
    threshold instead fit a constant and only require it to be finite).

    `beta` defaults to ``m^-1/2`` (near-threshold window) and `sparsity_s`
    to a ``log``-sized support for the sparse probes.
    """
    params.validate()
    dims = params.layer_dims
    depth = params.depth
    widths = dims[1:]
    m_min = min(widths)
    m_max = max(widths)
    n = dataset.n
    if beta is None:
        beta = 1.0 / math.sqrt(m_min)
    if sparsity_s is None:
        sparsity_s = max(1, int(math.ceil(math.log(max(np.e, n * depth / delta)))))
    if not 1 <= sparsity_s <= m_min:
        raise ValueError(f"sparsity {sparsity_s} out of range [1, {m_min}]")
    if trials < 1:
        raise ValueError("need at least one trial")

    selected = tuple(items) if items is not None else INIT_ITEMS
    unknown = set(selected) - set(INIT_ITEMS)
    if unknown:
        raise ValueError(f"unknown items {sorted(unknown)}")
    limits = dict(DEFAULT_THRESHOLDS)
    limits["cross_class_separation"] = dataset.phi / 2.0
    limits["pairwise_inner_product"] = dataset.mu ** 2 / 2.0
    if thresholds:
        limits.update(thresholds)

    log_nl = math.log(n * depth / delta)
    bounds = {
        "hidden_norm_deviation": depth * math.sqrt(log_nl / m_min),
        "weight_spectral_norm": 1.0,
        "cross_class_separation": dataset.phi / 2.0,
        "output_magnitude": math.sqrt(math.log(n / delta)),
        "near_threshold_fraction": 1.0,
        "chain_product_norm": float(depth),
        "sparse_output_probe": depth * math.sqrt(sparsity_s * math.log(m_max)),
        "sparse_bilinear_probe": depth * math.sqrt(sparsity_s * math.log(m_max) / m_min),
        "active_gradient_nodes": 1.0,
        "pairwise_inner_product": dataset.mu ** 2 / 2.0,
    }
    directions = {
        "cross_class_separation": "lower",
        "active_gradient_nodes": "lower",
        "pairwise_inner_product": "lower",
    }

    entries = {
        name: PropertyEntry(name=name, direction=directions.get(name, "upper"),
                            threshold=limits.get(name), bound=bounds.get(name))
        for name in selected
    }
    if "near_threshold_fraction" in entries and beta == 0.0:
        entries["near_threshold_fraction"].note = \
            "beta=0: measured value is the raw count of exactly-zero pre-activations"

    for t in range(trials):
        net = params if t == 0 else init_network(dims, seed + t)
        rng = PortableRng(seed + 7919 * t)
        trace = batch_forward(net, dataset.inputs)
        normalized = [_normalized_rows(h) for h in trace.hidden[1:]]

        if "hidden_norm_deviation" in entries:
            dev = max(float(np.max(np.abs(np.linalg.norm(h, axis=1) - 1.0)))
                      for h in trace.hidden[1:])
            entries["hidden_norm_deviation"].per_trial.append(dev)

        if "weight_spectral_norm" in entries:
            entries["weight_spectral_norm"].per_trial.append(
                max(spectral_norm(w, tol=spectral_tol) for w in net.weights))

        if "cross_class_separation" in entries:
            pos = dataset.labels > 0
            sep = min(_min_pair_distance(h, pos, ~pos) for h in normalized)
            entries["cross_class_separation"].per_trial.append(sep)

        if "output_magnitude" in entries:
            entries["output_magnitude"].per_trial.append(
                float(np.max(np.abs(trace.outputs))))

        if "near_threshold_fraction" in entries:
            worst = 0.0
            for l, z in enumerate(trace.preacts):
                counts = np.count_nonzero(np.abs(z) <= beta, axis=1)
                top = float(np.max(counts))
                if beta == 0.0:
                    worst = max(worst, top)
                else:
                    worst = max(worst, top / (2.0 * widths[l] ** 1.5 * beta))
            entries["near_threshold_fraction"].per_trial.append(worst)

        if "pairwise_inner_product" in entries:
            low = math.inf
            for h in normalized:
                gram = h @ h.T
                iu = np.triu_indices(n, k=1)
                low = min(low, float(np.min(gram[iu])))
            entries["pairwise_inner_product"].per_trial.append(low)

        if "chain_product_norm" in entries:
            worst = 0.0
            for l1, l2 in itertools.combinations(range(1, depth + 1), 2):
                chain = MaskedChain(net.weights, trace.patterns, l1, l2 - 1, head=l2)
                worst = max(worst, float(np.max(chain.norms(rng))))
            entries["chain_product_norm"].per_trial.append(worst)

        if "sparse_output_probe" in entries:
            worst = 0.0
            for l in range(1, depth + 1):
                block = _sparse_probes(dims[l - 1], sparsity_s, probes, rng)
                worst = max(worst, _output_probe(net, trace.patterns, l, block))
            entries["sparse_output_probe"].per_trial.append(worst)

        if "sparse_bilinear_probe" in entries:
            worst = 0.0
            for l1, l2 in itertools.combinations(range(1, depth + 1), 2):
                a_block = _sparse_probes(dims[l1 - 1], sparsity_s, probes, rng)
                b_block = _sparse_probes(dims[l2], sparsity_s, probes, rng)
                worst = max(worst, _bilinear_probe(net, trace.patterns, l1, l2,
                                                   a_block, b_block))
            entries["sparse_bilinear_probe"].per_trial.append(worst)

        if "active_gradient_nodes" in entries:
            # labeled form: nodes j where the norm of
            # (1/n) sum_i a_i y_i 1{<w_j, x_{L-1,i}> > 0} x_{L-1,i}
            # clears rank ceil(m_L phi / n); report that norm in units of
            # ||a||_inf / n, minimized over random nonnegative probes a.
            need = max(1, int(math.ceil(widths[-1] * dataset.phi / n)))
            h_prev = trace.hidden[depth - 1]
            active = trace.patterns[depth - 1].astype(np.float64)
            low = math.inf
            for _ in range(gradient_probes):
                a = np.abs(rng.normals(n))
                c = a * dataset.labels / n
                node_vecs = h_prev.T @ (c[:, None] * active)
                norms = np.sort(np.linalg.norm(node_vecs, axis=0))[::-1]
                low = min(low, norms[need - 1] * n / float(np.max(a)))
            entries["active_gradient_nodes"].per_trial.append(low)

    report = PropertyReport(
        meta={
            "layer_dims": [int(m) for m in dims],
            "n": n, "mu": dataset.mu, "phi": dataset.phi,
            "beta": beta, "sparsity": sparsity_s,
            "trials": trials, "seed": seed, "delta": delta,
        },
        entries=[entries[name] for name in selected],
        allowed_failures=allowed_failures,
    )
    return report


# --- perturbation battery ---------------------------------------------------

def verify_perturbation_properties(params0: NetworkParams, params_a: NetworkParams,
                                   params_b: NetworkParams, dataset, *,
                                   loss=None, declared_tau: float | None = None,
                                   spectral_tol: float = 1e-3, probes: int = 64,
                                   sparsity_s: int | None = None, seed: int = 0,
                                   batch_size: int | None = None,
                                   batch_draws: int = 8) -> PropertyReport:
    """Compare two perturbed parameter sets against their common base.

    Radii are measured (never trusted); exceeding `declared_tau` flags the
    report instead of raising.  Gradient entries use `loss` (default:
    logistic).
    """
    from .losses import builtin_loss
    if loss is None:
        loss = builtin_loss("logistic")
    for p in (params_a, params_b):
        if tuple(p.layer_dims) != tuple(params0.layer_dims):
            raise ValueError("perturbed parameters must match the base shapes")

    dims = params0.layer_dims
    depth = params0.depth
    widths = dims[1:]
    m_min, m_max = min(widths), max(widths)
    n = dataset.n
    y = dataset.labels
    rng = PortableRng(seed + 104729)

    radii_a = [spectral_norm(wa - w0, tol=spectral_tol)
               for wa, w0 in zip(params_a.weights, params0.weights)]
    radii_b = [spectral_norm(wb - w0, tol=spectral_tol)
               for wb, w0 in zip(params_b.weights, params0.weights)]
    tau = max(radii_a + radii_b)

    trace0 = batch_forward(params0, dataset.inputs)
    trace_a = batch_forward(params_a, dataset.inputs)
    trace_b = batch_forward(params_b, dataset.inputs)

    entries = []

    radius_entry = PropertyEntry(
        name="perturbation_radius", direction="upper",
        per_trial=[tau], threshold=declared_tau,
        note="" if declared_tau is None or tau <= declared_tau
        else f"measured radius {tau:g} exceeds declared tau {declared_tau:g}")
    entries.append(radius_entry)

    entries.append(PropertyEntry(
        name="perturbed_weight_norm", direction="upper",
        per_trial=[max(spectral_norm(w, tol=spectral_tol)
                       for w in params_a.weights)],
        bound=1.0))

    # hidden drift between the two perturbed nets, per unit of L * sum of
    # their per-layer weight distances
    diffs = [spectral_norm(wa - wb, tol=spectral_tol)
             for wa, wb in zip(params_a.weights, params_b.weights)]
    worst = 0.0
    for l in range(1, depth + 1):
        denom = depth * sum(diffs[:l])
        num = float(np.max(np.linalg.norm(trace_a.hidden[l] - trace_b.hidden[l],
                                          axis=1)))
        if denom > 0.0:
            worst = max(worst, num / denom)
        elif num > 0.0:
            worst = math.inf
    entries.append(PropertyEntry(
        name="hidden_drift_ratio", direction="upper", per_trial=[worst],
        bound=1.0))

    drift_scale = depth ** (4.0 / 3.0) * tau ** (2.0 / 3.0)
    worst = 0.0
    for l in range(depth):
        num = max(pattern_diff_count(trace_a.patterns[l][i], trace_b.patterns[l][i])
                  for i in range(n))
        denom = drift_scale * widths[l]
        if denom > 0.0:
            worst = max(worst, num / denom)
        elif num > 0:
            worst = math.inf
    entries.append(PropertyEntry(
        name="pattern_drift_ratio", direction="upper", per_trial=[worst],
        bound=1.0))

    flipped = np.any(trace_a.patterns[-1] != trace0.patterns[-1], axis=0)
    union = int(np.count_nonzero(flipped))
    denom = n * drift_scale * widths[-1]
    entries.append(PropertyEntry(
        name="pattern_flip_union", direction="upper",
        per_trial=[union / denom if denom > 0.0
                   else (0.0 if union == 0 else math.inf)],
        bound=1.0,
        note=f"{union} of {widths[-1]} last-layer nodes flipped for some example"))

    if depth >= 2:
        worst = 0.0
        for l1, l2 in itertools.combinations(range(1, depth + 1), 2):
            chain = MaskedChain(params_a.weights, trace_a.patterns, l1, l2)
            worst = max(worst, float(np.max(chain.norms(rng))))
        entries.append(PropertyEntry(
            name="perturbed_chain_norm", direction="upper",
            per_trial=[worst / depth], bound=1.0))

    if tau > 0.0:
        s_pert = sparsity_s
        if s_pert is None:
            s_pert = int(min(m_min, max(1, math.ceil(drift_scale * m_min))))
        worst = 0.0
        for l in range(1, depth + 1):
            block = _sparse_probes(dims[l - 1], s_pert, probes, rng)
            worst = max(worst, _output_probe(params_a, trace_a.patterns, l, block))
        scale = depth ** (5.0 / 3.0) * tau ** (1.0 / 3.0) * \
            math.sqrt(m_max * math.log(m_max))
        entries.append(PropertyEntry(
            name="perturbed_sparse_probe", direction="upper",
            per_trial=[worst / scale], bound=1.0,
            note=f"probe sparsity {s_pert}"))

    # gradient norms at the perturbed points
    ratios_lower = []
    ratios_upper = []
    for trace in (trace_a, trace_b):
        spec, fro = gradient_norms(gradient_factors(
            params_a if trace is trace_a else params_b, trace, y, loss))
        sum_lp = float(np.sum(loss.deriv(y * trace.outputs)))
        ratios_lower.append(
            fro[-1] ** 2 * n ** 5 / (widths[-1] * dataset.phi * sum_lp ** 2)
            if sum_lp != 0.0 else math.inf)
        ratios_upper.append(
            max(spec) * n / (depth ** 2 * math.sqrt(m_max) * abs(sum_lp))
            if sum_lp != 0.0 else math.inf)
    entries.append(PropertyEntry(
        name="gradient_lower_ratio", direction="lower",
        per_trial=ratios_lower, threshold=0.0, bound=1.0,
        note="squared last-layer gradient Frobenius norm, in units of "
             "m_L phi (sum l')^2 / n^5"))
    entries.append(PropertyEntry(
        name="gradient_upper_ratio", direction="upper",
        per_trial=ratios_upper, bound=1.0))

    if batch_size is None:
        batch_size = max(1, n // 4)
    worst = 0.0
    lp_a = np.asarray(loss.deriv(y * trace_a.outputs), dtype=np.float64)
    for _ in range(batch_draws):
        batch = rng.sample_without_replacement(n, batch_size)
        spec, _ = gradient_norms(gradient_factors(params_a, trace_a, y, loss,
                                                  rows=batch))
        batch_sum = float(np.sum(lp_a[batch]))
        if batch_sum != 0.0:
            worst = max(worst, max(spec) * batch_size /
                        (depth ** 2 * math.sqrt(m_max) * abs(batch_sum)))
    entries.append(PropertyEntry(
        name="stochastic_gradient_upper_ratio", direction="upper",
        per_trial=[worst], bound=1.0, note=f"batch size {batch_size}"))

    return PropertyReport(
        meta={
            "layer_dims": [int(m) for m in dims],
            "n": n, "mu": dataset.mu, "phi": dataset.phi,
            "measured_tau": tau, "declared_tau": declared_tau,
            "radii_a": radii_a, "radii_b": radii_b,
            "loss": loss.name, "seed": seed,
        },
        entries=entries,
        allowed_failures=0,
    )


# --- scalar oracles ---------------------------------------------------------

def relu_kernel_closed_form(rho):
    """E[relu(Z1) relu(Z2)] for unit-variance Gaussians with correlation rho.

    Equals (sqrt(1 - rho^2) + rho (pi - arccos rho)) / (2 pi).
    """
    rho_arr = np.asarray(rho, dtype=np.float64)
    if np.any(np.abs(rho_arr) > 1.0):
        raise ValueError("correlation must lie in [-1, 1]")
    value = (np.sqrt(np.maximum(0.0, 1.0 - rho_arr ** 2))
             + rho_arr * (np.pi - np.arccos(rho_arr))) / (2.0 * np.pi)
    return float(value) if np.isscalar(rho) or rho_arr.ndim == 0 else value


def mc_relu_kernel(rho: float, samples: int, seed: int) -> tuple:
    """Monte-Carlo estimate of the ReLU product moment; returns (mean, stderr)."""
    if abs(rho) > 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    rng = PortableRng(seed)
    z1 = rng.normals(samples)
    z2 = rho * z1 + math.sqrt(max(0.0, 1.0 - rho * rho)) * rng.normals(samples)
    prod = np.maximum(z1, 0.0) * np.maximum(z2, 0.0)
    mean = float(np.mean(prod))
    stderr = float(np.std(prod, ddof=1) / math.sqrt(samples))
    return mean, stderr


def subset_mean_variance(u, batch_size: int) -> tuple:
    """Second moment of batch means of a zero-sum vector, two ways.

    Returns ``(enumeration, formula)``: the average of squared means over
    all size-`batch_size` subsets, and the closed form
    ``(n - B) / (B (n - 1)) * mean(u^2)``.  The two agree to roundoff.
    """
    u = np.asarray(u, dtype=np.float64)
    n = u.shape[0]
    if n < 2:
        raise ValueError("need at least two entries")
    if n > 20:
        raise ValueError("enumeration is limited to n <= 20")
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch size must be in [1, {n}]")
    if abs(float(np.sum(u))) > 1e-12:
        raise ValueError("entries must sum to zero")
    total = 0.0
    count = 0
    for subset in itertools.combinations(range(n), batch_size):
        m = float(np.sum(u[list(subset)])) / batch_size
        total += m * m
        count += 1
    enumeration = total / count
    formula = ((n - batch_size) * float(np.mean(u * u))) / (batch_size * (n - 1))
    return enumeration, formula


def concavity_inequality_check(a: float, b: float, p: float) -> bool:
    """(a - b) / b^{2p} >= (a^{1-2p} - b^{1-2p}) / (1 - 2p) within 1e-12 slack.

    Holds for all positive a, b because x^{1-2p} / (1 - 2p) is concave;
    p = 1/2 is excluded (the right side degenerates).
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if p == 0.5:
        raise ValueError("p = 1/2 is excluded")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1/2) or (1/2, 1]")
    lhs = (a - b) / b ** (2.0 * p)
    rhs = (a ** (1.0 - 2.0 * p) - b ** (1.0 - 2.0 * p)) / (1.0 - 2.0 * p)
    slack = 1e-12 * max(1.0, abs(lhs), abs(rhs))
    return lhs - rhs >= -slack
