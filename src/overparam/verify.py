"""Empirical verification batteries and closed-form oracles.

``verify_init_properties`` measures, over repeated fresh initializations,
the quantities that a healthy Gaussian-initialized network must exhibit:
near-unit hidden norms, preserved cross-class separation, bounded outputs,
few near-threshold units, bounded masked-chain products, and a positive
count of active gradient nodes.  ``verify_perturbation_properties``
compares a trained network with its initialization: its distance from it,
how far its hidden outputs and activation patterns drift from those at the
initialization, and the gradient norm bounds at both points.

Each item measures candidate values per trial (one per layer, chain pair,
probe draw or batch), and its `PropertyEntry` folds them into the trial's
worst value.  One rule passes a value: it is finite and at most the
threshold ("upper") or strictly above it ("lower"), and an entry passes
when at most the allowed number of its trials fail, and not every one.
Entries without a threshold fit and report an empirical constant, because
the matching theory constants are existential; their limit is +inf
("upper") or 0 ("lower").

The sparse output probes, ``sparse_output_probe`` and
``perturbed_sparse_probe``, take their suprema over all s-sparse unit
vectors in closed form and draw nothing.  The items that draw (the wide
masked chains of ``chain_product_norm`` and ``perturbed_chain_norm``, the
probes of ``sparse_bilinear_probe`` and ``active_gradient_nodes``, and the
batches of ``stochastic_gradient_upper_ratio``) each read their own window
of a `PortableRng` stream: item k reads from ``k << 64`` raws in, so its
values do not depend on which items ran before it.  Init item k (of
`INIT_ITEMS`) reads stream ``seed + 7919 t`` in trial t; perturbation entry
k (of `_PERTURBATION_ENTRIES`) reads stream ``seed + 104729``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import cross_class_distance
from .linalg import THIN_SIDE, MaskedChain, PortableRng, Rounded, spectral_norm
from .losses import check_loss_assumptions
from .network import (NetworkParams, backprop_signals, batch_forward,
                      gradient_norms, init_network, max_pattern_distance)

__all__ = [
    "PropertyEntry",
    "PropertyReport",
    "concavity_inequality_check",
    "lemma_oracles",
    "mc_relu_kernel",
    "perturbation_radius",
    "relu_kernel_closed_form",
    "subset_mean_variance",
    "verify_init_properties",
    "verify_perturbation_properties",
]

@dataclass
class PropertyEntry:
    name: str
    direction: str               # "upper": worst is largest, passes <= threshold;
                                 # "lower": worst is smallest, passes > threshold
    per_trial: list = field(default_factory=list)
    threshold: float | None = None
    bound: float | None = None   # reference scale the constant is fitted against
    note: str = ""

    @property
    def trials(self) -> int:
        return len(self.per_trial)

    def fold(self, values) -> float:
        """The worst of `values` in this entry's direction; NaN if any is NaN."""
        return float(np.max(values) if self.direction == "upper" else np.min(values))

    def record(self, values) -> PropertyEntry:
        """Append one trial: the fold of its candidate values."""
        self.per_trial.append(self.fold(values))
        return self

    @property
    def measured(self) -> float:
        # worst case across trials
        return self.fold(self.per_trial) if self.per_trial else float("nan")

    @property
    def constant(self) -> float | None:
        if self.bound in (None, 0.0) or not self.per_trial:
            return None
        return self.measured / self.bound

    def trial_failures(self) -> int:
        """Trials that fail the pass rule of the module docstring."""
        upper = self.direction == "upper"
        limit = self.threshold
        if limit is None:
            limit = math.inf if upper else 0.0
        return sum(1 for v in self.per_trial if not (
            math.isfinite(v) and (v <= limit if upper else v > limit)))

    def passed(self, allowed_failures: int = 0) -> bool:
        """At most `allowed_failures` trials fail, and not every trial."""
        failures = self.trial_failures()
        return failures == 0 or failures <= allowed_failures and failures < self.trials

    def as_dict(self, allowed_failures: int = 0) -> dict:
        failures = self.trial_failures()
        return dict(asdict(self), measured=self.measured, constant=self.constant,
                    trials=self.trials, failures=failures,
                    failure_fraction=failures / self.trials if self.trials else 0.0,
                    passed=self.passed(allowed_failures))


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


# Bytes of the row block that _bilinear_probe takes through a chain at a
# time, at the chain's widest layer.  At 64 probes and m=1000 a block holds
# one example, and the (2, 3) pair of a [10, 1000, 1000, 1000] net at n=20
# took 15-16 ms, as it did with all examples in one 10 MB block.
_PROBE_BLOCK_BYTES = 1 << 19


def _item_stream(seed: int, items: tuple, name: str) -> PortableRng:
    """Stream `seed` from ``k << 64`` raws in, k the index of `name` in
    `items`.  No item draws 2**64 raws, so the windows do not overlap."""
    rng = PortableRng(seed)
    rng.advance(items.index(name) << 64)
    return rng


def _signals(params: NetworkParams, trace) -> list:
    """`backprop_signals` of every example of `trace`; a signal that
    overflows reads inf or NaN, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return backprop_signals(params, trace.patterns)


def _factors(trace, signals: list, labels: np.ndarray, lprime: np.ndarray,
             rows=slice(None)) -> list:
    """`gradient_factors` of the examples `rows` of `trace`, from the
    backprop `signals` of all its examples (a BLAS may round a GEMM of a few
    rows apart from the same rows of a larger one, in the last bits)."""
    labels, lprime = labels[rows], lprime[rows]
    with np.errstate(over="ignore", invalid="ignore"):
        coeff = lprime * labels / labels.shape[0]
        return [(h[rows], coeff[:, None] * g[rows])
                for h, g in zip(trace.hidden[:-1], signals)]


def _output_probe(params: NetworkParams, signals: list, sparsity: int) -> list:
    """Per layer l, the sup over examples i and s-sparse unit u of
    ``|v . chain_i u|``, chain_i the masked layers l..L: the 2-norm of the
    min(s, dim) largest |entries| of row i of ``g_l W_l^T``, g_l the
    backprop `signals`, which is ``v^T chain_i``.  An overflowing row reads
    inf."""
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        for w, g in zip(params.weights, signals):
            rest = max(0, w.shape[0] - sparsity)     # entries outside the support
            sq = np.partition(np.square(g @ w.T), rest, axis=1)
            values.append(float(np.sqrt(np.max(np.sum(sq[:, rest:], axis=1)))))
    return values


def _bilinear_probe(params: NetworkParams, patterns, l1: int, l2: int,
                    a_block: np.ndarray, b_block: np.ndarray) -> list:
    """Per block of examples, the max over its examples and the probe pairs
    of ``|b . W_l2^T chain_i a|``, with chain_i the masked layers l1..l2-1.

    Only the middle layers depend on the example, and they run on
    min(d_in, probes) rows per example, d_in the input dimension of layer
    l1: the rows of W_l1 masked by the example's layer-l1 pattern when d_in
    is at most the probe count (the a probes are then applied last), and
    otherwise the probe images ``a^T W_l1`` masked the same way.  Examples
    go through in blocks whose rows take at most ``_PROBE_BLOCK_BYTES`` at
    the chain's widest layer (one example at least), so no (n, probes, m)
    array is formed.
    """
    w = params.weights
    rows_first = w[l1 - 1].shape[0] <= a_block.shape[1]
    first = w[l1 - 1] if rows_first else a_block.T @ w[l1 - 1]
    right = (b_block.T @ w[l2 - 1].T).T
    step = max(1, _PROBE_BLOCK_BYTES
               // (8 * first.shape[0] * max(params.layer_dims[l1:l2])))
    values = []
    for lo in range(0, patterns[0].shape[0], step):
        block = [p[lo:lo + step] for p in patterns]
        # the b probes' images W_l2 b are the chain's unmasked head
        chain = MaskedChain(w[:l2 - 1] + [right], block, l1 + 1, l2 - 1, head=l2)
        vals = chain.apply(block[l1 - 1][:, None, :] * first)
        if rows_first:
            vals = a_block.T @ vals
        values.append(float(np.max(np.abs(vals))))
    return values


def _pair_norms(weights: list, patterns: list, headed: bool, rng: PortableRng,
                tol: float, rounded: list) -> list:
    """Each example's norm of the masked chain of every layer pair l1 < l2,
    in pair order: of layers l1..l2-1 headed by ``W_l2^T`` (`headed`), or of
    layers l1..l2.  The thin chains from one l1 share one pass
    (`MaskedChain.prefix_norms`) and draw nothing; a wide one draws its
    start from `rng`.  All chains take each weight's scaling from `rounded`."""
    depth = len(weights)
    thin = {}
    values = []
    for l1, l2 in itertools.combinations(range(1, depth + 1), 2):
        if weights[l1 - 1].shape[0] > THIN_SIDE:
            values.append(MaskedChain(weights, patterns, l1, l2 - 1 if headed else l2,
                                      l2 if headed else None, rounded).norms(rng, tol))
            continue
        if l1 not in thin:
            thin[l1] = MaskedChain(weights, patterns, l1, depth,
                                   rounded=rounded).prefix_norms(headed)
        values.append(thin[l1][l2 - l1 - 1])
    return values


def _sparse_probes(dim: int, s: int, count: int, rng: PortableRng) -> np.ndarray:
    """(dim, count) block of unit vectors with at most s nonzeros each:
    probe j puts its normals, over their 2-norm, on its support, both from
    round j of `PortableRng.samples_and_normals` (a zero draw puts 1 on its
    first index)."""
    support, vals = rng.samples_and_normals(dim, min(s, dim), count)
    # each row's own dot, as np.linalg.norm takes it, so the bits do not
    # depend on the block
    norm = np.sqrt([v @ v for v in vals])
    zero = norm == 0.0
    vals[zero, 0] = 1.0
    norm[zero] = 1.0
    block = np.zeros((dim, count))
    block[support, np.arange(count)[:, None]] = vals / norm[:, None]
    return block


# --- initialization battery -------------------------------------------------

@dataclass(frozen=True)
class _InitRun:
    """Settings shared by every trial of one init battery run."""

    dataset: object
    widths: tuple
    beta: float
    sparsity: int
    delta: float
    probes: int
    gradient_probes: int
    spectral_tol: float

    @property
    def depth(self) -> int:
        return len(self.widths)


# Each item measures one trial's candidate values from (run, net, trace, rng,
# rounded), `rounded` holding a `Rounded` of each of the trial's weights (None
# once the last item in `_ROUNDED_READERS` is done); its entry folds them.  A
# one-layer net has no layer pair, so the pair items give it the vacuous 0.

def _hidden_norm_deviation(run, net, trace, rng, rounded) -> list:
    return [float(np.max(np.abs(np.linalg.norm(h, axis=1) - 1.0)))
            for h in trace.hidden[1:]]


def _weight_spectral_norm(run, net, trace, rng, rounded) -> list:
    return [spectral_norm(w, tol=run.spectral_tol) for w in rounded]


def _cross_class_separation(run, net, trace, rng, rounded) -> list:
    return [cross_class_distance(_normalized_rows(h), run.dataset.labels)
            for h in trace.hidden[1:]]


def _output_magnitude(run, net, trace, rng, rounded) -> np.ndarray:
    return np.abs(trace.outputs)


def _near_threshold_fraction(run, net, trace, rng, rounded) -> list:
    """Most pre-activations of one example within beta of zero, in units of
    2 m^1.5 beta (the raw count when beta is 0), per layer."""
    return [float(np.max(np.count_nonzero(np.abs(z) <= run.beta, axis=1)))
            / (1.0 if run.beta == 0.0 else 2.0 * m ** 1.5 * run.beta)
            for m, z in zip(run.widths, trace.preacts)]


def _chain_product_norm(run, net, trace, rng, rounded) -> list:
    return [float(np.max(norms)) for norms in _pair_norms(
        net.weights, trace.patterns, True, rng, run.spectral_tol, rounded)] or [0.0]


def _sparse_output_probe(run, net, trace, rng, rounded) -> list:
    return _output_probe(net, _signals(net, trace), run.sparsity)


def _sparse_bilinear_probe(run, net, trace, rng, rounded) -> list:
    dims = net.layer_dims
    values = []
    for l1, l2 in itertools.combinations(range(1, run.depth + 1), 2):
        a_block = _sparse_probes(dims[l1 - 1], run.sparsity, run.probes, rng)
        b_block = _sparse_probes(dims[l2], run.sparsity, run.probes, rng)
        values += _bilinear_probe(net, trace.patterns, l1, l2, a_block, b_block)
    return values or [0.0]


def _active_gradient_nodes(run, net, trace, rng, rounded) -> list:
    # labeled form: nodes j where the norm of
    # (1/n) sum_i a_i y_i 1{<w_j, x_{L-1,i}> > 0} x_{L-1,i}
    # clears rank ceil(m_L phi / n); report that norm in units of
    # ||a||_inf / n, one value per random nonnegative probe a.
    # Node j's vector is column j of h_prev^T x, x = c * active: its
    # squared norm x_j^T G x_j, with G the n x n Gram matrix of h_prev,
    # needs no (m_{L-1}, m_L) temporary.  Roundoff can leave a zero
    # norm's square slightly negative, hence the clamp.
    n = run.dataset.n
    need = max(1, int(math.ceil(run.widths[-1] * run.dataset.phi / n)))
    h_prev = trace.hidden[run.depth - 1]
    gram = h_prev @ h_prev.T
    active = trace.patterns[run.depth - 1].astype(np.float64)
    values = []
    for _ in range(run.gradient_probes):
        a = np.abs(rng.normals(n))
        c = a * run.dataset.labels / n
        x = c[:, None] * active
        sq = np.einsum("ij,ij->j", x, gram @ x)
        norms = np.sort(np.sqrt(np.maximum(sq, 0.0)))[::-1]
        values.append(norms[need - 1] * n / float(np.max(a)))
    return values


def _pairwise_inner_product(run, net, trace, rng, rounded) -> list:
    iu = np.triu_indices(run.dataset.n, k=1)
    return [float(np.min((h @ h.T)[iu]))
            for h in map(_normalized_rows, trace.hidden[1:])]


# name -> (measure, direction, threshold, bound).  `threshold` (None: the
# entry only fits a constant) and `bound`, the scale that constant is fitted
# against, are functions of the run.
_INIT_TABLE = {
    "hidden_norm_deviation": (
        _hidden_norm_deviation, "upper", lambda r: 0.2,
        lambda r: r.depth * math.sqrt(math.log(r.dataset.n * r.depth / r.delta)
                                      / min(r.widths))),
    "weight_spectral_norm": (_weight_spectral_norm, "upper", None, lambda r: 1.0),
    "cross_class_separation": (
        _cross_class_separation, "lower", lambda r: r.dataset.phi / 2.0,
        lambda r: r.dataset.phi / 2.0),
    "output_magnitude": (
        _output_magnitude, "upper", lambda r: 6.0,
        lambda r: math.sqrt(math.log(r.dataset.n / r.delta))),
    "near_threshold_fraction": (
        _near_threshold_fraction, "upper", lambda r: 1.0, lambda r: 1.0),
    "chain_product_norm": (
        _chain_product_norm, "upper", None, lambda r: float(r.depth)),
    "sparse_output_probe": (
        _sparse_output_probe, "upper", None,
        lambda r: r.depth * math.sqrt(r.sparsity * math.log(max(r.widths)))),
    "sparse_bilinear_probe": (
        _sparse_bilinear_probe, "upper", None,
        lambda r: r.depth * math.sqrt(r.sparsity * math.log(max(r.widths))
                                      / min(r.widths))),
    "active_gradient_nodes": (_active_gradient_nodes, "lower", None, lambda r: 1.0),
    "pairwise_inner_product": (
        _pairwise_inner_product, "lower", lambda r: r.dataset.mu ** 2 / 2.0,
        lambda r: r.dataset.mu ** 2 / 2.0),
}
INIT_ITEMS = tuple(_INIT_TABLE)
# the items that read the scalings and float32 copies of a trial's weights
_ROUNDED_READERS = ("weight_spectral_norm", "chain_product_norm")


def verify_init_properties(params: NetworkParams, dataset, beta: float | None = None,
                           sparsity_s: int | None = None, *, trials: int,
                           seed: int = 0, allowed_failures: int, delta: float,
                           spectral_tol: float, probes: int, gradient_probes: int,
                           items=None) -> PropertyReport:
    """Measure the initialization properties over `trials` fresh networks.

    Trial 0 evaluates `params` itself; trial t re-initializes the same
    architecture with seed ``seed + t``.  An item passes when at most
    `allowed_failures` trials fail the entry's pass rule (see the module
    docstring; entries without a threshold fit a constant), and at least one
    trial does not.
    `items` selects and orders the report's entries, each named once.
    Item k of `INIT_ITEMS` draws its probes in trial t from stream
    ``seed + 7919 t``, starting ``k << 64`` raws in, so its values do not
    depend on which others are selected or in what order.

    `beta` defaults to ``m^-1/2`` (near-threshold window) and `sparsity_s`
    to a ``log``-sized support for the sparse probes.  `spectral_tol` is
    the Ritz-residual tolerance of every spectral norm the battery takes,
    the weights' and the wide masked chains'.
    """
    params.validate()
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if probes < 1:
        raise ValueError(f"probes must be at least 1, got {probes}")
    if gradient_probes < 1:
        raise ValueError(f"gradient_probes must be at least 1, "
                         f"got {gradient_probes}")
    if allowed_failures < 0:
        raise ValueError(f"allowed_failures must be non-negative, "
                         f"got {allowed_failures}")
    if isinstance(items, str):
        raise ValueError(f"items must be a list of item names, "
                         f"not the string {items!r}")
    if items is not None and not items:
        raise ValueError("items must name at least one item, got none")
    dims = params.layer_dims
    depth = params.depth
    m_min = min(dims[1:])
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
    repeated = sorted({name for name in selected if selected.count(name) > 1})
    if repeated:
        raise ValueError(f"items must name each item once, got {repeated} "
                         f"more than once")
    run = _InitRun(dataset=dataset, widths=tuple(dims[1:]), beta=beta,
                   sparsity=sparsity_s, delta=delta, probes=probes,
                   gradient_probes=gradient_probes, spectral_tol=spectral_tol)
    entries = {}
    for name in selected:
        _, direction, threshold, bound = _INIT_TABLE[name]
        entries[name] = PropertyEntry(
            name=name, direction=direction, bound=bound(run),
            threshold=None if threshold is None else threshold(run))
    if "near_threshold_fraction" in entries and beta == 0.0:
        entries["near_threshold_fraction"].note = \
            "beta=0: measured value is the raw count of exactly-zero pre-activations"

    readers = [name for name in selected if name in _ROUNDED_READERS]
    for t in range(trials):
        net = params if t == 0 else init_network(dims, seed + t)
        trace = batch_forward(net, dataset.inputs)
        # each weight's scaling and float32 copy are made once a trial, and
        # dropped after their last reader
        rounded = [Rounded(w) for w in net.weights]
        for name, entry in entries.items():
            rng = _item_stream(seed + 7919 * t, INIT_ITEMS, name)
            entry.record(_INIT_TABLE[name][0](run, net, trace, rng, rounded))
            if readers and name == readers[-1]:
                rounded = None

    return PropertyReport(
        meta={
            "layer_dims": [int(m) for m in dims],
            "n": n, "mu": dataset.mu, "phi": dataset.phi,
            "beta": beta, "sparsity": sparsity_s,
            "trials": trials, "seed": seed, "delta": delta,
        },
        entries=[entries[name] for name in selected],
        allowed_failures=allowed_failures,
    )


# --- perturbation battery ---------------------------------------------------

# minibatches behind the stochastic_gradient_upper_ratio entry
_BATCH_DRAWS = 8

# the perturbation battery's entries in report order
_PERTURBATION_ENTRIES = (
    "perturbation_radius", "perturbed_weight_norm", "hidden_drift_ratio",
    "pattern_drift_ratio", "pattern_flip_union", "perturbed_chain_norm",
    "perturbed_sparse_probe", "gradient_lower_ratio", "gradient_upper_ratio",
    "stochastic_gradient_upper_ratio")


def _ratio(num: float, denom: float) -> float:
    """num / denom, with 0 / 0 read as 0, a positive num over 0 as inf, and
    NaN when either is NaN."""
    if math.isnan(num) or math.isnan(denom):
        return math.nan
    if denom > 0.0:
        return num / denom
    return math.inf if num > 0 else 0.0


def perturbation_radius(params: NetworkParams, reference: NetworkParams,
                        tol: float = 1e-10) -> list:
    """Per-layer spectral norm of W_l - W_l^(0), solved on each pair's
    `Rounded`: from the float32 floor of `linalg` on, no float64 difference
    of a wide layer is formed."""
    if tuple(params.layer_dims) != tuple(reference.layer_dims):
        raise ValueError("parameter shapes do not match")
    return [spectral_norm(Rounded(w, w0), tol=tol)
            for w, w0 in zip(params.weights, reference.weights)]


def verify_perturbation_properties(params0: NetworkParams, trained: NetworkParams,
                                   dataset, *, loss, spectral_tol: float,
                                   declared_tau: float | None = None,
                                   seed: int = 0) -> PropertyReport:
    """Compare a trained parameter set with its initialization `params0`.

    Radii are measured (never trusted), like every spectral norm here at
    `spectral_tol`; exceeding `declared_tau` flags the report instead of
    raising.  Gradient entries use `loss`, whose derivative is evaluated
    once a network.  One backprop runs a network: the trained network's
    signals serve its sparse probe, its gradient entries and each
    stochastic batch, which takes their rows, and the initialization's
    serve its gradient entries.  The settings of the battery are fixed: the
    perturbed sparse probe is the exact sup over unit vectors whose support
    is the expected pattern drift ``min(m, ceil(L^(4/3) tau^(2/3) m))``,
    and the stochastic gradient entry takes the worst of 8
    (`_BATCH_DRAWS`) batches of ``max(1, n // 4)`` examples.
    """
    n = dataset.n
    dims = params0.layer_dims
    depth = params0.depth
    widths = dims[1:]
    m_min, m_max = min(widths), max(widths)

    radii = perturbation_radius(trained, params0, tol=spectral_tol)
    radius_entry = PropertyEntry(name="perturbation_radius", direction="upper",
                                 threshold=declared_tau).record(radii)
    tau = radius_entry.measured
    if declared_tau is not None and not tau <= declared_tau:
        radius_entry.note = f"measured radius {tau:g} exceeds declared tau {declared_tau:g}"
    y = dataset.labels
    stream = seed + 104729

    trace0 = batch_forward(params0, dataset.inputs)
    trace = batch_forward(trained, dataset.inputs)

    # the trained weights' chains, then norms, share one scaling and float32
    # copy a weight (at n=20, m=1000 the norms first raised peak RSS by 0.9 MiB)
    rounded = [Rounded(w) for w in trained.weights]
    chain = PropertyEntry(name="perturbed_chain_norm", direction="upper", bound=1.0)
    if depth >= 2:
        rng = _item_stream(stream, _PERTURBATION_ENTRIES, "perturbed_chain_norm")
        chain.record([float(np.max(norms)) / depth for norms in _pair_norms(
            trained.weights, trace.patterns, False, rng, spectral_tol, rounded)])
    entries = [radius_entry, PropertyEntry(
        name="perturbed_weight_norm", direction="upper", bound=1.0).record(
        [spectral_norm(w, tol=spectral_tol) for w in rounded])]
    rounded = None

    # hidden drift from the initialization, per unit of L * sum of the
    # per-layer radii; a norm that overflows reads inf, and fails
    with np.errstate(over="ignore"):
        drift = [float(np.max(np.linalg.norm(trace.hidden[l] - trace0.hidden[l],
                                             axis=1))) for l in range(1, depth + 1)]
    entries.append(PropertyEntry(
        name="hidden_drift_ratio", direction="upper", bound=1.0).record(
        [_ratio(num, depth * sum(radii[:l])) for l, num in enumerate(drift, 1)]))

    drift_scale = depth ** (4.0 / 3.0) * tau ** (2.0 / 3.0)
    entries.append(PropertyEntry(
        name="pattern_drift_ratio", direction="upper", bound=1.0).record(
        [_ratio(num, drift_scale * m) for num, m in
         zip(max_pattern_distance(trace.patterns, trace0.patterns), widths)]))

    flipped = np.any(trace.patterns[-1] != trace0.patterns[-1], axis=0)
    union = int(np.count_nonzero(flipped))
    entries.append(PropertyEntry(
        name="pattern_flip_union", direction="upper", bound=1.0,
        note=f"{union} of {widths[-1]} last-layer nodes flipped for some example"
    ).record([_ratio(union, n * drift_scale * widths[-1])]))

    if depth >= 2:
        entries.append(chain)

    signals = _signals(trained, trace)
    if tau > 0.0:
        s_pert = max(1, math.ceil(min(drift_scale, 1.0) * m_min))
        scale = depth ** (5.0 / 3.0) * tau ** (1.0 / 3.0) * \
            math.sqrt(m_max * math.log(m_max))
        probe = _output_probe(trained, signals, s_pert)
        entries.append(PropertyEntry(
            name="perturbed_sparse_probe", direction="upper", bound=1.0,
            note=f"probe sparsity {s_pert}").record([v / scale for v in probe]))

    # gradient norms at the trained point and at the initialization
    lower = PropertyEntry(
        name="gradient_lower_ratio", direction="lower", threshold=0.0, bound=1.0,
        note="squared last-layer gradient Frobenius norm, in units of "
             "m_L phi (sum l')^2 / n^5")
    upper = PropertyEntry(name="gradient_upper_ratio", direction="upper", bound=1.0)
    lp, lp0 = (np.asarray(loss.deriv(y * t.outputs), dtype=np.float64)
               for t in (trace, trace0))
    for net_trace, net_signals, net_lp in ((trace, signals, lp),
                                           (trace0, _signals(params0, trace0), lp0)):
        spec, fro = gradient_norms(_factors(net_trace, net_signals, y, net_lp))
        sum_lp = float(np.sum(net_lp))
        with np.errstate(all="ignore"):   # a numpy power overflows, not raises
            lower.record([float(fro[-1] ** 2 * n ** 5 / (widths[-1] * dataset.phi
                          * np.float64(sum_lp) ** 2)) if sum_lp != 0.0 else math.inf])
        upper.record([s * n / (depth ** 2 * math.sqrt(m_max) * abs(sum_lp))
                      for s in spec] if sum_lp != 0.0 else [math.inf])
    entries += [lower, upper]

    batch_size = max(1, n // 4)
    rng = _item_stream(stream, _PERTURBATION_ENTRIES, "stochastic_gradient_upper_ratio")
    ratios = []
    for _ in range(_BATCH_DRAWS):
        batch = rng.sample_without_replacement(n, batch_size)
        spec, _ = gradient_norms(_factors(trace, signals, y, lp, rows=batch))
        batch_scale = depth ** 2 * math.sqrt(m_max) * abs(float(np.sum(lp[batch])))
        ratios += [_ratio(s * batch_size, batch_scale) for s in spec]
    entries.append(PropertyEntry(
        name="stochastic_gradient_upper_ratio", direction="upper", bound=1.0,
        note=f"batch size {batch_size}").record(ratios))

    return PropertyReport(
        meta={
            "layer_dims": [int(m) for m in dims],
            "n": n, "mu": dataset.mu, "phi": dataset.phi,
            "measured_tau": tau, "declared_tau": declared_tau,
            "radii": radii, "loss": loss.name, "seed": seed,
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


def concavity_inequality_check(a, b, p):
    """(a - b) / b^{2p} >= (a^{1-2p} - b^{1-2p}) / (1 - 2p) within 1e-12 slack.

    Holds for all positive a, b because x^{1-2p} / (1 - 2p) is concave;
    p = 1/2 is excluded (the right side degenerates).  Takes scalars, which
    give a bool, or arrays that broadcast, which give a bool array; one bad
    element raises.
    """
    a, b, p = (np.asarray(x, dtype=np.float64) for x in (a, b, p))
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("a and b must be positive")
    if np.any(p == 0.5):
        raise ValueError("p = 1/2 is excluded")
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError("p must lie in [0, 1/2) or (1/2, 1]")
    lhs = (a - b) / b ** (2.0 * p)
    rhs = (a ** (1.0 - 2.0 * p) - b ** (1.0 - 2.0 * p)) / (1.0 - 2.0 * p)
    slack = 1e-12 * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    holds = lhs - rhs >= -slack
    return bool(holds) if holds.ndim == 0 else holds


def lemma_oracles(seed: int, mc_samples: int, loss) -> dict:
    """The scalar lemma checks, as ``lemma_oracles.json`` records them.

    The ReLU kernel's closed form against ``rho / 2`` on a grid and against
    Monte-Carlo estimates (stream ``seed + i`` for the i-th correlation),
    the subset-mean variance on a worked case, 10,000 concavity samples
    drawn from `PortableRng` stream `seed`, and the assumption audit of
    `loss`.
    """
    grid = np.linspace(-1.0, 1.0, 1001)
    kernel_margin = float(np.min(relu_kernel_closed_form(grid) - grid / 2.0))
    mc_rows = []
    for i, rho in enumerate((-0.5, 0.0, 0.5, 0.9, 1.0)):
        estimate, stderr = mc_relu_kernel(rho, mc_samples, seed=seed + i)
        reference = relu_kernel_closed_form(rho)
        mc_rows.append({
            "rho": rho, "estimate": estimate, "stderr": stderr,
            "closed_form": reference,
            "within_4_stderr": bool(abs(estimate - reference) <= 4.0 * stderr),
        })
    enum, formula = subset_mean_variance(np.array([1.0, -1.0, 2.0, -2.0]), 2)
    draws = 10_000
    # a and b log-uniform on [e^-3, e^3], p uniform on [0, 1) away from 1/2
    u = PortableRng(seed).uniforms(3 * draws).reshape(draws, 3)
    a, b = np.exp(6.0 * u[:, :2] - 3.0).T
    p = np.where(np.abs(u[:, 2] - 0.5) < 1e-3, 0.25, u[:, 2])
    violations = int(np.count_nonzero(~concavity_inequality_check(a, b, p)))
    return {
        "relu_kernel": {
            "grid_points": int(grid.size),
            "min_margin_vs_half_rho": kernel_margin,
            "lower_bound_holds": bool(kernel_margin >= -1e-12),
            "monte_carlo": mc_rows,
        },
        "subset_variance": {
            "case_u": [1.0, -1.0, 2.0, -2.0],
            "batch_size": 2,
            "enumeration": enum,
            "formula": formula,
            "equal": bool(abs(enum - formula) <= 1e-12),
        },
        "concavity": {"samples": draws, "violations": violations},
        "loss_assumptions": check_loss_assumptions(loss).as_dict(),
    }
