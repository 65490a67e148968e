"""Reference computations that only the tests need: one-shot Box-Muller
normals, the per-index integer draw, computations built on the batched
forward pass and the gradient factors of `overparam.network`, the reader
of the dataset CSV format, and the CLI's default battery settings."""

import numpy as np

from overparam.cli import DEFAULT_CONFIG
from overparam.data import Dataset
from overparam.network import batch_forward, gradient_factors


def battery_settings(**overrides) -> dict:
    """The arguments of `verify_init_properties` that the CLI takes from its
    config, at `DEFAULT_CONFIG`'s values, updated by `overrides`."""
    keys = ("trials", "delta", "spectral_tol", "probes", "gradient_probes",
            "allowed_failures")
    return dict({k: DEFAULT_CONFIG[k] for k in keys}, **overrides)


def box_muller(rng, count: int) -> np.ndarray:
    """`count` normals of `rng` from one Box-Muller pass over all of its
    ``2 * ceil(count / 2)`` raws, the definition of `PortableRng.normals`."""
    pairs = (count + 1) // 2
    raw = rng.raw(2 * pairs)
    u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def integer_below(rng, bound: int) -> int:
    """Unbiased integer in [0, bound) by rejection on `rng`'s raw stream, one
    raw a draw: the per-index draw of `PortableRng.sample_without_replacement`."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    limit = 2 ** 64 - 2 ** 64 % bound
    while True:
        r = int(rng.raw(1)[0])
        if r < limit:
            return r % bound


def batch_loss(params, dataset, loss) -> float:
    """Mean loss of y_i * f(x_i) over the dataset."""
    outputs = batch_forward(params, dataset.inputs).outputs
    return float(np.mean(loss.value(dataset.labels * outputs)))


def loss_gradient(params, dataset, loss) -> list:
    """Gradient of the mean loss, one matrix per layer, at the patterns of
    the current parameters (derivative 0 at ReLU kinks)."""
    trace = batch_forward(params, dataset.inputs)
    return [a.T @ b for a, b in gradient_factors(params, trace, dataset.labels, loss)]


def output_telescope(params, trace, layer: int) -> np.ndarray:
    """Every example's output recomputed from `layer` on through the
    trace's patterns; ``layer = L + 1`` is ``v . hidden[L]``."""
    if not 1 <= layer <= params.depth + 1:
        raise ValueError(f"layer must be in [1, {params.depth + 1}], got {layer}")
    t = trace.hidden[layer - 1]
    for r in range(layer, params.depth + 1):
        t = np.where(trace.patterns[r - 1], t @ params.weights[r - 1], 0.0)
    return t @ params.output_vector


def load_dataset(path) -> Dataset:
    """Read the CSV that `overparam.data.save_dataset` (and gen-data) writes."""
    meta = {}
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if "=" in token:
                        key, _, value = token.partition("=")
                        meta[key] = value
                continue
            rows.append([float(cell) for cell in line.split(",")])
    if "mu" not in meta or "phi" not in meta:
        raise ValueError(f"{path}: missing mu/phi metadata comments")
    table = np.asarray(rows, dtype=np.float64)
    return Dataset(inputs=table[:, :-1], labels=table[:, -1],
                   mu=float(meta["mu"]), phi=float(meta["phi"]))
