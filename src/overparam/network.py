"""Deep feedforward ReLU network with fixed sign output layer.

The network computes ``f(x) = v . relu(W_L^T ... relu(W_1^T x))`` where the
output vector ``v`` has half +1 and half -1 entries.  The forward pass
records, for each layer, the binary pattern of strictly positive
pre-activations; gradients reuse those captured patterns, which makes the
derivative at a pre-activation of exactly 0 equal to 0 (a measure-zero
choice, but finite-difference checks must avoid kink-adjacent coordinates).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .linalg import PortableRng, gaussian_matrix

__all__ = [
    "BatchTrace",
    "CorruptCheckpointError",
    "ForwardTrace",
    "LayerGradients",
    "NetworkParams",
    "backprop_signals",
    "batch_forward",
    "batch_loss",
    "checkpoint_header",
    "forward",
    "gradient_factors",
    "gradient_norms",
    "init_network",
    "load_params",
    "loss_gradient",
    "output_telescope",
    "save_params",
]

# One gradient matrix per layer, same shapes as NetworkParams.weights.
LayerGradients = list


@dataclass
class NetworkParams:
    """Weights of the network.

    ``layer_dims = [d, m_1, ..., m_L]``; ``weights[l]`` has shape
    ``(m_l, m_{l+1})`` so layer l maps via ``W^T``.  ``output_vector`` is the
    fixed +-1 vector, first half +1.
    """

    layer_dims: tuple
    weights: list
    output_vector: np.ndarray
    seed: int | None = None

    @property
    def depth(self) -> int:
        return len(self.layer_dims) - 1

    def validate(self) -> None:
        dims = tuple(self.layer_dims)
        if len(dims) < 2 or any(m < 1 for m in dims):
            raise ValueError(f"bad layer dims {dims}")
        if len(self.weights) != len(dims) - 1:
            raise ValueError("wrong number of weight matrices")
        for l, w in enumerate(self.weights):
            if w.shape != (dims[l], dims[l + 1]):
                raise ValueError(
                    f"weights[{l}] has shape {w.shape}, expected {(dims[l], dims[l+1])}")
        m_out = dims[-1]
        if m_out % 2 != 0:
            raise ValueError("output width must be even")
        v = self.output_vector
        if v.shape != (m_out,) or not np.all(np.abs(v) == 1.0):
            raise ValueError("output vector must be +-1 of output width")
        if np.count_nonzero(v > 0) != m_out // 2:
            raise ValueError("output vector must have half +1 and half -1 entries")

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            layer_dims=tuple(self.layer_dims),
            weights=[w.copy() for w in self.weights],
            output_vector=self.output_vector.copy(),
            seed=self.seed,
        )


@dataclass
class ForwardTrace:
    """Single-example forward pass: hidden outputs, patterns, output.

    ``hidden[0]`` is the input; ``hidden[l]`` the layer-l output;
    ``patterns[l-1]`` the bool mask of strictly positive layer-l
    pre-activations.
    """

    hidden: list
    patterns: list
    output: float


@dataclass
class BatchTrace:
    """Vectorized forward pass over a batch of inputs (one row per example)."""

    hidden: list      # hidden[l]: (n, m_l), hidden[0] = inputs
    preacts: list     # preacts[l-1]: (n, m_l) pre-activations of layer l
    patterns: list    # patterns[l-1]: (n, m_l) bool
    outputs: np.ndarray


def init_network(layer_dims, seed: int) -> NetworkParams:
    """Gaussian-initialized network.

    Each column of ``weights[l]`` is drawn N(0, 2/m_{l+1} I) from a single
    PortableRng(seed) stream consumed layer by layer, so the whole
    parameter set is a pure function of (layer_dims, seed).  The output
    vector is deterministic: first half +1, second half -1.
    """
    dims = tuple(int(m) for m in layer_dims)
    if len(dims) < 2:
        raise ValueError("need at least one hidden layer")
    if any(m < 1 for m in dims):
        raise ValueError(f"all layer dims must be >= 1, got {dims}")
    if dims[-1] % 2 != 0:
        raise ValueError(f"output width must be even, got {dims[-1]}")
    rng = PortableRng(seed)
    weights = [
        gaussian_matrix(dims[l], dims[l + 1], 2.0 / dims[l + 1], rng)
        for l in range(len(dims) - 1)
    ]
    half = dims[-1] // 2
    v = np.concatenate([np.ones(half), -np.ones(half)])
    params = NetworkParams(layer_dims=dims, weights=weights, output_vector=v, seed=seed)
    params.validate()
    return params


def forward(params: NetworkParams, x: np.ndarray) -> ForwardTrace:
    """Forward pass of one input, capturing hidden outputs and patterns."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.layer_dims[0],):
        raise ValueError(
            f"input has shape {x.shape}, expected ({params.layer_dims[0]},)")
    hidden = [x]
    patterns = []
    h = x
    for w in params.weights:
        z = w.T @ h
        p = z > 0
        h = np.where(p, z, 0.0)
        patterns.append(p)
        hidden.append(h)
    return ForwardTrace(hidden=hidden, patterns=patterns,
                        output=float(params.output_vector @ h))


def batch_forward(params: NetworkParams, inputs: np.ndarray) -> BatchTrace:
    """Forward pass of a whole batch (rows of `inputs`)."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.layer_dims[0]:
        raise ValueError(
            f"inputs have shape {x.shape}, expected (n, {params.layer_dims[0]})")
    hidden = [x]
    preacts = []
    patterns = []
    h = x
    for w in params.weights:
        z = h @ w
        p = z > 0
        h = np.where(p, z, 0.0)
        preacts.append(z)
        patterns.append(p)
        hidden.append(h)
    return BatchTrace(hidden=hidden, preacts=preacts, patterns=patterns,
                      outputs=h @ params.output_vector)


def output_telescope(params: NetworkParams, trace: ForwardTrace, layer: int) -> float:
    """Recompute the output from `layer` onward using the captured patterns.

    For ``layer = L + 1`` the masked product is empty and the result is
    ``v . hidden[L]``; every valid `layer` must reproduce ``trace.output``
    up to roundoff.
    """
    depth = params.depth
    if not 1 <= layer <= depth + 1:
        raise ValueError(f"layer must be in [1, {depth + 1}], got {layer}")
    t = trace.hidden[layer - 1]
    for r in range(layer, depth + 1):
        t = np.where(trace.patterns[r - 1], params.weights[r - 1].T @ t, 0.0)
    return float(params.output_vector @ t)


def batch_loss(params: NetworkParams, dataset, loss) -> float:
    """Mean loss of y_i * f(x_i) over the dataset."""
    trace = batch_forward(params, dataset.inputs)
    return float(np.mean(loss.value(dataset.labels * trace.outputs)))


def backprop_signals(params: NetworkParams, trace: BatchTrace) -> list:
    """Per-layer backward signals g_l with rows g_{l,i} (shape (n, m_l)).

    ``g_{L,i}`` is the output vector masked by the layer-L pattern of
    example i; ``g_{l,i}`` propagates it down through the captured masks.
    The gradient of f at example i w.r.t. weights[l-1] is the outer
    product ``hidden[l-1][i] g_{l,i}^T``.
    """
    v = params.output_vector
    sig = trace.patterns[-1] * v[None, :]
    out = [sig]
    for l in range(params.depth - 1, 0, -1):
        sig = (sig @ params.weights[l].T) * trace.patterns[l - 1]
        out.append(sig)
    out.reverse()
    return out


def gradient_factors(params: NetworkParams, trace: BatchTrace, labels: np.ndarray,
                     loss, rows: np.ndarray | None = None) -> list:
    """Per-layer factors ``(A_l, B_l)`` of the (batch) mean-loss gradient.

    The gradient w.r.t. ``weights[l-1]`` is ``A_l^T B_l``: ``A_l`` holds the
    layer inputs ``hidden[l-1]`` of the batch rows (all rows when `rows` is
    None) and ``B_l`` their backprop signals weighted by
    ``l'(y_i f(x_i)) y_i / batch size``.  One backprop pass serves every layer.
    """
    y = labels if rows is None else labels[rows]
    outs = trace.outputs if rows is None else trace.outputs[rows]
    coeff = np.asarray(loss.deriv(y * outs), dtype=np.float64) * y / y.shape[0]
    factors = []
    for h, g in zip(trace.hidden, backprop_signals(params, trace)):
        if rows is not None:
            h, g = h[rows], g[rows]
        factors.append((h, coeff[:, None] * g))
    return factors


def loss_gradient(params: NetworkParams, dataset, loss) -> list:
    """Analytic gradient of the mean loss, one matrix per layer.

    Patterns are the ones captured by the forward pass at the current
    parameters (derivative 0 at ReLU kinks).
    """
    trace = batch_forward(params, dataset.inputs)
    return [a.T @ b for a, b in gradient_factors(params, trace, dataset.labels, loss)]


def gradient_norms(factors: list) -> tuple:
    """(spectral, frobenius) norms per layer of the gradients ``A^T B``.

    `factors` are the n-row ``(A, B)`` pairs of `gradient_factors`, so the
    nonzero singular values of each gradient are those of an n x n problem:
    exact norms at O(n^2 m) cost without materializing the gradient.
    """
    spectral = []
    frobenius = []
    for a, b in factors:
        gram_a = a @ a.T
        gram_b = b @ b.T
        frobenius.append(float(np.sqrt(max(0.0, np.sum(gram_a * gram_b)))))
        # ||A^T B||^2 is the top eigenvalue of gram_b gram_a, which for
        # gram_b = S S^T shares its eigenvalues with the symmetric S^T gram_a S
        lam, vec = np.linalg.eigh(gram_b)
        s = vec * np.sqrt(np.maximum(lam, 0.0))
        top = np.linalg.eigvalsh(s.T @ gram_a @ s)[-1]
        spectral.append(float(np.sqrt(max(0.0, top))))
    return spectral, frobenius


# --- checkpoint container -------------------------------------------------
#
# Deterministic binary format (identical bytes for identical params):
#   line 1: b"OPNET1"
#   line 2: JSON header {layer_dims, seed} (sorted keys)
#   then little-endian float64 C-order raw bytes of W_1..W_L and v.

_MAGIC = b"OPNET1"


def save_params(params: NetworkParams, path) -> None:
    params.validate()
    header = {
        "layer_dims": [int(m) for m in params.layer_dims],
        "seed": params.seed,
    }
    with open(path, "wb") as fh:
        fh.write(_MAGIC + b"\n")
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for w in params.weights:
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(params.output_vector, dtype="<f8").tobytes())


class CorruptCheckpointError(ValueError):
    """A checkpoint whose header cannot be read, whose payload is not
    exactly the size its header's layer_dims call for, or whose values do
    not form a valid network."""


def _read_header(fh, path) -> tuple:
    """(layer_dims, seed, sizes) from an open checkpoint positioned at its
    start, after checking that the rest of the file is exactly the payload
    of those dims; `sizes` counts the float64 values of W_1..W_L and v."""
    if fh.readline().strip() != _MAGIC:
        raise ValueError(f"{path}: not a network checkpoint")
    try:
        header = json.loads(fh.readline().decode("ascii"))
        dims = tuple(int(m) for m in header["layer_dims"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptCheckpointError(f"{path}: unreadable header ({exc})") from exc
    if len(dims) < 2 or any(m < 1 for m in dims):
        raise CorruptCheckpointError(f"{path}: bad layer_dims {list(dims)}")
    sizes = [dims[l] * dims[l + 1] for l in range(len(dims) - 1)] + [dims[-1]]
    payload = os.fstat(fh.fileno()).st_size - fh.tell()
    if payload != 8 * sum(sizes):
        raise CorruptCheckpointError(
            f"{path}: {payload} payload bytes, but layer_dims {list(dims)} "
            f"need {8 * sum(sizes)}")
    return dims, header.get("seed"), sizes


def checkpoint_header(path) -> tuple:
    """(layer_dims, seed) of a checkpoint, read without its weights.  Raises
    as `load_params` does on a bad header or a payload of the wrong size."""
    with open(path, "rb") as fh:
        dims, seed, _ = _read_header(fh, path)
    return dims, seed


def load_params(path) -> NetworkParams:
    with open(path, "rb") as fh:
        dims, seed, sizes = _read_header(fh, path)
        values = np.frombuffer(fh.read(), dtype="<f8")
    pieces = np.split(values, np.cumsum(sizes)[:-1])
    weights = [w.reshape(dims[l], dims[l + 1]).copy()
               for l, w in enumerate(pieces[:-1])]
    params = NetworkParams(layer_dims=dims, weights=weights,
                           output_vector=pieces[-1].copy(), seed=seed)
    try:
        params.validate()
    except ValueError as exc:
        raise CorruptCheckpointError(f"{path}: {exc}") from exc
    return params
