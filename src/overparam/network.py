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
import math
import os
from dataclasses import dataclass

import numpy as np

from .linalg import PortableRng, gaussian_matrix

__all__ = [
    "BatchTrace",
    "CorruptCheckpointError",
    "NetworkParams",
    "backprop_signals",
    "batch_forward",
    "checkpoint_header",
    "gradient_factors",
    "gradient_norms",
    "init_network",
    "load_params",
    "max_pattern_distance",
    "save_params",
]


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
        )


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
    params = NetworkParams(layer_dims=dims, weights=weights, output_vector=v)
    params.validate()
    return params


@np.errstate(over="ignore", invalid="ignore")
def batch_forward(params: NetworkParams, inputs: np.ndarray) -> BatchTrace:
    """Forward pass of a whole batch (rows of `inputs`); overflow is silent."""
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


def max_pattern_distance(patterns: list, reference: list) -> list:
    """Per layer, the largest number of units whose activation differs
    between an example's two patterns, over all examples (rows)."""
    out = []
    for p, p0 in zip(patterns, reference):
        if p.shape != p0.shape:
            raise ValueError(f"pattern shapes differ: {p.shape} vs {p0.shape}")
        out.append(int(np.max(np.count_nonzero(p != p0, axis=1))))
    return out


def backprop_signals(params: NetworkParams, patterns: list) -> list:
    """Per-layer backward signals g_l with rows g_{l,i} (shape (n, m_l)).

    ``g_{L,i}`` is the output vector masked by example i's layer-L pattern
    (`patterns` are a forward pass's, or any rows of them); ``g_{l,i}``
    propagates it down through the masks.  The gradient of f at example i
    w.r.t. weights[l-1] is the outer product ``hidden[l-1][i] g_{l,i}^T``.
    """
    v = params.output_vector
    sig = patterns[-1] * v[None, :]
    out = [sig]
    for l in range(params.depth - 1, 0, -1):
        sig = (sig @ params.weights[l].T) * patterns[l - 1]
        out.append(sig)
    out.reverse()
    return out


def gradient_factors(params: NetworkParams, trace: BatchTrace, labels: np.ndarray,
                     lprime: np.ndarray, rows: np.ndarray | None = None) -> list:
    """Per-layer factors ``(A_l, B_l)`` of the (batch) mean-loss gradient.

    The gradient w.r.t. ``weights[l-1]`` is ``A_l^T B_l``: ``A_l`` holds the
    layer inputs ``hidden[l-1]`` of the batch rows (all rows when `rows` is
    None) and ``B_l`` their backprop signals weighted by ``lprime_i y_i /
    batch size``, `lprime` the caller's ``l'(y_i f(x_i))`` of every trace
    row.  One backprop pass, over the batch rows only, serves every layer.
    """
    hidden, patterns = trace.hidden[:-1], trace.patterns
    if rows is not None:
        hidden = [h[rows] for h in hidden]
        patterns = [p[rows] for p in patterns]
        labels, lprime = labels[rows], lprime[rows]
    coeff = lprime * labels / labels.shape[0]
    # an overflowing product, or an infinite coefficient times a zero
    # signal, is not finite, and gradient_norms reports it as NaN
    with np.errstate(over="ignore", invalid="ignore"):
        return [(h, coeff[:, None] * g)
                for h, g in zip(hidden, backprop_signals(params, patterns))]


@np.errstate(over="ignore", invalid="ignore")
def gradient_norms(factors: list) -> tuple:
    """(spectral, frobenius) norms per layer of the gradients ``A^T B``.

    `factors` are the n-row ``(A, B)`` pairs of `gradient_factors`, so the
    nonzero singular values of each gradient are those of an n x n problem:
    exact norms at O(n^2 m) cost without materializing the gradient.  A
    pair whose Gram matrices are not finite (or overflow) gets NaN norms; a
    pair with finite Gram matrices whose squared norms overflow gets inf.
    """
    spectral = []
    frobenius = []
    for a, b in factors:
        gram_a = a @ a.T
        gram_b = b @ b.T
        if not (np.isfinite(gram_a).all() and np.isfinite(gram_b).all()):
            spectral.append(float("nan"))
            frobenius.append(float("nan"))
            continue
        fro_sq = np.sum(gram_a * gram_b)
        frobenius.append(math.sqrt(max(0.0, fro_sq)) if math.isfinite(fro_sq)
                         else math.inf)
        # ||A^T B||^2 is the top eigenvalue of gram_b gram_a, which for
        # gram_b = S S^T shares its eigenvalues with the symmetric S^T gram_a S
        lam, vec = np.linalg.eigh(gram_b)
        s = vec * np.sqrt(np.maximum(lam, 0.0))
        inner = s.T @ gram_a @ s
        top = np.linalg.eigvalsh(inner)[-1] if np.isfinite(inner).all() else math.inf
        spectral.append(float(np.sqrt(max(0.0, top))))
    return spectral, frobenius


# --- checkpoint container -------------------------------------------------
#
# Deterministic binary format (identical bytes for identical params):
#   line 1: b"OPNET1"
#   line 2: JSON header (sorted keys): layer_dims, and the provenance of the
#           run that wrote it: init_seed, data_seed, n, d, mu, phi, loss and
#           data_sha256 (see `cli._instance`)
#   then little-endian float64 C-order raw bytes of W_1..W_L and v.

_MAGIC = b"OPNET1"


def save_params(params: NetworkParams, path, provenance: dict | None = None) -> None:
    """Write `params` as a checkpoint in the format above, its header the
    `provenance` dict with the layer_dims of `params`.  Each array's own
    buffer is written (a little-endian C-order copy only of an array that is
    not already one), so no payload-sized bytes object is made."""
    params.validate()
    header = dict(provenance or {}, layer_dims=[int(m) for m in params.layer_dims])
    with open(path, "wb") as fh:
        fh.write(_MAGIC + b"\n")
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for a in (*params.weights, params.output_vector):
            fh.write(np.ascontiguousarray(a, dtype="<f8"))


class CorruptCheckpointError(ValueError):
    """A checkpoint that cannot be opened or read (such as a directory),
    that does not start with the checkpoint magic, whose header cannot be
    parsed, whose payload is not exactly the size its header's layer_dims
    call for, or whose values do not form a valid network."""


def _read_header(fh, path) -> tuple:
    """(header, layer_dims, sizes) from an open checkpoint positioned at its
    start, after checking that the rest of the file is exactly the payload
    of those dims; `sizes` counts the float64 values of W_1..W_L and v."""
    if fh.readline().strip() != _MAGIC:
        raise CorruptCheckpointError(f"{path}: not a network checkpoint")
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
    return header, dims, sizes


def checkpoint_header(path) -> dict:
    """The header dict of a checkpoint, read without its weights.  Raises
    as `load_params` does on a bad header or a payload of the wrong size."""
    return _read_checkpoint(path, weights=False)[0]


def _read_checkpoint(path, weights: bool) -> tuple:
    """(header, layer_dims, arrays), with `arrays` the flat W_1..W_L and v read
    straight from the file when `weights` (else empty), and an OSError
    raised as a CorruptCheckpointError that names the path."""
    try:
        with open(path, "rb") as fh:
            header, dims, sizes = _read_header(fh, path)
            arrays = [np.empty(size, dtype="<f8") for size in sizes] if weights else []
            for a in arrays:
                fh.readinto(a)
            return header, dims, arrays
    except OSError as exc:
        raise CorruptCheckpointError(f"{path}: cannot be read ({exc})") from exc


def load_params(path) -> NetworkParams:
    """The network of a checkpoint.  After the header and size checks each
    weight is read straight into its own array, so no payload-sized bytes
    copy is made; the format is unchanged."""
    _, dims, arrays = _read_checkpoint(path, weights=True)
    weights = [a.reshape(dims[l], dims[l + 1]) for l, a in enumerate(arrays[:-1])]
    params = NetworkParams(layer_dims=dims, weights=weights, output_vector=arrays[-1])
    try:
        params.validate()
    except ValueError as exc:
        raise CorruptCheckpointError(f"{path}: {exc}") from exc
    return params
