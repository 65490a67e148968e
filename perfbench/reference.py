"""Reference computations the checks compare the program's outputs against.

Everything here is written from the documented definitions, not by calling
the program: the PCG64 + Box-Muller normal stream, the separated slice-sphere
data, the Gaussian initialisation, the checkpoint byte format, the forward
pass and the logistic loss, and the closed form of the ReLU kernel.
"""

from __future__ import annotations

import json
import math

import numpy as np
from numpy.random import PCG64

# The CLI derives the data and init seeds from the config seed by these offsets.
DATA_SEED_OFFSET = 0
INIT_SEED_OFFSET = 1

_INV_2_53 = 2.0 ** -53
_MAGIC = b"OPNET1"


class NormalStream:
    """Standard normals by Box-Muller on consecutive PCG64 raw pairs."""

    def __init__(self, seed: int):
        self._bits = PCG64(seed)

    def normals(self, count: int) -> np.ndarray:
        pairs = (count + 1) // 2
        raw = np.asarray(self._bits.random_raw(2 * pairs), dtype=np.uint64)
        u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * _INV_2_53
        radius = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(2.0 * np.pi * u2)
        out[1::2] = radius * np.sin(2.0 * np.pi * u2)
        return out[:count]


def layer_dims(config: dict) -> list:
    dims = [config["d"]] + [config["m"]] * config["L"]
    dims[-1] += dims[-1] % 2  # the output layer needs an even width
    return dims


def dataset(config: dict, seed: int) -> tuple:
    """(inputs, labels): unit vectors with last coordinate mu, labels +1, -1, ...,
    each point rejected while it is closer than phi to an opposite-class point."""
    n, d, mu, phi = config["n"], config["d"], config["mu"], config["phi"]
    stream = NormalStream(seed + DATA_SEED_OFFSET)
    radius = math.sqrt(1.0 - mu * mu)
    labels = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
    points = np.empty((n, d))
    for i in range(n):
        while True:
            block = stream.normals(d - 1)
            norm = np.linalg.norm(block)
            if norm == 0.0:
                continue
            x = np.append(block * (radius / norm), mu)
            opposite = points[:i][labels[:i] != labels[i]]
            if opposite.shape[0] == 0 or \
                    np.min(np.linalg.norm(opposite - x, axis=1)) >= phi:
                points[i] = x
                break
    return points, labels


def init_weights(dims, seed: int) -> list:
    """W_l with i.i.d. N(0, 2 / m_l) entries, drawn layer by layer in row-major order."""
    stream = NormalStream(seed + INIT_SEED_OFFSET)
    return [stream.normals(rows * cols).reshape(rows, cols) * math.sqrt(2.0 / cols)
            for rows, cols in zip(dims[:-1], dims[1:])]


def read_checkpoint(path) -> tuple:
    """(layer_dims, weights, output_vector); raises ValueError on a malformed file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, header, body = blob.split(b"\n", 2)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    dims = json.loads(header)["layer_dims"]
    sizes = [a * b for a, b in zip(dims[:-1], dims[1:])] + [dims[-1]]
    if len(body) != 8 * sum(sizes):
        raise ValueError(f"{path}: {len(body)} payload bytes, expected {8 * sum(sizes)}")
    flat = np.frombuffer(body, dtype="<f8")
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    weights = [p.reshape(a, b) for p, a, b in zip(parts, dims[:-1], dims[1:])]
    return dims, weights, parts[-1]


def outputs(weights, output_vector, inputs) -> np.ndarray:
    h = inputs
    for w in weights:
        h = np.maximum(h @ w, 0.0)
    return h @ output_vector


def logistic_loss(margins) -> float:
    return float(np.mean(np.logaddexp(0.0, -margins)))


def relu_kernel(rho: float) -> float:
    """E[relu(Z1) relu(Z2)] for standard normals with correlation rho."""
    return (math.sqrt(max(0.0, 1.0 - rho * rho))
            + rho * (math.pi - math.acos(rho))) / (2.0 * math.pi)
