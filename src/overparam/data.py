"""Labeled unit-sphere datasets with a fixed bias coordinate and class margin.

Every input lies on the slice {||x|| = 1, x_d = mu}; inputs with different
labels are at Euclidean distance >= phi.  Same-class points are not forced
apart.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .linalg import PortableRng

__all__ = [
    "DataGenerationError",
    "Dataset",
    "MarginReport",
    "cross_class_distance",
    "generate_separated",
    "save_dataset",
    "slice_diameter",
    "validate_dataset",
]

REJECTION_BUDGET = 100_000

NORM_TOLERANCE = 1e-12


class DataGenerationError(RuntimeError):
    """Rejection sampling exhausted its budget; parameters look infeasible."""


@dataclass
class Dataset:
    inputs: np.ndarray    # (n, d) float64 rows on the slice sphere
    labels: np.ndarray    # (n,) float64 in {-1, +1}
    mu: float
    phi: float

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]


def slice_diameter(mu: float) -> float:
    """Largest distance between two points of the slice sphere: 2 sqrt(1 - mu^2)."""
    return 2.0 * np.sqrt(1.0 - mu * mu)


def generate_separated(n: int, d: int, mu: float, phi: float, seed: int) -> Dataset:
    """Sample n labeled points uniform on the slice sphere, cross-class margin phi.

    Labels alternate +1, -1, ... (so classes are balanced up to one point).
    Each candidate is drawn by normalizing a (d-1)-dim Gaussian block onto
    the free sphere of radius sqrt(1 - mu^2); it is rejected if it comes
    within phi of any already-placed opposite-class point.  Deterministic
    under seed.
    """
    if d < 3:
        raise ValueError("need d >= 3")
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must be in (0, 1)")
    if n < 2:
        raise ValueError("need n >= 2")
    cap = slice_diameter(mu)
    if not 0.0 < phi <= cap:
        raise ValueError(
            f"phi must be in (0, {cap:.6g}] for mu={mu:g} (slice diameter cap)")

    rng = PortableRng(seed)
    radius = np.sqrt(1.0 - mu * mu)
    labels = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
    points = np.empty((n, d))
    rejections = 0
    for i in range(n):
        while True:
            block = rng.normals(d - 1)
            norm = np.linalg.norm(block)
            if norm == 0.0:
                continue
            x = np.empty(d)
            x[: d - 1] = block * (radius / norm)
            x[d - 1] = mu
            opposite = points[:i][labels[:i] != labels[i]]
            if opposite.shape[0] == 0 or \
                    np.min(np.linalg.norm(opposite - x, axis=1)) >= phi:
                points[i] = x
                break
            rejections += 1
            if rejections > REJECTION_BUDGET:
                raise DataGenerationError(
                    f"gave up after {REJECTION_BUDGET} rejections at point {i}; "
                    f"phi={phi:g} looks infeasible for n={n}, d={d}, mu={mu:g}")
    return Dataset(inputs=points, labels=labels, mu=float(mu), phi=float(phi))


@dataclass
class MarginReport:
    n: int
    class_counts: dict
    min_norm: float
    max_norm: float
    last_coord_min: float
    last_coord_max: float
    min_cross_class_distance: float   # inf when there is only one class
    min_same_class_distance: float    # informational only
    norms_ok: bool
    bias_ok: bool
    margin_ok: bool

    @property
    def passed(self) -> bool:
        return self.norms_ok and self.bias_ok and self.margin_ok

    def as_dict(self) -> dict:
        return dict(asdict(self), passed=self.passed)


def _pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)


def cross_class_distance(points: np.ndarray, labels: np.ndarray) -> float:
    """Smallest distance between a row labeled > 0 and a row labeled < 0;
    inf when either class is empty."""
    pos, neg = points[labels > 0], points[labels < 0]
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        return float("inf")
    return float(np.min(_pair_distances(pos, neg)))


def validate_dataset(ds: Dataset) -> MarginReport:
    """Measure the dataset invariants; violations are reported, never raised."""
    norms = np.linalg.norm(ds.inputs, axis=1)
    last = ds.inputs[:, -1]
    pos = ds.inputs[ds.labels > 0]
    neg = ds.inputs[ds.labels < 0]
    min_cross = cross_class_distance(ds.inputs, ds.labels)

    min_same = float("inf")
    for group in (pos, neg):
        if group.shape[0] >= 2:
            dist = _pair_distances(group, group)
            iu = np.triu_indices(group.shape[0], k=1)
            min_same = min(min_same, float(np.min(dist[iu])))

    counts = {int(k): int(v) for k, v in
              zip(*np.unique(ds.labels, return_counts=True))}
    return MarginReport(
        n=ds.n,
        class_counts=counts,
        min_norm=float(norms.min()),
        max_norm=float(norms.max()),
        last_coord_min=float(last.min()),
        last_coord_max=float(last.max()),
        min_cross_class_distance=min_cross,
        min_same_class_distance=min_same,
        norms_ok=bool(np.max(np.abs(norms - 1.0)) <= NORM_TOLERANCE),
        bias_ok=bool(np.all(last == ds.mu)),
        margin_ok=bool(min_cross >= ds.phi - NORM_TOLERANCE),
    )


# --- CSV container ----------------------------------------------------------
#
# One row per example: d input columns then the label.  Metadata rides in
# '#' comment lines so the file round-trips the generating parameters.

def save_dataset(ds: Dataset, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# separated sphere dataset v1\n")
        fh.write(f"# n={ds.n} d={ds.d} mu={ds.mu:.17g} phi={ds.phi:.17g}\n")
        fh.write("# columns: x_1..x_d, label\n")
        for row, label in zip(ds.inputs, ds.labels):
            cells = [f"{value:.17g}" for value in row] + [f"{label:.0f}"]
            fh.write(",".join(cells) + "\n")
