"""Classification losses with declared curvature constants and a grid auditor.

Every loss carries the constants (p, alpha0, alpha1, rho0, rho1, lam) used by
the training and verification code: the derivative is sandwiched as

    min(alpha0, alpha1 * loss**p)  <=  -deriv  <=  min(rho0, rho1 * loss**p)

and |second_deriv| <= lam.  ``check_loss_assumptions`` audits all of this
numerically on a grid and reports worst-case margins instead of raising.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "AssumptionCheck",
    "AssumptionReport",
    "BUILTIN_LOSSES",
    "LossSpec",
    "builtin_loss",
    "check_loss_assumptions",
    "default_grid",
]

# Pass/fail slack for audited inequalities.
MARGIN_SLACK = 1e-12

# Decay toward zero is audited relative to the grid midpoint: the value and
# |derivative| at the right end must be below this fraction of their
# mid-grid magnitude.
TAIL_DECAY_FRACTION = 0.1


@dataclass(frozen=True)
class LossSpec:
    """A scalar loss with first and second derivative and declared constants.

    The callables are numpy ufunc-style: they accept scalars or arrays.
    ``alpha0`` and ``rho0`` may be ``inf``.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    second_deriv: Callable[[np.ndarray], np.ndarray]
    p: float
    alpha0: float
    alpha1: float
    rho0: float
    rho1: float
    lam: float


def _sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _logistic_value(x):
    # a NaN margin gives a NaN loss, which trainers treat as divergence
    with np.errstate(invalid="ignore"):
        return np.logaddexp(0.0, -np.asarray(x, dtype=np.float64))


def _logistic_deriv(x):
    return -_sigmoid(-np.asarray(x, dtype=np.float64))


def _logistic_second(x):
    x = np.asarray(x, dtype=np.float64)
    return _sigmoid(x) * _sigmoid(-x)


def _exponential_value(x):
    # overflow saturates to inf, which trainers treat as divergence
    with np.errstate(over="ignore"):
        return np.exp(-np.asarray(x, dtype=np.float64))


def _exponential_deriv(x):
    with np.errstate(over="ignore"):
        return -np.exp(-np.asarray(x, dtype=np.float64))


BUILTIN_LOSSES = {
    # -deriv = 1/(1+e^x) while value = log(1+e^-x):
    #   x >= 0: value <= e^-x and -deriv >= e^-x/2, so alpha1 = 1/2 works;
    #   x <  0: -deriv >= 1/2 = alpha0.
    # Upper side: -deriv <= min(1, value) since log(1+t) >= t/(1+t).
    "logistic": LossSpec(
        name="logistic",
        value=_logistic_value,
        deriv=_logistic_deriv,
        second_deriv=_logistic_second,
        p=1.0, alpha0=0.5, alpha1=0.5, rho0=1.0, rho1=1.0, lam=0.25,
    ),
    # -deriv == value exactly, so the p-bounds hold with zero margin.  The
    # second derivative is unbounded as x -> -inf; the declared lam covers
    # arguments down to -20 (the default audit grid), and trainers log the
    # realized range of y*yhat so the effective smoothness is auditable.
    "exponential": LossSpec(
        name="exponential",
        value=_exponential_value,
        deriv=_exponential_deriv,
        second_deriv=_exponential_value,
        p=1.0, alpha0=np.inf, alpha1=1.0, rho0=np.inf, rho1=1.0,
        lam=float(np.exp(20.0)),
    ),
}
# Hinge is deliberately not a builtin: it has no bounded second derivative,
# so it cannot declare a finite lam honestly.


def builtin_loss(name: str) -> LossSpec:
    try:
        return BUILTIN_LOSSES[name]
    except KeyError:
        raise ValueError(
            f"unknown loss {name!r}; available: {sorted(BUILTIN_LOSSES)}") from None


def default_grid() -> np.ndarray:
    """2001 uniform audit points on [-20, 20]."""
    return np.linspace(-20.0, 20.0, 2001)


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    margin: float          # >= -MARGIN_SLACK means the inequality holds
    worst_x: float         # grid point achieving the margin

    @property
    def passed(self) -> bool:
        return self.margin >= -MARGIN_SLACK


@dataclass
class AssumptionReport:
    loss_name: str
    checks: list[AssumptionCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "loss": self.loss_name,
            "passed": self.passed,
            "checks": [dict(asdict(c), passed=c.passed) for c in self.checks],
        }


def _worst(name: str, margins: np.ndarray, grid: np.ndarray) -> AssumptionCheck:
    i = int(np.argmin(margins))
    return AssumptionCheck(name=name, margin=float(margins[i]), worst_x=float(grid[i]))


def check_loss_assumptions(loss: LossSpec, grid: np.ndarray | None = None) -> AssumptionReport:
    """Audit the declared loss properties on a grid.

    Each check reports the worst-case margin of its inequality over the
    grid; the report passes iff every margin is >= -1e-12.
    """
    grid = default_grid() if grid is None else np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("audit grid is empty")
    grid = np.sort(grid)

    val = np.asarray(loss.value(grid), dtype=np.float64)
    der = np.asarray(loss.deriv(grid), dtype=np.float64)
    sec = np.asarray(loss.second_deriv(grid), dtype=np.float64)
    with np.errstate(over="ignore"):
        powered = val ** loss.p
        lower = np.minimum(loss.alpha0, loss.alpha1 * powered)
        upper = np.minimum(loss.rho0, loss.rho1 * powered)

    mid = grid.size // 2
    report = AssumptionReport(loss_name=loss.name)
    report.checks.append(_worst("deriv_nonpositive", -der, grid))
    report.checks.append(AssumptionCheck(
        "value_decays",
        float(TAIL_DECAY_FRACTION * max(val[mid], 1e-300) - val[-1]),
        float(grid[-1])))
    report.checks.append(AssumptionCheck(
        "deriv_decays",
        float(TAIL_DECAY_FRACTION * max(-der[mid], 1e-300) - (-der[-1])),
        float(grid[-1])))
    report.checks.append(_worst("deriv_lower_bound", (-der) - lower, grid))
    report.checks.append(_worst("deriv_upper_bound", upper - (-der), grid))
    report.checks.append(_worst("smoothness", loss.lam - np.abs(sec), grid))

    ratio = 1.0 if np.isinf(loss.rho0) and np.isinf(loss.alpha0) \
        else loss.rho0 / loss.alpha0
    # "same order" cap for rho0/alpha0; generous but finite
    report.checks.append(AssumptionCheck(
        "deriv_cap_ratio_bounded", float(100.0 - ratio), float("nan")))
    return report
