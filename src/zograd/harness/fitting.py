"""Log-log rate fitting for error-vs-horizon curves."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from ..core import DomainError

# the fewest horizons a rate is fitted through
FIT_HORIZONS = 3


class RateFit(NamedTuple):
    """Ordinary least squares on (log n, log error); the decay exponent is
    the negated slope."""

    horizons: tuple[int, ...]
    errors: tuple[float, ...]
    exponent: float
    intercept: float
    r_squared: float


def ols_loglog(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Slope, intercept, and r^2 of log(y) regressed on log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    mx, my = lx.mean(), ly.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    if sxx == 0.0:
        raise DomainError("log-log fit needs at least two distinct x values")
    slope = float(np.sum((lx - mx) * (ly - my))) / sxx
    intercept = my - slope * mx
    resid = ly - (intercept + slope * lx)
    sst = float(np.sum((ly - my) ** 2))
    r2 = 1.0 if sst == 0.0 else 1.0 - float(np.sum(resid**2)) / sst
    return slope, intercept, r2


def fit_rate(points: Sequence[tuple[int, float]]) -> RateFit:
    """Fit error ~ c * n^(-exponent) through at least ``FIT_HORIZONS`` horizons."""
    if len(points) < FIT_HORIZONS:
        raise DomainError(f"need at least {FIT_HORIZONS} horizons to fit a rate")
    horizons = [int(n) for n, _ in points]
    errors = [float(e) for _, e in points]
    if any(e <= 0 or not math.isfinite(e) for e in errors):
        raise DomainError("errors must be positive and finite")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise DomainError("horizons must be strictly increasing")
    slope, intercept, r2 = ols_loglog(horizons, errors)
    return RateFit(
        horizons=tuple(horizons),
        errors=tuple(errors),
        exponent=-slope,
        intercept=intercept,
        r_squared=r2,
    )
