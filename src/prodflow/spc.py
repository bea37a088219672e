"""Statistical process-control metrics over an output sample.

Samples are plain 1-d sequences of per-period output values.  All spread
estimates use the sample standard deviation (n-1 denominator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

@dataclass(frozen=True)
class SpecLimits:
    usl: float
    lsl: float

    def __post_init__(self):
        if not (math.isfinite(self.usl) and math.isfinite(self.lsl)):
            raise ValueError("specification limits must be finite")
        if self.usl <= self.lsl:
            raise ValueError(f"usl must exceed lsl, got {self.usl!r} <= {self.lsl!r}")


@dataclass(frozen=True)
class ProcessMetrics:
    cpk: float
    pp: float
    sigma_d: float
    rate_d: float
    cv: float
    variability_class: str


# the five statistics, in the order of the metrics-file and report columns
METRIC_COLUMNS = tuple(f.name for f in fields(ProcessMetrics)[:-1])


def _mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation of a validated sample whose spread exceeds rounding; both finite."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) < 2:
        raise ValueError("sample must be a 1-d sequence with at least 2 values")
    if not np.isfinite(v).all():
        raise ValueError("sample values must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, s = float(v.mean()), float(v.std(ddof=1))
    if not (math.isfinite(mean) and math.isfinite(s)):
        raise ValueError("sample mean or standard deviation overflows; values are out of range")
    if s == 0.0:
        raise ValueError("sample standard deviation is zero")
    # a spread within rounding of the mean carries no scale-invariant Cpk
    if s <= 1e-12 * abs(mean):
        raise ValueError("sample standard deviation is at most 1e-12 of the mean; the spread is at rounding level")
    return mean, s


def _cpk(mean: float, s: float, limits: SpecLimits) -> float:
    return min((limits.usl - mean) / (3.0 * s), (mean - limits.lsl) / (3.0 * s))


def _pp(s: float, limits: SpecLimits) -> float:
    return (limits.usl - limits.lsl) / (6.0 * s)


def default_limits(mean: float) -> SpecLimits:
    """Limits at mean*(1 +/- 0.02), mirroring the settling band width."""
    if mean == 0.0:
        raise ValueError("default limits are degenerate: sample mean is 0")
    lo, hi = sorted((mean * 0.98, mean * 1.02))
    return SpecLimits(usl=hi, lsl=lo)


def process_capability_index(values, limits: SpecLimits) -> float:
    """Cpk: the tighter of the two one-sided margins in units of 3 sigma."""
    mean, s = _mean_std(values)
    return _cpk(mean, s, limits)


def process_performance(values, limits: SpecLimits | None = None) -> float:
    """Pp: the specification width in units of 6 sigma; default limits mean +/- 2%."""
    mean, s = _mean_std(values)
    return _pp(s, limits if limits is not None else default_limits(mean))


def coefficient_of_variation(sigma_d: float, rate_d: float) -> float:
    """Departure-time CV: output standard deviation over output mean."""
    if rate_d == 0.0:
        raise ValueError("departure rate is zero; CV undefined")
    return sigma_d / rate_d


def classify_variability(cv: float) -> str:
    """low below 0.75, moderate through 1.33 (boundaries included), high above."""
    if cv < 0:
        raise ValueError(f"cv must be nonnegative, got {cv!r}")
    if cv < 0.75:
        return "low"
    if cv <= 1.33:
        return "moderate"
    return "high"


def sample_metrics(values, limits: SpecLimits | None = None) -> ProcessMetrics:
    """All capability and variability statistics of one output sample.

    A negative mean is rejected: the CV of a negative output is undefined.
    So is a statistic that overflows.
    """
    mean, sigma = _mean_std(values)
    if mean < 0.0:
        raise ValueError(f"sample mean is negative ({mean!r}); the CV is undefined")
    lims = limits if limits is not None else default_limits(mean)
    cpk, pp, cv = _cpk(mean, sigma, lims), _pp(sigma, lims), coefficient_of_variation(sigma, mean)
    if not all(map(math.isfinite, (cpk, pp, cv))):
        raise ValueError("cpk, pp or cv overflows; the sample's spread is too small against the limits or its mean")
    return ProcessMetrics(
        cpk=cpk,
        pp=pp,
        sigma_d=sigma,
        rate_d=mean,
        cv=cv,
        variability_class=classify_variability(cv),
    )
