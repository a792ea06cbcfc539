"""Summary statistics for workload series.

The paper repeatedly reasons about "different shapes/distributions with
different means and variances"; this module packages those moments (plus
robust quantiles) per series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.errors import InsufficientDataError
from repro.monitoring.timeseries import TimeSeries

ArrayLike = Union[TimeSeries, np.ndarray, list]


def _as_array(series: ArrayLike) -> np.ndarray:
    if isinstance(series, TimeSeries):
        return series.values
    return np.asarray(series, dtype=float)


@dataclass(frozen=True)
class SummaryStats:
    """Moments and quantiles of one series."""

    count: int
    mean: float
    std: float
    variance: float
    cv: float
    minimum: float
    p25: float
    median: float
    p75: float
    p95: float
    maximum: float
    skewness: float
    kurtosis: float

    @property
    def iqr(self) -> float:
        return self.p75 - self.p25

    def describe(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.4g} std={self.std:.4g} "
            f"cv={self.cv:.3f} min={self.minimum:.4g} "
            f"median={self.median:.4g} max={self.maximum:.4g}"
        )


def summarize(series: ArrayLike) -> SummaryStats:
    """Compute :class:`SummaryStats` for a series.

    Raises:
        InsufficientDataError: fewer than 2 samples.
    """
    # scipy takes about a second to import and no simulation path
    # needs it, so only the analysis that uses it pays for it.
    from scipy import stats as scipy_stats

    values = _as_array(series)
    if values.size < 2:
        raise InsufficientDataError(
            f"summarize needs >= 2 samples, got {values.size}"
        )
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1))
    quantiles = np.percentile(values, [25, 50, 75, 95])
    return SummaryStats(
        count=int(values.size),
        mean=mean,
        std=std,
        variance=std * std,
        cv=(std / abs(mean)) if mean != 0 else float("inf"),
        minimum=float(np.min(values)),
        p25=float(quantiles[0]),
        median=float(quantiles[1]),
        p75=float(quantiles[2]),
        p95=float(quantiles[3]),
        maximum=float(np.max(values)),
        skewness=float(scipy_stats.skew(values, bias=False)),
        kurtosis=float(scipy_stats.kurtosis(values, bias=False)),
    )


def variance_ratio(series_a: ArrayLike, series_b: ArrayLike) -> float:
    """Var(a)/Var(b) — used for the paper's disk-variance comparison (Q4)."""
    a = _as_array(series_a)
    b = _as_array(series_b)
    if a.size < 2 or b.size < 2:
        raise InsufficientDataError("variance_ratio needs >= 2 samples each")
    var_b = float(np.var(b, ddof=1))
    if var_b == 0:
        raise InsufficientDataError("variance_ratio: denominator variance is 0")
    return float(np.var(a, ddof=1)) / var_b


def coefficient_of_variation_ratio(
    series_a: ArrayLike, series_b: ArrayLike
) -> float:
    """CV(a)/CV(b) — scale-free burstiness comparison."""
    stats_a = summarize(series_a)
    stats_b = summarize(series_b)
    if stats_b.cv == 0:
        raise InsufficientDataError("CV ratio: denominator CV is 0")
    return stats_a.cv / stats_b.cv
