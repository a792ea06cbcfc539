"""Distribution fitting with information-criterion model selection.

"The workload dynamics show some patterns that can be quantified by
formal models" (Section 4.1) — this module fits the classic candidate
families for resource-demand marginals (normal, log-normal, gamma,
Weibull, exponential) by maximum likelihood, scores each with AIC/BIC
and the Kolmogorov-Smirnov statistic, and picks a winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import AnalysisError, InsufficientDataError
from repro.monitoring.timeseries import TimeSeries

#: Candidate families: name -> the ``scipy.stats`` distribution's name.
#: scipy takes about a second to import and no simulation path needs it,
#: so it is imported only where a fit or test runs.
CANDIDATE_FAMILIES: Dict[str, str] = {
    "normal": "norm",
    "lognormal": "lognorm",
    "gamma": "gamma",
    "weibull": "weibull_min",
    "exponential": "expon",
}

#: Families that require strictly positive support.
_POSITIVE_ONLY = {"lognormal", "gamma", "weibull", "exponential"}

_MIN_SAMPLES = 8


def _distribution(name: str):
    """The ``scipy.stats`` distribution of a candidate family."""
    from scipy import stats as scipy_stats

    return getattr(scipy_stats, CANDIDATE_FAMILIES[name])


@dataclass(frozen=True)
class DistributionFit:
    """One fitted family with its goodness-of-fit scores."""

    family: str
    params: Tuple[float, ...]
    log_likelihood: float
    aic: float
    bic: float
    ks_statistic: float
    ks_pvalue: float

    def frozen(self):
        """The scipy frozen distribution for sampling/evaluation."""
        return _distribution(self.family)(*self.params)


def _prepare(series: Union[TimeSeries, np.ndarray, list]) -> np.ndarray:
    values = (
        series.values if isinstance(series, TimeSeries)
        else np.asarray(series, dtype=float)
    )
    if values.size < _MIN_SAMPLES:
        raise InsufficientDataError(
            f"distribution fitting needs >= {_MIN_SAMPLES} samples, "
            f"got {values.size}"
        )
    if not np.isfinite(values).all():
        raise AnalysisError("series contains non-finite values")
    return values


def fit_candidates(
    series: Union[TimeSeries, np.ndarray, list],
    families: Sequence[str] = None,
) -> List[DistributionFit]:
    """Fit every candidate family; returns fits sorted by AIC (best first).

    Families needing positive support are skipped for series with
    non-positive values.  Degenerate (zero-variance) series raise.
    """
    from scipy import stats as scipy_stats

    values = _prepare(series)
    if np.var(values) == 0:
        raise AnalysisError("cannot fit distributions to a constant series")
    names = list(families) if families is not None else list(CANDIDATE_FAMILIES)
    fits: List[DistributionFit] = []
    for name in names:
        if name not in CANDIDATE_FAMILIES:
            raise AnalysisError(f"unknown family {name!r}")
        if name in _POSITIVE_ONLY and (values <= 0).any():
            continue
        distribution = _distribution(name)
        try:
            if name in _POSITIVE_ONLY:
                params = distribution.fit(values, floc=0.0)
            else:
                params = distribution.fit(values)
            log_likelihood = float(
                np.sum(distribution.logpdf(values, *params))
            )
        except Exception:  # scipy fit can fail on pathological data
            continue
        if not np.isfinite(log_likelihood):
            continue
        k = len(params)
        n = values.size
        aic = 2 * k - 2 * log_likelihood
        bic = k * np.log(n) - 2 * log_likelihood
        ks_stat, ks_p = scipy_stats.kstest(values, name_to_cdf(name, params))
        fits.append(
            DistributionFit(
                family=name,
                params=tuple(float(p) for p in params),
                log_likelihood=log_likelihood,
                aic=float(aic),
                bic=float(bic),
                ks_statistic=float(ks_stat),
                ks_pvalue=float(ks_p),
            )
        )
    if not fits:
        raise AnalysisError("no candidate family could be fitted")
    return sorted(fits, key=lambda fit: fit.aic)


def name_to_cdf(name: str, params: Tuple[float, ...]):
    """CDF callable of a fitted family (helper for K-S tests)."""
    distribution = _distribution(name)

    def cdf(x):
        return distribution.cdf(x, *params)

    return cdf


def best_fit(
    series: Union[TimeSeries, np.ndarray, list],
    families: Sequence[str] = None,
) -> DistributionFit:
    """The AIC-best candidate family for ``series``."""
    return fit_candidates(series, families)[0]
