"""Open-loop arrival processes.

Each process is an iterator of absolute arrival times on the simulated
clock, drawing from one named engine RNG stream
(:class:`repro.sim.random.RandomStreams`), so identical seeds reproduce
identical arrival streams and distinct stream names are statistically
disjoint.  Every process is buffered: a refill draws a whole batch of
arrivals in a few vectorized numpy calls, and the consumer takes them
one at a time (:meth:`ArrivalProcess.next_arrival`, the classic
engine's event per arrival) or a whole drain tick at a time
(:meth:`ArrivalProcess.take_through`, the batched engine), so the cost
per arrival is amortized O(1) regardless of rate.

Three stationary families cover the workload-characterization
literature:

* :class:`PoissonProcess` — the memoryless baseline,
* :class:`MMPPProcess` — Markov-modulated Poisson, the standard model
  for regime-switching burstiness (and the generative twin of
  :class:`repro.analysis.models.RegimeModel`),
* :class:`BModelProcess` — the multiplicative-cascade b-model of Wang
  et al., producing self-similar, bursty-at-every-scale counts.

:class:`ModulatedProcess` layers any deterministic
:class:`~repro.traffic.shapes.RateShape` envelope on top of a base
process by Lewis-Shedler thinning: the base runs at the envelope's peak
rate and each arrival survives with probability ``factor(t) / max``.
For a Poisson base this is exact; for MMPP/b-model bases it rescales
the conditional intensity by the envelope, preserving burst structure.
Thinning is batched too: a refill takes the base's next batch and draws
one uniform per base arrival in a single call.  When the base and the
thinning share one stream, as :func:`repro.traffic.spec.build_process`
builds them, the draws come in the order a one-arrival-at-a-time walk
makes them (the base's batch, then one uniform per base arrival), so
the arrivals are the same whichever way they are taken.  The envelope
is evaluated with the shape's scalar ``factor`` per arrival: a
vectorized ``np.exp`` can differ from ``math.exp`` in the last bit,
which would flip a thinning decision now and then.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.traffic.shapes import RateShape

#: Arrivals sampled per vectorized refill of the stationary processes.
_BATCH = 256


class ArrivalProcess:
    """A nondecreasing stream of absolute arrival times, drawn in batches.

    A subclass implements :meth:`_refill`; this base hands the buffered
    batches out one arrival at a time or up to a horizon.
    """

    #: Nominal long-run arrivals/s of the process.
    rate_rps: float = 0.0

    def __init__(self, start_time_s: float = 0.0) -> None:
        if start_time_s < 0:
            raise ConfigurationError("start_time_s must be non-negative")
        self._clock = float(start_time_s)
        self._buffer = np.empty(0)
        self._cursor = 0

    def _refill(self) -> Optional[np.ndarray]:
        """Produce the next batch of absolute times (None = exhausted).

        A batch is sorted, and starts no earlier than the previous one
        ended.  An empty array is a valid batch (an interval with no
        arrivals); the consumers keep refilling until they get a time
        or None.
        """
        raise NotImplementedError

    def next_arrival(self) -> Optional[float]:
        """The next arrival time in seconds, or None when exhausted.

        Stationary processes never exhaust; trace replays do at the end
        of the trace.
        """
        while self._cursor >= len(self._buffer):
            batch = self._refill()
            if batch is None:
                return None
            self._buffer = batch
            self._cursor = 0
        value = float(self._buffer[self._cursor])
        self._cursor += 1
        return value

    def take_through(self, horizon_s: float) -> np.ndarray:
        """Every untaken arrival at or before ``horizon_s``, as one array.

        Takes exactly the arrivals a ``next_arrival`` loop stopping at
        the first time past ``horizon_s`` would return, and refills
        exactly when that loop would.
        """
        parts = []
        while True:
            rest = self._buffer[self._cursor:]
            taken = int(rest.searchsorted(horizon_s, "right"))
            parts.append(rest[:taken])
            self._cursor += taken
            if taken < rest.size:
                break
            batch = self._refill()
            if batch is None:
                break
            self._buffer = batch
            self._cursor = 0
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


class PoissonProcess(ArrivalProcess):
    """Stationary Poisson arrivals at ``rate_rps``."""

    def __init__(
        self,
        rate_rps: float,
        rng: np.random.Generator,
        start_time_s: float = 0.0,
    ) -> None:
        if rate_rps <= 0:
            raise ConfigurationError("rate_rps must be positive")
        super().__init__(start_time_s)
        self.rate_rps = float(rate_rps)
        self._rng = rng

    def _refill(self) -> np.ndarray:
        gaps = self._rng.exponential(1.0 / self.rate_rps, size=_BATCH)
        times = self._clock + np.cumsum(gaps)
        self._clock = float(times[-1])
        return times


class MMPPProcess(ArrivalProcess):
    """Markov-modulated Poisson process over K rate regimes.

    The process sojourns in regime ``i`` for an exponential time with
    mean ``mean_sojourn_s[i]``, emitting Poisson arrivals at
    ``rates_rps[i]``, then switches regime according to the embedded
    ``transition`` matrix (default: cycle through the regimes).  One
    refill covers one sojourn: the arrival count is Poisson and the
    times are uniform order statistics within the sojourn — exact for a
    conditionally homogeneous segment, and fully vectorized.
    """

    def __init__(
        self,
        rates_rps: Sequence[float],
        mean_sojourn_s: Sequence[float],
        rng: np.random.Generator,
        transition: Optional[Sequence[Sequence[float]]] = None,
        initial_regime: int = 0,
        start_time_s: float = 0.0,
    ) -> None:
        rates = np.asarray(rates_rps, dtype=float)
        sojourns = np.asarray(mean_sojourn_s, dtype=float)
        if rates.ndim != 1 or rates.size < 2:
            raise ConfigurationError("MMPP needs >= 2 regimes")
        if rates.size != sojourns.size:
            raise ConfigurationError("rates and sojourns must align")
        if (rates < 0).any() or rates.max() <= 0:
            raise ConfigurationError("regime rates must be >= 0, one > 0")
        if (sojourns <= 0).any():
            raise ConfigurationError("mean sojourns must be positive")
        if not 0 <= initial_regime < rates.size:
            raise ConfigurationError("initial_regime out of range")
        super().__init__(start_time_s)
        k = rates.size
        if transition is None:
            matrix = np.zeros((k, k))
            for i in range(k):
                matrix[i, (i + 1) % k] = 1.0
        else:
            matrix = np.asarray(transition, dtype=float)
            if matrix.shape != (k, k) or (matrix < 0).any():
                raise ConfigurationError("transition must be a KxK matrix")
            row_sums = matrix.sum(axis=1)
            if not np.allclose(row_sums, 1.0):
                raise ConfigurationError("transition rows must sum to 1")
        self.rates = rates
        self.mean_sojourn_s = sojourns
        self.transition = matrix
        self._regime = int(initial_regime)
        self._rng = rng
        self.rate_rps = self._stationary_rate()

    def _stationary_rate(self) -> float:
        """Time-averaged rate: embedded stationary dist x sojourns.

        Solves ``pi P = pi`` with the normalization constraint directly
        (least squares), which is exact for periodic embedded chains —
        e.g. the default deterministic cycle — where power iteration
        would not converge.
        """
        k = self.rates.size
        system = np.vstack(
            [self.transition.T - np.eye(k), np.ones((1, k))]
        )
        target = np.zeros(k + 1)
        target[-1] = 1.0
        pi = np.linalg.lstsq(system, target, rcond=None)[0]
        pi = np.clip(pi, 0.0, None)
        pi /= pi.sum()
        weights = pi * self.mean_sojourn_s
        return float(np.dot(weights, self.rates) / weights.sum())

    @property
    def regime(self) -> int:
        """The regime generating the *next* sojourn (diagnostics)."""
        return self._regime

    def _refill(self) -> np.ndarray:
        rng = self._rng
        regime = self._regime
        sojourn = float(rng.exponential(self.mean_sojourn_s[regime]))
        count = int(rng.poisson(self.rates[regime] * sojourn))
        times = self._clock + np.sort(rng.uniform(0.0, sojourn, size=count))
        self._clock += sojourn
        self._regime = int(
            rng.choice(self.rates.size, p=self.transition[regime])
        )
        return times


class BModelProcess(ArrivalProcess):
    """Self-similar arrivals from a multiplicative b-model cascade.

    Each refill covers one ``window_s``-long window whose total expected
    volume ``rate * window`` is recursively split ``levels`` times: at
    every split a fraction ``bias`` goes to one half (chosen by a fair
    coin) and ``1 - bias`` to the other.  Leaf volumes become Poisson
    counts placed uniformly within their leaf interval.  ``bias = 0.5``
    degenerates to plain Poisson; values toward 1.0 give the
    bursty-at-every-timescale traffic of web traces.
    """

    def __init__(
        self,
        rate_rps: float,
        rng: np.random.Generator,
        bias: float = 0.7,
        window_s: float = 64.0,
        levels: int = 6,
        start_time_s: float = 0.0,
    ) -> None:
        if rate_rps <= 0:
            raise ConfigurationError("rate_rps must be positive")
        if not 0.5 <= bias < 1.0:
            raise ConfigurationError("bias must be in [0.5, 1)")
        if window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        if not 1 <= levels <= 20:
            raise ConfigurationError("levels must be in [1, 20]")
        super().__init__(start_time_s)
        self.rate_rps = float(rate_rps)
        self.bias = float(bias)
        self.window_s = float(window_s)
        self.levels = int(levels)
        self._rng = rng

    def _refill(self) -> np.ndarray:
        rng = self._rng
        volumes = np.array([self.rate_rps * self.window_s])
        for _ in range(self.levels):
            left = np.where(
                rng.random(volumes.size) < 0.5, self.bias, 1.0 - self.bias
            )
            volumes = np.column_stack(
                (volumes * left, volumes * (1.0 - left))
            ).ravel()
        counts = rng.poisson(volumes)
        total = int(counts.sum())
        leaf_s = self.window_s / volumes.size
        starts = self._clock + leaf_s * np.repeat(
            np.arange(volumes.size), counts
        )
        times = np.sort(starts + rng.uniform(0.0, leaf_s, size=total))
        self._clock += self.window_s
        return times


class ModulatedProcess(ArrivalProcess):
    """A base process thinned against a deterministic rate envelope.

    ``base`` must be constructed at ``target_rate * shape.max_factor()``
    (the :mod:`repro.traffic.spec` builders do this); each base arrival
    at time ``t`` then survives with probability
    ``shape.factor(t) / shape.max_factor()``.  The thinning consumes
    the base batch by batch, so the base must not be read elsewhere.
    """

    def __init__(
        self,
        base: ArrivalProcess,
        shape: RateShape,
        rng: np.random.Generator,
    ) -> None:
        bound = shape.max_factor()
        if bound <= 0:
            raise ConfigurationError(
                "shape.max_factor() must be positive for thinning"
            )
        super().__init__()
        self.base = base
        self.shape = shape
        self._bound = float(bound)
        self._rng = rng
        #: Nominal unshaped rate (the base generates at peak rate).
        self.rate_rps = base.rate_rps / self._bound

    def _refill(self) -> Optional[np.ndarray]:
        times = self.base._refill()
        if times is None:
            return None
        n = len(times)
        factors = np.fromiter(
            map(self.shape.factor, times.tolist()), float, n
        )
        return times[self._rng.random(n) * self._bound < factors]


def drain_process(
    process: ArrivalProcess, horizon_s: float, limit: int = 10_000_000
) -> np.ndarray:
    """All arrival times in ``[0, horizon_s]`` as an array (test helper).

    ``limit`` guards against misconfigured rates flooding memory.
    """
    out = []
    while len(out) < limit:
        t = process.next_arrival()
        if t is None or t > horizon_s:
            break
        out.append(t)
    return np.asarray(out)
