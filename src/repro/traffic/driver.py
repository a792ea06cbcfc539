"""The open-loop driver: transient sessions spawned per arrival.

The closed-loop :class:`~repro.rubis.client.ClientPopulation`
self-throttles: when the servers saturate, every client is stuck
waiting on a response, so the offered load can never exceed
``clients / think_time``.  The :class:`OpenLoopDriver` removes that
feedback: an :class:`~repro.traffic.arrivals.ArrivalProcess` dictates
when requests arrive regardless of how the system is doing — the
standard operating mode for characterization-grade load generation.

Per arrival the driver spawns a *transient session* that walks the
RUBiS transition matrix for ``requests_per_session`` steps — with the
mix's exponential think time between steps, exactly like a closed-loop
visitor, except the visit is finite and visits arrive open-loop — and
then vanishes.  A ``session_budget`` caps concurrent in-flight
sessions (the MaxClients / worker-pool limit of a real front end);
arrivals beyond the cap are *shed* and counted — the overload signal
every open-loop generator must report, since an un-shed unbounded
backlog would otherwise grow without limit exactly when the
measurement is most interesting.

An :class:`ArrivalMeter` bins every offered arrival into fixed
intervals, so each run yields the
:class:`~repro.traffic.trace.RateTrace` that closes the
characterize -> model -> regenerate loop.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.rubis.client import SendFn, SessionStats
from repro.rubis.transitions import TransitionMatrix
from repro.rubis.workload import SessionType, WorkloadMix
from repro.sim.engine import Simulator
from repro.traffic.arrivals import ArrivalProcess
from repro.traffic.trace import RateTrace
from repro.units import SAMPLE_PERIOD_S


class ArrivalMeter:
    """Fixed-interval arrival counter (the run's offered-load trace)."""

    def __init__(
        self, interval_s: float = SAMPLE_PERIOD_S, start_time_s: float = 0.0
    ) -> None:
        if interval_s <= 0:
            raise ConfigurationError("interval_s must be positive")
        self.interval_s = float(interval_s)
        self.start_time_s = float(start_time_s)
        self._counts = np.zeros(64, dtype=np.int64)
        self._n = 0
        self.total = 0

    def record(self, t: float) -> None:
        """Count one arrival at simulated time ``t``."""
        index = int((t - self.start_time_s) / self.interval_s)
        if index < 0:
            raise ConfigurationError(
                f"arrival at t={t} precedes meter start {self.start_time_s}"
            )
        if index >= len(self._counts):
            capacity = len(self._counts)
            while capacity <= index:
                capacity *= 2
            grown = np.zeros(capacity, dtype=np.int64)
            grown[: self._n] = self._counts[: self._n]
            self._counts = grown
        self._counts[index] += 1
        if index + 1 > self._n:
            self._n = index + 1
        self.total += 1

    def record_batch(self, times: np.ndarray) -> None:
        """Count a batch of arrivals in one pass (the batched engine's
        bulk path).  Equivalent to calling :meth:`record` per element."""
        times = np.asarray(times)
        if times.size == 0:
            return
        indices = (
            (times - self.start_time_s) / self.interval_s
        ).astype(np.int64)
        low = int(indices.min())
        if low < 0:
            raise ConfigurationError(
                f"arrival at t={times[int(indices.argmin())]} precedes "
                f"meter start {self.start_time_s}"
            )
        high = int(indices.max())
        if high >= len(self._counts):
            capacity = len(self._counts)
            while capacity <= high:
                capacity *= 2
            grown = np.zeros(capacity, dtype=np.int64)
            grown[: self._n] = self._counts[: self._n]
            self._counts = grown
        np.add.at(self._counts, indices, 1)
        if high + 1 > self._n:
            self._n = high + 1
        self.total += int(times.size)

    @property
    def counts(self) -> np.ndarray:
        """Per-interval arrival counts (read-only view)."""
        view = self._counts[: self._n]
        view.setflags(write=False)
        return view

    def to_rate_trace(self, horizon_s: Optional[float] = None) -> RateTrace:
        """The metered arrivals as a rate trace.

        ``horizon_s`` pads with explicit zero-rate intervals so an
        empty tail is visible rather than silently missing.  Recorded
        arrivals are never dropped: an arrival exactly at the horizon
        (``run_until`` executes boundary events) keeps its interval, so
        the trace total always equals :attr:`total`.
        """
        counts = self._counts[: self._n]
        if horizon_s is not None:
            n = int(np.ceil((horizon_s - self.start_time_s) / self.interval_s))
            if n < 1:
                raise ConfigurationError("horizon precedes the meter start")
            if n > counts.size:
                counts = np.concatenate(
                    [counts, np.zeros(n - counts.size, dtype=np.int64)]
                )
        if counts.size == 0:
            counts = np.zeros(1, dtype=np.int64)
        return RateTrace.from_counts(
            counts, self.interval_s, self.start_time_s
        )


class TransientSession:
    """One open-loop visitor: a short matrix walk, then gone."""

    __slots__ = ("driver", "session_id", "session_type", "state", "remaining")

    def __init__(
        self,
        driver: "OpenLoopDriver",
        session_id: int,
        session_type: SessionType,
        initial_state: str,
        remaining: int,
    ) -> None:
        self.driver = driver
        self.session_id = session_id
        self.session_type = session_type
        self.state = initial_state
        self.remaining = remaining

    def _send_next(self) -> None:
        driver = self.driver
        self.state = driver.matrices[self.session_type].next_state(
            driver.rng, self.state
        )
        self.remaining -= 1
        driver.stats.record_request(self.state)
        driver.send_fn(self, self.state, self._on_response)

    def _on_response(self, request) -> None:
        driver = self.driver
        request.completed_at = driver.sim.now
        driver.stats.record_response(request)
        if self.remaining > 0:
            think = float(
                driver.rng.exponential(driver.mix.think_time_s)
            )
            driver.sim.schedule(think, self._send_next)
        else:
            driver._session_done(self)


class AdmissionLedger:
    """The open-loop admission accounting both request engines share.

    Arrival counters, the session budget and the plain-data report of
    an open-loop driver.  The engine's driver admits, sheds and retries
    arrivals; this base only counts them.
    """

    def __init__(
        self,
        process: ArrivalProcess,
        session_budget: Optional[int] = None,
        requests_per_session: int = 1,
        meter_interval_s: float = SAMPLE_PERIOD_S,
        retry_max: int = 0,
        retry_backoff_s: float = 2.0,
    ) -> None:
        if session_budget is not None and session_budget < 1:
            raise ConfigurationError("session_budget must be >= 1")
        if requests_per_session < 1:
            raise ConfigurationError("requests_per_session must be >= 1")
        if retry_max < 0:
            raise ConfigurationError("retry_max must be >= 0")
        if retry_backoff_s <= 0:
            raise ConfigurationError("retry_backoff_s must be positive")
        self.process = process
        self.session_budget = session_budget
        self.requests_per_session = int(requests_per_session)
        #: Shed-arrival retry policy: a shed visit retries up to
        #: ``retry_max`` times with exponential backoff (``backoff *
        #: 2**attempt``) before abandoning.  ``retry_max=0`` (default)
        #: keeps the original semantics: every shed arrival abandons
        #: immediately.  The backoff is deterministic (no rng draw), so
        #: enabling retries never perturbs the offered arrival stream.
        self.retry_max = int(retry_max)
        self.retry_backoff_s = float(retry_backoff_s)
        self.stats = SessionStats()
        self.meter = ArrivalMeter(interval_s=meter_interval_s)
        self.arrivals_offered = 0
        self.arrivals_admitted = 0
        self.arrivals_shed = 0
        #: Retry attempts scheduled for shed arrivals.
        self.arrivals_retried = 0
        #: Arrivals that gave up: shed with no retries left.
        self.arrivals_abandoned = 0
        self.sessions_completed = 0
        self._in_flight = 0
        self._started = False

    def active_session_count(self) -> int:
        """Sessions currently in flight (the open-loop 'population')."""
        return self._in_flight

    def set_session_budget(self, session_budget: Optional[int]) -> None:
        """Resize the concurrent-session cap mid-run (control actuator).

        Raising the budget lets queued-up demand in, shrinking it only
        affects *future* admissions — in-flight sessions are never
        evicted, like lowering MaxClients on a live front end.
        """
        if session_budget is not None and session_budget < 1:
            raise ConfigurationError("session_budget must be >= 1")
        self.session_budget = session_budget

    @property
    def throughput_estimate(self) -> float:
        """Nominal offered arrivals/s of the configured process."""
        return self.process.rate_rps

    @property
    def shed_fraction(self) -> float:
        """Fraction of offered arrivals shed by the session budget."""
        if self.arrivals_offered == 0:
            return 0.0
        return self.arrivals_shed / self.arrivals_offered

    @property
    def abandonment_fraction(self) -> float:
        """Fraction of offered arrivals that gave up for good.

        Equals :attr:`shed_fraction` when retries are disabled; with
        retries it is the stricter user-visible failure rate (a shed
        visit that got in on retry is delayed, not lost).
        """
        if self.arrivals_offered == 0:
            return 0.0
        return self.arrivals_abandoned / self.arrivals_offered

    def summary(self) -> dict:
        """Plain-data overload/throughput report for one run.

        ``offered == admitted + shed`` holds without retries; with
        retries an arrival can appear in both ``shed`` (its first
        attempt) and ``admitted`` (a later retry), so ``abandoned``
        carries the loss accounting.
        """
        return {
            "offered": self.arrivals_offered,
            "admitted": self.arrivals_admitted,
            "shed": self.arrivals_shed,
            "shed_fraction": self.shed_fraction,
            "retried": self.arrivals_retried,
            "abandoned": self.arrivals_abandoned,
            "abandonment_fraction": self.abandonment_fraction,
            "sessions_completed": self.sessions_completed,
            "in_flight": self._in_flight,
            "session_budget": self.session_budget,
            "requests_per_session": self.requests_per_session,
            "nominal_rate_rps": self.process.rate_rps,
        }


class OpenLoopDriver(AdmissionLedger):
    """Spawns transient sessions from an arrival process, open-loop.

    Drop-in alternative to the closed-loop
    :class:`~repro.rubis.client.ClientPopulation` on the deployment
    side: it exposes the same ``stats`` object and the
    ``active_session_count()`` the memory models consume.
    """

    def __init__(
        self,
        sim: Simulator,
        mix: WorkloadMix,
        send_fn: SendFn,
        rng: np.random.Generator,
        matrices: Dict[SessionType, TransitionMatrix],
        process: ArrivalProcess,
        session_budget: Optional[int] = None,
        requests_per_session: int = 1,
        meter_interval_s: float = SAMPLE_PERIOD_S,
        retry_max: int = 0,
        retry_backoff_s: float = 2.0,
    ) -> None:
        super().__init__(
            process, session_budget, requests_per_session, meter_interval_s,
            retry_max, retry_backoff_s,
        )
        self.sim = sim
        self.mix = mix
        self.send_fn = send_fn
        self.rng = rng
        self.matrices = matrices
        self._next_session_id = 0

    def start(self) -> None:
        """Arm the arrival stream (single-shot: raises on reuse)."""
        if self._started:
            raise ConfigurationError("driver already started")
        self._started = True
        self._schedule_next()

    # -- arrival handling --------------------------------------------------

    def _schedule_next(self) -> None:
        t = self.process.next_arrival()
        if t is None:
            return
        if t < self.sim.now:
            # Arrival processes are nondecreasing; tolerate float dust.
            t = self.sim.now
        self.sim.schedule_at(t, self._on_arrival)

    def _on_arrival(self) -> None:
        now = self.sim.now
        self.meter.record(now)
        self.arrivals_offered += 1
        budget = self.session_budget
        if budget is not None and self._in_flight >= budget:
            self.arrivals_shed += 1
            self._handle_shed(attempt=0)
        else:
            self._admit()
        self._schedule_next()

    def _admit(self) -> None:
        self.arrivals_admitted += 1
        self._in_flight += 1
        session_id = self._next_session_id
        self._next_session_id += 1
        session_type = self.mix.session_type(self.rng)
        session = TransientSession(
            self,
            session_id,
            session_type,
            self.matrices[session_type].initial_state,
            self.requests_per_session,
        )
        session._send_next()

    def _handle_shed(self, attempt: int) -> None:
        """A visit found the front end full; retry with backoff or give up."""
        if attempt < self.retry_max:
            self.arrivals_retried += 1
            delay = self.retry_backoff_s * (2.0 ** attempt)
            self.sim.schedule(delay, self._retry, attempt + 1)
        else:
            self.arrivals_abandoned += 1

    def _retry(self, attempt: int) -> None:
        budget = self.session_budget
        if budget is not None and self._in_flight >= budget:
            self._handle_shed(attempt)
        else:
            self._admit()

    def _session_done(self, session: TransientSession) -> None:
        self._in_flight -= 1
        self.sessions_completed += 1
