"""Multi-worker FCFS queueing station.

Models an Apache worker pool or a MySQL thread pool: ``workers``
concurrent servers, FIFO queue in front.  The station does not know what
"service" means — the submitter passes a callable that, invoked at
service start, performs the accounting and returns the service duration.
That lets service speed reflect the scheduler allocation *at start time*
(the approximation documented in :mod:`repro.virt.scheduler`).

The queue length is observable (``backlog``); the RUBiS memory models
watch it to trigger the paper's backlog-induced RAM jumps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator

ServiceFn = Callable[[Any], float]
DoneFn = Callable[[Any], None]


@dataclass(slots=True)
class StationStats:
    """Aggregate behaviour counters for one station."""

    arrivals: int = 0
    completions: int = 0
    total_wait_s: float = 0.0
    total_service_s: float = 0.0
    peak_backlog: int = 0
    backlog_sum: float = 0.0
    _observations: int = field(default=0, repr=False)

    def observe_backlog(self, backlog: int) -> None:
        if backlog > self.peak_backlog:
            self.peak_backlog = backlog
        self.backlog_sum += backlog
        self._observations += 1

    @property
    def mean_wait_s(self) -> float:
        if self.completions == 0:
            return 0.0
        return self.total_wait_s / self.completions

    @property
    def mean_service_s(self) -> float:
        if self.completions == 0:
            return 0.0
        return self.total_service_s / self.completions

    @property
    def mean_backlog(self) -> float:
        if self._observations == 0:
            return 0.0
        return self.backlog_sum / self._observations


class QueueingStation:
    """FCFS station with ``workers`` parallel servers."""

    __slots__ = ("sim", "name", "workers", "on_start", "on_finish",
                 "_queue", "_busy", "stats", "_window_peak",
                 "_in_flight", "_next_token")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        workers: int,
        on_start: Optional[Callable[[], None]] = None,
        on_finish: Optional[Callable[[], None]] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("a station needs at least one worker")
        self.sim = sim
        self.name = name
        self.workers = int(workers)
        self.on_start = on_start
        self.on_finish = on_finish
        self._queue: Deque[Tuple[Any, ServiceFn, DoneFn, float]] = deque()
        self._busy = 0
        self.stats = StationStats()
        self._window_peak = 0
        # In-service jobs by token: [job, done_fn, event]; the event
        # handle's time slot is the finish time.  Tracked so a capacity
        # change (the stop-and-copy pause of a live migration) can
        # re-scale remaining service mid-flight.
        self._in_flight: dict = {}
        self._next_token = 0

    @property
    def backlog(self) -> int:
        """Jobs waiting in queue (not counting those in service)."""
        return len(self._queue)

    @property
    def in_service(self) -> int:
        return self._busy

    @property
    def occupancy(self) -> int:
        """Waiting plus in-service jobs."""
        return self.backlog + self._busy

    def submit(self, job: Any, service_fn: ServiceFn, done_fn: DoneFn) -> None:
        """Enqueue ``job``; ``service_fn(job)`` runs at service start and
        returns the service duration; ``done_fn(job)`` runs at completion."""
        stats = self.stats
        stats.arrivals += 1
        queue = self._queue
        busy = self._busy
        if not queue and busy < self.workers:
            # Fast path (the common case away from saturation): the job
            # starts immediately, so the enqueue/dequeue round trip and
            # the zero wait-time accounting are skipped.  The observed
            # backlog of 1 matches the queued path, which counts the job
            # between its append and the dispatch pop; it is recorded
            # inline (StationStats.observe_backlog(1)).
            if stats.peak_backlog < 1:
                stats.peak_backlog = 1
            stats.backlog_sum += 1
            stats._observations += 1
            occupancy = busy + 1
            if occupancy > self._window_peak:
                self._window_peak = occupancy
            self._busy = occupancy
            if self.on_start is not None:
                self.on_start()
            duration = service_fn(job)
            if duration < 0:
                raise ConfigurationError(
                    f"negative service duration on station {self.name!r}"
                )
            stats.total_service_s += duration
            sim = self.sim
            token = self._next_token = self._next_token + 1
            self._in_flight[token] = [
                job, done_fn, sim.schedule(duration, self._complete, token),
            ]
            return
        queue.append((job, service_fn, done_fn, self.sim.now))
        backlog = len(queue)
        stats.observe_backlog(backlog)
        occupancy = backlog + busy
        if occupancy > self._window_peak:
            self._window_peak = occupancy
        self._dispatch()

    def take_window_peak(self) -> int:
        """Peak occupancy since the last call (then reset).

        Burst backlogs drain in milliseconds — far faster than the
        1-second memory-model tick — so level-triggered sampling would
        miss them; this edge-triggered window peak is what the memory
        models watch.
        """
        peak = self._window_peak
        self._window_peak = self.occupancy
        return peak

    def _dispatch(self) -> None:
        queue = self._queue
        busy = self._busy
        workers = self.workers
        if busy >= workers or not queue:
            return
        sim = self.sim
        stats = self.stats
        on_start = self.on_start
        # _busy is only ever touched from this loop and _complete, which
        # runs from a scheduled event, never re-entrantly — so the local
        # counter is written back once.
        while busy < workers and queue:
            job, service_fn, done_fn, enqueued_at = queue.popleft()
            busy += 1
            self._busy = busy
            if on_start is not None:
                on_start()
            stats.total_wait_s += sim.now - enqueued_at
            duration = service_fn(job)
            if duration < 0:
                raise ConfigurationError(
                    f"negative service duration on station {self.name!r}"
                )
            stats.total_service_s += duration
            token = self._next_token = self._next_token + 1
            self._in_flight[token] = [
                job, done_fn, sim.schedule(duration, self._complete, token),
            ]

    def rescale_in_flight(self, factor: float) -> int:
        """Multiply the *remaining* service of every in-flight job.

        The capacity-change hook for the engine's sample-speed-once
        approximation: when a domain's effective speed changes suddenly
        (the stop-and-copy pause of a live migration entering or
        lifting), the remaining portion of each in-service job is
        stretched (``factor > 1``) or shrunk (``< 1``) by rescheduling
        its completion; queued jobs are untouched (they sample the new
        speed at dispatch).  ``total_service_s`` follows the adjusted
        durations.  Returns the number of jobs re-scaled.
        """
        if factor <= 0:
            raise ConfigurationError(
                f"rescale factor must be positive on {self.name!r}"
            )
        if factor == 1.0 or not self._in_flight:
            return 0
        sim = self.sim
        now = sim.now
        stats = self.stats
        rescaled = 0
        for token, entry in self._in_flight.items():
            remaining = entry[2][0] - now
            if remaining <= 0.0:
                # Completing at this very timestamp: let it land.
                continue
            sim.cancel(entry[2])
            stretched = remaining * factor
            entry[2] = sim.schedule(stretched, self._complete, token)
            stats.total_service_s += stretched - remaining
            rescaled += 1
        return rescaled

    def _complete(self, token: int) -> None:
        job, done_fn = self._in_flight.pop(token)[:2]
        self._busy -= 1
        self.stats.completions += 1
        if self.on_finish is not None:
            self.on_finish()
        # Dispatch queued work before running the completion continuation
        # so a long continuation chain cannot starve the queue.  At low
        # utilization the queue is almost always empty; skip the call.
        if self._queue:
            self._dispatch()
        done_fn(job)
