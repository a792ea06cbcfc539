"""Array-level primitives for the batched (epoch-2) engine.

The classic engine advances every request through per-event Python
frames; the batched engine advances whole *cohorts* of requests as
numpy column arrays.  This module holds the engine-agnostic pieces:

* :func:`lindley` — the vectorized busy-until recursion shared by every
  single-queue device (NIC direction, disk spindle),
* :class:`FcfsPool` — a c-server FCFS station over arrival/duration
  arrays with a vectorized no-queue fast path and an exact heap
  fallback, carrying worker state across drains,
* :func:`bulk_cancel` — cancel a batch of events through
  ``Simulator.cancel`` (the pattern the compaction property test
  exercises),
* :data:`DRAIN_PRIORITY` / :data:`DRAIN_INTERVAL_S` — where the drain
  tick sits in the event ordering (after scheduler epochs and
  housekeeping at a shared timestamp, before the 2 s samplers).

Everything application-specific (demand sampling, the RUBiS request
path) lives in :mod:`repro.rubis.batched`.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Drain cadence: small enough that counter updates smear well inside
#: the 2 s sampling period, large enough that per-drain numpy overhead
#: amortizes over ~hundreds of requests at paper-scale load.
DRAIN_INTERVAL_S = 0.25

#: Event priority of the drain tick.  Fires after the hypervisor epoch
#: (0.1 s, priority 20) and the housekeeping/flush processes at a
#: shared timestamp, but before trace sampling (priority 30), so the
#: samplers see the drained counters.
DRAIN_PRIORITY = 25


def lindley(
    times: np.ndarray, services: np.ndarray, busy_until: float
) -> Tuple[np.ndarray, float]:
    """Busy-until recursion over a sorted batch of submissions.

    Vectorizes ``c_i = max(t_i, c_{i-1}) + s_i`` (with ``c_{-1} =
    busy_until``) — the exact recurrence the device models apply per
    request — via a cumulative-sum / cumulative-max identity: with
    ``S_i = s_0 + ... + s_i`` and ``d_i = c_i - S_i``,

        d_i = max(t_i - S_{i-1}, d_{i-1}),   d_{-1} = busy_until,

    so ``d`` is one ``maximum.accumulate`` and ``c = d + S``.

    Returns ``(completions, new_busy_until)``.  ``times`` must be
    nondecreasing; completions then are too.
    """
    if times.size == 0:
        return times, busy_until
    cumulative = np.cumsum(services)
    offsets = times - cumulative + services  # t_i - S_{i-1}
    if busy_until > offsets[0]:
        offsets[0] = busy_until
    np.maximum.accumulate(offsets, out=offsets)
    completions = offsets + cumulative
    return completions, float(completions[-1])


class FcfsPool:
    """A ``workers``-server FCFS station over request arrays.

    The batched analogue of :class:`repro.apps.queueing.QueueingStation`:
    given sorted arrival times and per-request service durations it
    produces start and completion times under c-server FCFS.  Worker
    free times persist across calls, so a cohort that leaves workers
    busy delays the next cohort exactly as the event-driven station
    would.

    Away from saturation no request waits; that case is detected with a
    vectorized occupancy bound and served without the Python loop.  The
    exact heap simulation only runs for cohorts that actually queue.
    """

    __slots__ = ("workers", "_free")

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError("a pool needs at least one worker")
        self.workers = int(workers)
        self._free: List[float] = [0.0] * self.workers

    def busy_count(self, at_time: float) -> int:
        """Workers still serving past ``at_time``."""
        return sum(1 for f in self._free if f > at_time)

    def schedule(
        self, arrivals: np.ndarray, durations: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """FCFS-assign the cohort; returns ``(starts, completions, occupancy)``.

        ``arrivals`` must be sorted nondecreasing.  ``occupancy[i]`` is
        the number of requests in service or queued the instant request
        ``i`` arrives, counting itself — what the event-driven station's
        backlog observation sees.
        """
        n = arrivals.size
        if n == 0:
            empty = arrivals[:0]
            return empty, empty, empty
        workers = self.workers
        carried = np.sort(np.asarray(self._free))
        # Occupancy bound assuming nobody queues: carried-over busy
        # workers plus in-cohort predecessors still in service.
        no_queue_comp = arrivals + durations
        done_sorted = np.sort(no_queue_comp)
        in_cohort = (
            np.arange(n)
            - np.searchsorted(done_sorted, arrivals, side="right")
        )
        carried_busy = carried.size - np.searchsorted(
            carried, arrivals, side="right"
        )
        occupancy = in_cohort + carried_busy + 1
        if int(occupancy.max()) <= workers:
            # No request waits: starts == arrivals, and each worker's
            # final free time is one of the c largest completion/carry
            # values (a worker's free times only grow, so a dominated
            # completion can never be a worker's last).
            pool = np.concatenate([carried, no_queue_comp])
            pool.partition(pool.size - workers)
            self._free = pool[pool.size - workers:].tolist()
            return arrivals, no_queue_comp, occupancy
        # Exact path: the heap simulation the event engine performs.
        free = list(self._free)
        heapq.heapify(free)
        starts = np.empty(n)
        completions = np.empty(n)
        occ = np.empty(n, dtype=np.int64)
        finished: List[float] = []
        for i in range(n):
            arrival = arrivals[i]
            worker_free = heapq.heappop(free)
            start = arrival if arrival > worker_free else worker_free
            completion = start + durations[i]
            heapq.heappush(free, completion)
            starts[i] = start
            completions[i] = completion
            finished.append(completion)
        finished_sorted = np.sort(np.asarray(finished))
        in_cohort = (
            np.arange(n)
            - np.searchsorted(finished_sorted, arrivals, side="right")
        )
        occ = in_cohort + (
            carried.size - np.searchsorted(carried, arrivals, side="right")
        ) + 1
        self._free = free
        return starts, completions, occ

    def snapshot(self) -> List[float]:
        """The current worker-free multiset (for window bracketing)."""
        return list(self._free)

    def restore(self, state: List[float]) -> None:
        """Reset the worker-free multiset to a snapshot."""
        self._free = list(state)

    def merge_window(
        self, base: List[float], completions: List[np.ndarray]
    ) -> None:
        """Fold a drain window's waves into one carried worker state.

        Waves inside one drain window overlap in time, so each is
        scheduled against the window-*start* snapshot (``base``); the
        state carried to the next window is the ``workers`` largest
        values over the snapshot and every wave's completions — exactly
        the final worker-free multiset when no request waits, and a
        close bound when one wave queued internally.
        """
        arrays = [np.asarray(base, dtype=float)]
        arrays.extend(c for c in completions if c.size)
        pool = np.concatenate(arrays)
        if pool.size > self.workers:
            pool.partition(pool.size - self.workers)
            pool = pool[pool.size - self.workers:]
        self._free = pool.tolist()

    def rescale_remaining(self, now: float, factor: float) -> int:
        """Stretch the remaining busy time of every active worker.

        The batched counterpart of ``QueueingStation.rescale_in_flight``
        — the live-migration pause actuator.  Returns the number of
        workers re-scaled.
        """
        if factor <= 0:
            raise ConfigurationError("rescale factor must be positive")
        rescaled = 0
        for i, free in enumerate(self._free):
            remaining = free - now
            if remaining > 0.0:
                self._free[i] = now + remaining * factor
                rescaled += 1
        return rescaled


def bulk_cancel(sim, events: Iterable) -> int:
    """Cancel a batch of scheduled events; return how many were pending.

    The batched engine replaces thousands of per-session think timers
    with array state, but burst waves and driver teardown still cancel
    events in bulk.  Every cancellation goes through
    ``Simulator.cancel``, the engine's only cancellation path, so the
    queue's dead-entry count stays exact -- which is what triggers (and
    is verified by) compaction under cancellation-heavy load.  ``None``
    handles and events already cancelled are skipped.
    """
    return sum(
        1 for event in events if event is not None and sim.cancel(event)
    )
