"""Array-level primitives for the batched (epoch-2) engine.

The classic engine advances every request through per-event Python
frames; the batched engine advances whole *cohorts* of requests as
numpy column arrays.  This module holds the engine-agnostic pieces:

* :func:`lindley` — the vectorized busy-until recursion shared by every
  single-queue device (NIC direction, disk spindle); one pass also
  serves a transfer's sender and receiver queues when both see the
  same services,
* :class:`FcfsPool` — a c-server FCFS station over arrival/duration
  arrays with a vectorized no-queue fast path and an exact heap
  fallback, carrying worker state across drains as a sorted array that
  snapshots share instead of copy,
* :func:`bulk_cancel` — cancel a batch of events through
  ``Simulator.cancel`` (the pattern the compaction property test
  exercises),
* :data:`DRAIN_PRIORITY` / :data:`DRAIN_INTERVAL_S` — where the drain
  tick sits in the event ordering (after scheduler epochs and
  housekeeping at a shared timestamp, before the 2 s samplers).

:func:`lindley` and :class:`FcfsPool` run once per wave on arrays of a
few to a few hundred rows, where numpy's fixed cost per call rivals
the arithmetic, so they call array methods (``x.cumsum()``,
``x.searchsorted(...)``) rather than the ``np.*`` wrappers, which cost
about 1 µs more per call on numpy 2.4, and take maxima with
``np.maximum.reduce``, the reduction ``x.max()`` makes without its
Python-level frame in ``numpy._core._methods``.

Everything application-specific (demand sampling, the RUBiS request
path) lives in :mod:`repro.rubis.batched`.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Tuple

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
    times: np.ndarray,
    services: np.ndarray,
    busy_until: float,
    sender_busy: Optional[float] = None,
) -> tuple:
    """Busy-until recursion over a sorted batch of submissions.

    Vectorizes ``c_i = max(t_i, c_{i-1}) + s_i`` (with ``c_{-1} =
    busy_until``) — the exact recurrence the device models apply per
    request — via a cumulative-sum / cumulative-max identity: with
    ``S_i = s_0 + ... + s_i`` and ``d_i = c_i - S_i``,

        d_i = max(t_i - S_{i-1}, d_{i-1}),   d_{-1} = busy_until,

    so ``d`` is one ``maximum.accumulate`` and ``c = d + S``.

    Returns ``(completions, new_busy_until)``.  ``times`` must be
    nondecreasing; completions then are too.

    ``sender_busy`` serves a transfer that leaves one queue and enters
    another: the same submissions with the same services, seeded at a
    second busy time.  Nothing reads the sender's completions, only its
    frontier ``max(sender_busy, max_i(t_i - S_{i-1})) + S_{n-1}``, which
    shares ``S`` and the offsets with this pass and equals the last
    completion of a pass of its own exactly (``max`` does not round, and
    the final add is the same add).  The call then returns
    ``(completions, new_busy_until, new_sender_busy)``.
    """
    if times.size == 0:
        if sender_busy is None:
            return times, busy_until
        return times, busy_until, sender_busy
    cumulative = services.cumsum()
    offsets = times - cumulative + services  # t_i - S_{i-1}
    if sender_busy is not None:
        sender_busy = max(
            sender_busy, float(np.maximum.reduce(offsets))
        ) + float(cumulative[-1])
    if busy_until > offsets[0]:
        offsets[0] = busy_until
    np.maximum.accumulate(offsets, out=offsets)
    completions = offsets + cumulative
    if sender_busy is None:
        return completions, float(completions[-1])
    return completions, float(completions[-1]), sender_busy


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

    The worker free times are kept as a sorted array, and the pool never
    writes into that array: every update binds a new one.  So
    :meth:`snapshot` hands out the array itself and :meth:`restore` takes
    it back without a copy or a sort.
    """

    __slots__ = ("workers", "_free")

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError("a pool needs at least one worker")
        self.workers = int(workers)
        self._free = np.zeros(self.workers)

    def busy_count(self, at_time: float) -> int:
        """Workers still serving past ``at_time``."""
        free = self._free
        return int(free.size - free.searchsorted(at_time, side="right"))

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
        carried = self._free
        # Occupancy bound assuming nobody queues: carried-over busy
        # workers plus in-cohort predecessors still in service, plus
        # the request itself.
        no_queue_comp = arrivals + durations
        done_sorted = no_queue_comp.copy()
        done_sorted.sort()
        carried_done = carried.searchsorted(arrivals, side="right")
        ranks = np.arange(carried.size + 1, carried.size + 1 + n)
        occupancy = (
            ranks - done_sorted.searchsorted(arrivals, side="right")
            - carried_done
        )
        if int(np.maximum.reduce(occupancy)) <= workers:
            # No request waits: starts == arrivals, and each worker's
            # final free time is one of the c largest completion/carry
            # values (a worker's free times only grow, so a dominated
            # completion can never be a worker's last).
            pool = np.concatenate((carried, no_queue_comp))
            pool.sort()
            self._free = pool[-workers:]
            return arrivals, no_queue_comp, occupancy
        # Exact path: the heap simulation the event engine performs.  A
        # sorted list is already a heap.
        free = carried.tolist()
        starts = []
        completions = []
        for arrival, duration in zip(arrivals.tolist(), durations.tolist()):
            worker_free = heapq.heappop(free)
            start = arrival if arrival > worker_free else worker_free
            completion = start + duration
            heapq.heappush(free, completion)
            starts.append(start)
            completions.append(completion)
        finished_sorted = np.array(completions)
        finished_sorted.sort()
        occupancy = (
            ranks - finished_sorted.searchsorted(arrivals, side="right")
            - carried_done
        )
        free.sort()
        self._free = np.array(free)
        return np.array(starts), np.array(completions), occupancy

    def snapshot(self) -> np.ndarray:
        """The current worker free times (sorted, shared: do not write)."""
        return self._free

    def restore(self, state) -> None:
        """Reset the worker free times to a snapshot.

        An array is taken as the sorted snapshot it must be; any other
        sequence of free times is sorted first.
        """
        free = np.asarray(state, dtype=float)
        self._free = free if free is state else np.sort(free)

    def merge_window(self, base, completions: List[np.ndarray]) -> None:
        """Fold a drain window's waves into one carried worker state.

        Waves inside one drain window overlap in time, so each is
        scheduled against the window-*start* snapshot (``base``); the
        state carried to the next window is the ``workers`` largest
        values over the snapshot and every wave's completions — exactly
        the final worker-free multiset when no request waits, and a
        close bound when one wave queued internally.
        """
        pool = np.concatenate(
            [np.asarray(base, dtype=float)] + [c for c in completions if c.size]
        )
        pool.sort()
        self._free = pool[-self.workers:]

    def rescale_remaining(self, now: float, factor: float) -> int:
        """Stretch the remaining busy time of every active worker.

        The batched counterpart of ``QueueingStation.rescale_in_flight``
        — the live-migration pause actuator.  Returns the number of
        workers re-scaled.  A positive factor keeps the free times in
        order.
        """
        if factor <= 0:
            raise ConfigurationError("rescale factor must be positive")
        free = self._free
        remaining = free - now
        busy = remaining > 0.0
        self._free = np.where(busy, now + remaining * factor, free)
        return int(busy.sum())


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
