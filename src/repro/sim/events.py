"""The DES event queue: a heap for what is due soon, buckets for later.

An event handle *is* its heap entry: the plain list ``[time, priority,
seq, fn, args]``.  ``heapq`` compares entries element by element at C
speed, and ``seq`` is unique, so a comparison never reaches ``fn``.
Two events at the same time and priority therefore fire in the order
they were scheduled, whatever the heap's internals.  Cancelling an
event (``Simulator.cancel``) clears its ``fn`` slot; the dead entry
stays where it is and is dropped when it surfaces.

The queue has two tiers.  An event due within :data:`BUCKET_WIDTH_S` of
the scheduler's clock goes on the heap.  A later one -- in a closed
loop, nearly always a client's think timer -- is appended, unsorted, to
the bucket of key ``time // BUCKET_WIDTH_S``.  The earliest bucket moves
into the heap once the heap's earliest entry reaches the bucket's start
edge (``key * BUCKET_WIDTH_S``), or the heap runs empty.  Every entry in
a bucket is due at or after that bucket's edge, so while the heap's
earliest entry lies before the earliest edge it precedes every bucketed
entry too; the pop order is exactly a single heap's, ascending
``(time, priority, seq)``.  What the split buys: request events sift
through a heap sized by the next half second's work instead of one
holding every thinking client.

Nothing on the schedule or fire path counts live events.  ``len()``
derives the count from the stored entries minus the dead ones, and the
dead count moves only when an event is cancelled or a dead entry leaves.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
import itertools
import math
from typing import Any, Callable, Optional

from repro.errors import SchedulingError

#: Default priority; lower values fire first at equal timestamps.
DEFAULT_PRIORITY = 10

#: Width of a far-tier bucket, in simulated seconds.  A power of two, so
#: ``time // BUCKET_WIDTH_S`` and ``key * BUCKET_WIDTH_S`` are exact and
#: every bucketed entry is due at or after its bucket's edge.  Measured
#: delay mix of the 5,000-client browsing run (240 s, 1.13M schedules):
#: 82.6% are request hops of at most 0.04 s, 2.0% lie in (0.04, 0.5] s
#: (the 0.1 s scheduler epochs among them), and 15.4% exceed 0.5 s
#: (think timers, mean 7 s, and the 2 s samplers).  Half a second keeps
#: the hops and epochs on the heap, sends the think timers to buckets,
#: and shrinks the heap a schedule sees from 5,372 entries on average to
#: 288.  In the closed-loop micro-bench, widths of 0.125-0.5 s tied and
#: 1-2 s were slower (PERFORMANCE.md, "Event core").
BUCKET_WIDTH_S = 0.5

#: An event handle: the queue entry ``[time, priority, seq, fn, args]``.
#: ``fn`` is None once the event is cancelled.
Event = list


class EventQueue:
    """Two-tier priority queue of event entries (see the module docstring).

    Cancelled entries are dropped lazily: when they surface at the top
    of the heap, or when their bucket moves into the heap.  The queue
    counts them, and :meth:`compact` rebuilds both tiers without them
    once they exceed both :data:`COMPACT_MIN_DEAD` and the number of
    live events.
    """

    #: Never bother compacting below this many dead entries.
    COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        # The list objects below keep their identity for the queue's
        # life (compact and clear work in place), so the engine's run
        # loop may bind the heap once.
        self._heap: list = []
        #: Far tier: bucket key -> unsorted entries due in that bucket.
        self._buckets: dict = {}
        #: Min-heap of the keys in ``_buckets``.
        self._keys: list = []
        #: Start edge of the earliest bucket; inf when there is none.
        self._next_edge = math.inf
        self._counter = itertools.count()
        self._dead = 0
        self._compactions = 0

    def __len__(self) -> int:
        """Live events, in both tiers."""
        stored = len(self._heap) + sum(map(len, self._buckets.values()))
        return stored - self._dead

    def __bool__(self) -> bool:
        return self.peek_time() is not None

    @property
    def dead_entries(self) -> int:
        """Cancelled entries still stored in either tier."""
        return self._dead

    @property
    def compactions(self) -> int:
        """Number of compactions performed (diagnostics)."""
        return self._compactions

    def push(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple = (),
        priority: int = DEFAULT_PRIORITY,
        now: float = 0.0,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time``; return the entry.

        ``now`` is the caller's clock.  It picks the tier only -- an
        event due more than :data:`BUCKET_WIDTH_S` after it waits in a
        bucket -- and never changes the pop order.
        """
        entry = [time, priority, next(self._counter), fn, args]
        if time - now > BUCKET_WIDTH_S:
            self._defer(entry)
        else:
            heappush(self._heap, entry)
        return entry

    def _defer(self, entry: Event) -> None:
        """Append ``entry`` to its far-tier bucket."""
        time = entry[0]
        key = time // BUCKET_WIDTH_S
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.append(entry)
            return
        if time == math.inf:
            raise SchedulingError("cannot schedule an event at infinite time")
        self._buckets[key] = [entry]
        heappush(self._keys, key)
        edge = key * BUCKET_WIDTH_S
        if edge < self._next_edge:
            self._next_edge = edge

    def _migrate(self) -> None:
        """Move the earliest bucket onto the heap, dropping dead entries."""
        keys = self._keys
        bucket = self._buckets.pop(heappop(keys))
        heap = self._heap
        dead = 0
        for entry in bucket:
            if entry[3] is None:
                dead += 1
            else:
                heappush(heap, entry)
        self._dead -= dead
        self._next_edge = keys[0] * BUCKET_WIDTH_S if keys else math.inf

    def _head(self) -> Optional[Event]:
        """The earliest live entry, left in place at the top of the heap.

        Moves buckets in and discards dead heads as needed; returns None
        when the queue holds no live event.
        """
        heap = self._heap
        while True:
            if heap:
                entry = heap[0]
                if entry[0] >= self._next_edge:
                    self._migrate()
                elif entry[3] is None:
                    heappop(heap)
                    self._dead -= 1
                else:
                    return entry
            elif self._keys:
                self._migrate()
            else:
                return None

    def pop(self) -> Event:
        """Remove and return the earliest live entry.

        Raises:
            SchedulingError: if the queue holds no live events.
        """
        if self._head() is None:
            raise SchedulingError("pop from an empty event queue")
        return heappop(self._heap)

    def pop_ready(self, max_time: float) -> Optional[Event]:
        """Pop the earliest live entry with ``time <= max_time``.

        Returns None, consuming nothing live, when the queue is empty or
        the earliest live event lies beyond ``max_time``.
        """
        entry = self._head()
        if entry is None or entry[0] > max_time:
            return None
        return heappop(self._heap)

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or None if the queue is empty."""
        entry = self._head()
        return None if entry is None else entry[0]

    def compact(self) -> None:
        """Rebuild both tiers without dead entries.

        ``heapify`` over the surviving entries preserves the queue's total
        order exactly: the sort key is unchanged and ``seq`` keeps ties
        stable.  Buckets left empty are removed with their keys.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[3] is not None]
        heapify(heap)
        buckets = self._buckets
        for key, bucket in list(buckets.items()):
            kept = [entry for entry in bucket if entry[3] is not None]
            if kept:
                buckets[key] = kept
            else:
                del buckets[key]
        keys = self._keys
        keys[:] = buckets
        heapify(keys)
        self._next_edge = keys[0] * BUCKET_WIDTH_S if keys else math.inf
        self._dead = 0
        self._compactions += 1

    def clear(self) -> None:
        """Discard all events."""
        self._heap.clear()
        self._buckets.clear()
        self._keys.clear()
        self._next_edge = math.inf
        self._dead = 0
