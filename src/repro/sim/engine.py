"""The simulation engine: a clock plus the event loop.

The engine is deliberately minimal.  Components schedule plain callbacks;
there is no coroutine machinery to reason about.  Periodic activities are
provided by :class:`repro.sim.process.PeriodicProcess` on top of this.

Typical use::

    sim = Simulator()
    sim.schedule(0.5, handler, arg1, arg2)
    sim.run_until(120.0)
"""

from __future__ import annotations

from heapq import heappop, heappush
import math
from typing import Any, Callable, Optional

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import (
    BUCKET_WIDTH_S,
    DEFAULT_PRIORITY,
    Event,
    EventQueue,
)


class Simulator:
    """Discrete-event simulator with an absolute clock in seconds."""

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulated time in seconds (read-only by convention;
        #: a plain attribute because it is the hottest read in the system).
        self.now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self._events_fired = 0
        #: Priority of the event being fired.  Before the first event
        #: it is ``-inf`` (nothing due at ``now`` has fired); once
        #: :meth:`run_until` has fired every event due by its end time
        #: it is ``inf``.  A process woken at ``now`` reads it to tell
        #: whether its own tick due at ``now`` would already have fired
        #: (see :meth:`PeriodicProcess.wake
        #: <repro.sim.process.PeriodicProcess.wake>`).
        self.firing_priority = -math.inf

    # -- clock ---------------------------------------------------------

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    # -- scheduling ------------------------------------------------------

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` seconds from now.

        Returns the event handle, for :meth:`cancel`.  The body mirrors
        :meth:`EventQueue.push` rather than calling it: this is the
        hottest API of the engine (one call per scheduled event), and
        the delegation frame was measurable.
        """
        if delay < 0:
            raise SchedulingError(f"cannot schedule {delay:.6f}s in the past")
        queue = self._queue
        entry = [self.now + delay, priority, next(queue._counter), fn, args]
        if delay > BUCKET_WIDTH_S:
            queue._defer(entry)
        else:
            heappush(queue._heap, entry)
        return entry

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={time:.6f} before now={self.now:.6f}"
            )
        return self._queue.push(time, fn, args, priority, self.now)

    def cancel(self, event: Event) -> bool:
        """Cancel a scheduled event; True if it was still pending.

        The only way to cancel.  Idempotent: cancelling a cancelled
        event returns False and changes nothing.  The entry's ``fn``
        slot is cleared and the entry stays stored until it surfaces;
        once dead entries outnumber the live ones (and
        ``EventQueue.COMPACT_MIN_DEAD``), the queue is compacted.  A
        handle must not be cancelled after its event fired: holders
        drop it in the callback.
        """
        if event[3] is None:
            return False
        event[3] = None
        queue = self._queue
        queue._dead += 1
        dead = queue._dead
        if dead > queue.COMPACT_MIN_DEAD and dead > len(queue):
            queue.compact()
        return True

    # -- execution -------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event.  Returns False if none remained."""
        if not self._queue:
            return False
        entry = self._queue.pop()
        time = entry[0]
        if time < self.now:
            raise SimulationError(
                f"event queue yielded t={time} before now={self.now}"
            )
        self.now = time
        self._events_fired += 1
        self.firing_priority = entry[1]
        entry[3](*entry[4])
        return True

    def run_until(self, end_time: float) -> None:
        """Run events up to and including ``end_time``, then set now to it.

        Events scheduled exactly at ``end_time`` fire.  The clock is left
        at ``end_time`` even if the queue drains early, so collectors see
        a consistent horizon.
        """
        if end_time < self.now:
            raise SimulationError(
                f"run_until({end_time}) is before now={self.now}"
            )
        self._running = True
        self._stopped = False
        # Hot path: the pop is inlined (mirroring EventQueue._head), the
        # head entry is unpacked once, and the fired counter is kept in
        # a local synced on exit, so each event costs one heap pop, one
        # edge compare, the priority store plus the callback.
        # The edge is re-read per event because a callback may open an
        # earlier bucket; the heap list never changes identity.
        queue = self._queue
        heap = queue._heap
        fired = self._events_fired
        try:
            while not self._stopped:
                if heap:
                    time, priority, _, fn, args = heap[0]
                    if time >= queue._next_edge:
                        queue._migrate()
                        continue
                    if time > end_time:
                        break
                    heappop(heap)
                    if fn is None:
                        queue._dead -= 1
                        continue
                elif queue._keys:
                    queue._migrate()
                    continue
                else:
                    break
                if time < self.now:
                    raise SimulationError(
                        f"event queue yielded t={time} before now={self.now}"
                    )
                self.now = time
                fired += 1
                self.firing_priority = priority
                fn(*args)
        finally:
            self._events_fired = fired
            self._running = False
        if not self._stopped:
            self.now = end_time
            self.firing_priority = math.inf

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue drains or ``max_events`` were fired."""
        self._running = True
        self._stopped = False
        fired = 0
        try:
            while not self._stopped and self._queue:
                self.step()
                fired += 1
                if max_events is not None and fired >= max_events:
                    break
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop the current run loop after the in-flight event returns."""
        self._stopped = True

    def reset(self, start_time: float = 0.0) -> None:
        """Drop all pending events and rewind the clock."""
        self._queue.clear()
        self.now = float(start_time)
        self._events_fired = 0
        self._stopped = False
        self.firing_priority = -math.inf
