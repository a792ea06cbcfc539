"""Periodic processes layered on the event engine.

A :class:`PeriodicProcess` re-schedules itself every ``interval`` seconds
until stopped.  It is used for samplers (the 2-second sysstat/perf tick),
scheduler epochs, background OS activity, and disk flush daemons.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import ConfigurationError, SchedulingError
from repro.sim.engine import Simulator
from repro.sim.events import Event


class PeriodicProcess:
    """Invoke a callback every ``interval`` simulated seconds.

    The callback receives the simulator time of the tick.  Ticks are
    aligned to ``start + k * interval`` so long-running samplers do not
    drift (each tick is scheduled from the nominal previous tick time,
    not from whenever the callback finished).

    A callback whose ticks would do nothing until some outside event
    may put the process to sleep (:meth:`sleep`); the owner of that
    event calls :meth:`wake`, and the process resumes on the same grid
    of accumulated ticks, as if it had fired all along.  Only ticks
    that could see the outside event cost an event.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[float], Any],
        start: Optional[float] = None,
        priority: int = 20,
        name: str = "periodic",
    ) -> None:
        if interval <= 0:
            raise ConfigurationError("interval must be positive")
        self.sim = sim
        self.interval = float(interval)
        self.callback = callback
        self.priority = priority
        self.name = name
        self._next_tick = sim.now + interval if start is None else start
        self._event: Optional[Event] = None
        self._running = False
        self._asleep = False
        self.ticks = 0

    @property
    def running(self) -> bool:
        return self._running

    @property
    def asleep(self) -> bool:
        """Whether the process waits for :meth:`wake` (see :meth:`sleep`)."""
        return self._asleep

    def start(self) -> "PeriodicProcess":
        """Arm the process; returns self for chaining."""
        if self._running:
            return self
        self._running = True
        self._asleep = False
        self._arm()
        return self

    def stop(self) -> None:
        """Disarm the process; a pending tick is cancelled.

        A sleeping process stops too: a later :meth:`wake` does nothing.
        """
        self._running = False
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    def sleep(self) -> None:
        """Leave the process disarmed after the current tick.

        Called from the callback.  The process fires no event until
        :meth:`wake`; the caller guarantees that every tick it skips
        would have done nothing.
        """
        if self._event is not None:
            raise SchedulingError(
                f"{self.name}: sleep() outside the process's callback"
            )
        self._asleep = True

    def wake(self) -> None:
        """Re-arm a sleeping process at its next grid tick.

        Does nothing unless the process is asleep and running.  The grid
        continues from the tick after the last one fired by repeated
        ``tick += interval``, exactly the accumulation :meth:`_fire`
        performs, so a woken process fires at the same times, bit for
        bit, as one that never slept.  Ticks before ``now`` are skipped:
        they would have fired before the waking event, and done nothing.

        A tick equal to ``now`` is a tie with the waking event, decided
        as the event queue would have decided it: the tick would fire
        after a waking event of lower priority (it is armed) and has
        already fired before one of higher priority (it is skipped).
        At equal priority the order rests on the sequence number of an
        event that was never scheduled, so the tie is refused.

        Raises:
            SchedulingError: on a tie at the process's own priority.
        """
        if not self._asleep or not self._running:
            return
        sim = self.sim
        now = sim.now
        interval = self.interval
        tick = self._next_tick
        while tick < now:
            tick += interval
        if tick == now:
            waker = sim.firing_priority
            if waker == self.priority:
                raise SchedulingError(
                    f"{self.name}: woken at its own tick t={now!r} by an "
                    f"event of its own priority {waker}"
                )
            if waker > self.priority:
                tick += interval
        self._asleep = False
        self._next_tick = tick
        self._event = sim.schedule_at(tick, self._fire, priority=self.priority)

    def _arm(self) -> None:
        if self._next_tick < self.sim.now:
            # Skip ticks that fell into the past (e.g. started late).
            missed = int((self.sim.now - self._next_tick) / self.interval) + 1
            self._next_tick += missed * self.interval
        self._event = self.sim.schedule_at(
            self._next_tick, self._fire, priority=self.priority
        )

    def _fire(self) -> None:
        self._event = None
        tick_time = self._next_tick
        self._next_tick = tick_time + self.interval
        self.ticks += 1
        self.callback(tick_time)
        if self._running and self._event is None and not self._asleep:
            self._arm()
