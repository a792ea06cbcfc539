"""Fast-path engine semantics: inlined run_until, compaction, bookkeeping.

The optimized run loop must be observationally identical to the simple
peek/step formulation the engine started with; these tests pin that
equivalence plus the event-queue invariants the fast path relies on
(dead-entry accounting in both tiers, compaction order preservation,
cancellation-heavy bookkeeping).
"""

import pytest

from repro.errors import SchedulingError
from repro.sim.engine import Simulator
from repro.sim.events import BUCKET_WIDTH_S as W, EventQueue


def _noop():
    pass


def reference_run_until(sim: Simulator, end_time: float) -> None:
    """The seed engine's loop: peek, bounds-check, step."""
    while True:
        next_time = sim._queue.peek_time()
        if next_time is None or next_time > end_time:
            break
        sim.step()
    sim.now = end_time


def _build_schedule(sim: Simulator, log: list) -> None:
    """A mixed workload: ties, priorities, cancellations, re-scheduling."""
    for i in range(50):
        sim.schedule(0.1 * (i % 7), log.append, ("a", i), priority=5 + i % 3)
    for i in range(50):
        event = sim.schedule(0.05 * i, log.append, ("b", i))
        if i % 3 == 0:
            sim.cancel(event)
    # Same-time ties must fire in scheduling order.
    for i in range(10):
        sim.schedule(1.0, log.append, ("tie", i))

    def reschedule():
        log.append(("resched",))
        sim.schedule(0.5, log.append, ("late",))

    sim.schedule(0.2, reschedule)


class TestRunUntilEquivalence:
    def test_same_firing_order_as_reference_loop(self):
        fast_log, ref_log = [], []
        fast, ref = Simulator(), Simulator()
        _build_schedule(fast, fast_log)
        _build_schedule(ref, ref_log)

        fast.run_until(2.0)
        reference_run_until(ref, 2.0)

        assert fast_log == ref_log
        assert fast.events_fired == ref.events_fired
        assert fast.now == ref.now == 2.0
        assert fast.pending_events == ref.pending_events

    def test_events_beyond_horizon_stay_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(3.0, fired.append, 3)
        sim.run_until(2.0)
        assert fired == [1]
        assert sim.pending_events == 1
        sim.run_until(4.0)
        assert fired == [1, 3]

    def test_stop_inside_callback_halts_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, fired.append, 3)
        sim.run_until(10.0)
        assert fired == [1]
        assert sim.now == 2.0  # clock stays at the stopping event

    def test_events_fired_visible_after_run(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), _noop)
        sim.run_until(10.0)
        assert sim.events_fired == 5


class TestHeapCompaction:
    def test_compaction_triggered_by_cancellation_pressure(self):
        sim = Simulator()
        queue = sim._queue
        keep = [sim.schedule_at(float(i), _noop) for i in range(10)]
        victims = [sim.schedule_at(1000.0 + i, _noop) for i in range(200)]
        for event in victims:
            sim.cancel(event)
        assert queue.compactions >= 1
        # Invariant: dead entries never exceed the compaction threshold
        # or the live count for long.
        assert queue.dead_entries <= max(
            EventQueue.COMPACT_MIN_DEAD, len(queue)
        )
        assert len(queue) == len(keep)

    def test_compaction_preserves_time_priority_seq_order(self):
        sim = Simulator()
        queue = sim._queue
        events = []
        # Interleave priorities and ties so ordering is non-trivial; the
        # times straddle the bucket width, so both tiers hold entries.
        for i in range(300):
            events.append(
                sim.schedule_at(float(i % 13), _noop, priority=i % 5)
            )
        for i, event in enumerate(events):
            if i % 2 == 0:
                sim.cancel(event)
        queue.compact()
        assert queue.dead_entries == 0
        expected = sorted(
            (e for e in events if e[3] is not None), key=lambda e: e[:3]
        )
        popped = [queue.pop() for _ in range(len(queue))]
        assert popped == expected

    def test_compaction_drops_emptied_buckets(self):
        sim = Simulator()
        queue = sim._queue
        doomed = [sim.schedule_at(50.5 * W, _noop) for _ in range(100)]
        survivor = sim.schedule_at(70.5 * W, _noop)
        for event in doomed:
            sim.cancel(event)
        queue.compact()
        assert queue.dead_entries == 0
        assert list(queue._buckets) == [70.0]
        assert queue._next_edge == 70.0 * W
        assert queue.pop() is survivor

    def test_explicit_compact_on_clean_queue_is_safe(self):
        queue = EventQueue()
        queue.push(1.0, _noop)
        queue.compact()
        assert len(queue) == 1
        assert queue.pop()[0] == 1.0


class TestCancellationBookkeeping:
    def test_cancel_is_idempotent_for_a_second_holder(self):
        sim = Simulator()
        queue = sim._queue
        sim.schedule(1.0, _noop)
        victim = sim.schedule(2.0, _noop)
        assert sim.cancel(victim) is True
        assert sim.cancel(victim) is False  # a second holder of the handle
        assert len(queue) == 1
        assert queue.dead_entries == 1

    def test_cancellation_heavy_workload_drains_clean(self):
        # Burst-wave pattern: re-arm timers constantly, cancelling the
        # previous one each time.
        sim = Simulator()
        fired = []
        pending = None
        for i in range(500):
            if pending is not None:
                sim.cancel(pending)
            pending = sim.schedule(1000.0 + i, fired.append, i)
            sim.schedule(0.001 * (i + 1), _noop)
        sim.run_until(1.0)
        assert fired == []  # all far-future timers were cancelled but one
        assert sim.pending_events == 1
        sim.run_until(2000.0)
        assert fired == [499]
        assert sim.pending_events == 0
        assert sim._queue.dead_entries == 0

    def test_pop_ready_leaves_future_events(self):
        queue = EventQueue()
        queue.push(1.0, _noop)
        queue.push(5.0, _noop)
        assert queue.pop_ready(2.0)[0] == 1.0
        assert queue.pop_ready(2.0) is None
        assert len(queue) == 1  # the 5.0 event was not consumed
        assert queue.pop_ready(10.0)[0] == 5.0

    def test_pop_ready_discards_cancelled_heads(self):
        sim = Simulator()
        queue = sim._queue
        victim = sim.schedule_at(1.0, _noop)
        survivor = sim.schedule_at(2.0, _noop)
        sim.cancel(victim)
        assert queue.pop_ready(10.0) is survivor
        assert queue.dead_entries == 0

    def test_pop_empty_still_raises(self):
        with pytest.raises(SchedulingError):
            EventQueue().pop()
