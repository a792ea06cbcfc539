"""Unit tests for the event queue."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchedulingError
from repro.sim.engine import Simulator
from repro.sim.events import BUCKET_WIDTH_S as W, EventQueue


def _noop():
    pass


class TestEventOrdering:
    def test_pop_returns_earliest(self):
        q = EventQueue()
        q.push(2.0, _noop)
        q.push(1.0, _noop)
        q.push(3.0, _noop)
        assert q.pop()[0] == 1.0
        assert q.pop()[0] == 2.0
        assert q.pop()[0] == 3.0

    def test_ties_fire_in_scheduling_order(self):
        q = EventQueue()
        order = []
        for i in range(5):
            q.push(1.0, order.append, (i,))
        while q:
            entry = q.pop()
            entry[3](*entry[4])
        assert order == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties_before_sequence(self):
        q = EventQueue()
        first = q.push(1.0, _noop, priority=20)
        second = q.push(1.0, _noop, priority=5)
        assert q.pop() is second
        assert q.pop() is first

    def test_ties_across_tiers_fire_in_scheduling_order(self):
        # The first entry waits in a bucket, the second goes straight on
        # the heap; equal (time, priority) still pops by sequence.
        q = EventQueue()
        far = q.push(10 * W, _noop, now=0.0)
        near = q.push(10 * W, _noop, now=9.5 * W)
        assert q._buckets and len(q._heap) == 1
        assert q.pop() is far
        assert q.pop() is near

    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    def test_pop_order_is_sorted_for_any_times(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, _noop)
        popped = [q.pop()[0] for _ in range(len(times))]
        assert popped == sorted(times)


class TestTiers:
    def test_due_within_one_width_goes_on_the_heap(self):
        q = EventQueue()
        q.push(W, _noop, now=0.0)
        assert len(q._heap) == 1 and not q._buckets

    def test_due_later_waits_in_its_bucket(self):
        q = EventQueue()
        q.push(3.5 * W, _noop, now=0.0)
        assert not q._heap
        assert list(q._buckets) == [3.0]
        assert q._next_edge == 3.0 * W

    def test_bucket_moves_in_when_the_heap_reaches_its_edge(self):
        q = EventQueue()
        q.push(3.5 * W, _noop, now=0.0)
        q.push(3.0 * W, _noop, now=2.5 * W)  # on the heap, on the edge
        assert q.pop()[0] == 3.0 * W
        assert not q._buckets and q._next_edge == float("inf")
        assert q.pop()[0] == 3.5 * W

    def test_infinite_time_rejected(self):
        with pytest.raises(SchedulingError):
            EventQueue().push(float("inf"), _noop)


class TestEventQueueBookkeeping:
    def test_len_counts_live_events(self):
        q = EventQueue()
        assert len(q) == 0
        q.push(1.0, _noop)
        q.push(20.0, _noop)
        assert len(q) == 2
        q.pop()
        assert len(q) == 1

    def test_bool_reflects_liveness(self):
        q = EventQueue()
        assert not q
        q.push(1.0, _noop)
        assert q

    def test_pop_empty_raises(self):
        q = EventQueue()
        with pytest.raises(SchedulingError):
            q.pop()

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        q = sim._queue
        victim = sim.schedule_at(1.0, _noop)
        survivor = sim.schedule_at(2.0, _noop)
        sim.cancel(victim)
        assert len(q) == 1
        assert q.pop() is survivor

    def test_cancelled_bucket_entries_are_dropped_on_move(self):
        sim = Simulator()
        q = sim._queue
        victim = sim.schedule(10.2 * W, _noop)
        survivor = sim.schedule(10.4 * W, _noop)
        sim.cancel(victim)
        assert q.dead_entries == 1
        assert q.pop() is survivor
        assert q.dead_entries == 0
        assert len(q) == 0

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        q = sim._queue
        victim = sim.schedule_at(1.0, _noop)
        sim.schedule_at(5.0, _noop)
        sim.cancel(victim)
        assert q.peek_time() == 5.0

    def test_peek_time_empty_returns_none(self):
        assert EventQueue().peek_time() is None

    def test_clear_drops_everything(self):
        q = EventQueue()
        q.push(1.0, _noop)
        q.push(20.0, _noop)
        q.clear()
        assert len(q) == 0
        assert q.peek_time() is None
        assert q._next_edge == float("inf")


class TestEvent:
    def test_sort_key_structure(self):
        q = EventQueue()
        q.push(0.5, _noop)
        entry = q.push(1.5, _noop, (), priority=3)
        assert entry[:3] == [1.5, 3, 1]
        assert entry[3] is _noop and entry[4] == ()

    def test_cancel_clears_fn_slot(self):
        sim = Simulator()
        entry = sim.schedule(1.0, _noop)
        assert entry[3] is _noop
        assert sim.cancel(entry) is True
        assert entry[3] is None
