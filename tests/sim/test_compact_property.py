"""Property tests: total order and bookkeeping of the two-tier event queue.

Drives :class:`~repro.sim.events.EventQueue` (and the engine-level
``Simulator.cancel`` / :func:`~repro.sim.batched.bulk_cancel` paths the
batched engine leans on) through long randomized schedule / cancel /
pop interleavings, checking every observable against a naive reference
queue that re-sorts a plain list.  The point is what the fast path can
silently get wrong: ``len()`` across cancellations, compaction
triggering, total order stability across ``compact()`` rebuilds, and the
hand-off between the heap and the far tier's buckets -- delays around
the bucket width, times on bucket edges, equal keys split across the
tiers, cancel storms of far timers, and ``run_until`` stopping inside a
bucket.
"""

import math
import random

import pytest

from repro.errors import SchedulingError
from repro.sim.batched import bulk_cancel
from repro.sim.engine import Simulator
from repro.sim.events import BUCKET_WIDTH_S, EventQueue

W = BUCKET_WIDTH_S


class ReferenceQueue:
    """The obviously correct queue: a sorted list, eager deletion."""

    def __init__(self):
        self._entries = []  # (time, priority, seq)
        self._seq = 0

    def push(self, time, priority=10):
        key = (time, priority, self._seq)
        self._seq += 1
        self._entries.append(key)
        self._entries.sort()
        return key

    def cancel(self, key):
        self._entries.remove(key)

    def pop(self):
        return self._entries.pop(0)

    def peek_time(self):
        return self._entries[0][0] if self._entries else None

    def __len__(self):
        return len(self._entries)


def _noop():
    pass


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_queue_matches_reference_under_cancellation_storm(seed):
    rng = random.Random(seed)
    sim = Simulator()
    queue = sim._queue
    reference = ReferenceQueue()
    live = {}  # ref key -> entry
    clock = 0.0

    for step in range(4000):
        action = rng.random()
        if action < 0.45 or not live:
            # Schedule at or after the current clock, occasional ties;
            # the spread puts entries in both tiers.
            time = clock + rng.choice([0.0, rng.random(), rng.random() * 10])
            priority = rng.choice([0, 10, 10, 10, 20])
            event = queue.push(time, _noop, (), priority, now=clock)
            key = reference.push(time, priority)
            live[key] = event
        elif action < 0.85:
            # Cancel a random batch -- the burst-wave pattern.
            batch = rng.sample(
                sorted(live), k=min(len(live), rng.randint(1, 64))
            )
            for key in batch:
                assert sim.cancel(live.pop(key)) is True
                reference.cancel(key)
        else:
            # Pop the earliest live event from both; order must agree.
            if len(reference) == 0:
                # Anything left stored is cancelled debris.
                with pytest.raises(SchedulingError):
                    queue.pop()
                continue
            event = queue.pop()
            key = reference.pop()
            assert tuple(event[:3]) == (key[0], key[1], event[2])
            assert live.pop(key) is event
            clock = max(clock, event[0])

        # Invariants after every operation.
        assert len(queue) == len(reference), f"live count drifted at {step}"
        assert queue.peek_time() == reference.peek_time()
        if step % 97 == 0:
            queue.compact()
            assert len(queue) == len(reference)
            assert queue.dead_entries == 0

    # Drain completely: total order must match to the end.
    assert len(queue) == len(reference)
    while len(reference):
        event = queue.pop()
        key = reference.pop()
        assert (event[0], event[1]) == (key[0], key[1])
    with pytest.raises(SchedulingError):
        queue.pop()
    assert queue.dead_entries == 0


class CrossTierHarness:
    """A simulator and the reference queue, driven in lockstep.

    Every event's callback receives its reference key and checks that
    the reference pops the same key at the same moment, so the order is
    checked inside ``run_until``'s inlined loop as well as in ``step``.
    Callbacks sometimes schedule follow-ups -- a callback may open a
    bucket earlier than every waiting one.
    """

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.sim = Simulator()
        self.queue = self.sim._queue
        self.reference = ReferenceQueue()
        self.handles = {}  # ref key -> entry
        self.anchors = []  # (time, priority) pairs already scheduled

    # -- scheduling -------------------------------------------------------

    def _delay(self):
        rng = self.rng
        return rng.choice([
            0.0,
            rng.random() * 1e-3,
            rng.random() * W,
            math.nextafter(W, 0.0),
            W,
            math.nextafter(W, math.inf),
            W + rng.random() * 1e-3,
            rng.expovariate(1.0 / 7.0),
            rng.random() * 4 * W,
        ])

    def _absolute(self):
        """A target time: now, an edge, an edge +- one ulp, or an anchor."""
        rng = self.rng
        now = self.sim.now
        edge = (now // W + rng.randint(0, 4)) * W
        choices = [now, edge, math.nextafter(edge, math.inf)]
        if edge > now:
            choices.append(math.nextafter(edge, 0.0))
        time = rng.choice(choices)
        priority = rng.choice([0, 10, 20])
        if self.anchors and rng.random() < 0.4:
            # Equal (time, priority) as an earlier event, likely in the
            # other tier by now.
            time, priority = rng.choice(self.anchors)
        return max(time, now), priority

    def schedule(self, absolute=None):
        sim = self.sim
        priority = self.rng.choice([0, 10, 10, 20])
        children = self.rng.random() < 0.3
        if absolute is None:
            delay = self._delay()
            key = self.reference.push(sim.now + delay, priority)
            entry = sim.schedule(
                delay, self._fire, key, children, priority=priority
            )
        else:
            time, priority = absolute
            key = self.reference.push(time, priority)
            entry = sim.schedule_at(
                time, self._fire, key, children, priority=priority
            )
        assert entry[0] == key[0] and entry[1] == key[1]
        self.handles[key] = entry
        if entry[0] > sim.now + W:
            self.anchors.append((entry[0], priority))
            del self.anchors[:-32]

    def _fire(self, key, children):
        expected = self.reference.pop()
        assert key == expected, "fired out of order"
        assert self.sim.now == key[0]
        del self.handles[key]
        if children:
            self.schedule()
            if self.rng.random() < 0.5:
                self.schedule(self._absolute())

    # -- cancelling -------------------------------------------------------

    def cancel_storm(self):
        """Cancel a random share of the far timers, some of them twice."""
        far = [
            key for key in sorted(self.handles)
            if key[0] > self.sim.now + W
        ]
        if not far:
            return
        batch = self.rng.sample(far, k=self.rng.randint(1, len(far)))
        events = [self.handles.pop(key) for key in batch]
        for key in batch:
            self.reference.cancel(key)
        assert bulk_cancel(self.sim, events) == len(events)
        assert bulk_cancel(self.sim, events[: len(events) // 2]) == 0

    # -- checks -----------------------------------------------------------

    def check(self, where):
        assert len(self.queue) == len(self.reference), where
        assert self.sim.pending_events == len(self.reference), where
        assert self.queue.peek_time() == self.reference.peek_time(), where


@pytest.mark.parametrize("seed", range(6))
def test_cross_tier_order_matches_reference(seed):
    h = CrossTierHarness(seed)
    sim, rng = h.sim, h.rng
    for _ in range(40):
        h.schedule()
    for step in range(1500):
        action = rng.random()
        if action < 0.3:
            h.schedule()
        elif action < 0.45:
            h.schedule(h._absolute())
        elif action < 0.5:
            h.cancel_storm()
        elif action < 0.6:
            pending = len(h.reference) > 0
            assert sim.step() == pending
        else:
            # Stop anywhere: inside a bucket, on an edge, or far ahead.
            end = rng.choice([
                sim.now,
                sim.now + rng.random() * W,
                (sim.now // W + 1) * W,
                sim.now + rng.random() * 5 * W,
            ])
            sim.run_until(end)
            assert sim.now == end
            nxt = h.reference.peek_time()
            assert nxt is None or nxt > end
            # A bucket may be waiting right here: schedule at "now".
            if rng.random() < 0.5:
                h.schedule((sim.now, rng.choice([0, 10, 20])))
        h.check(f"step {step}")

    # Drain: every remaining event fires in reference order.
    sim.run_until(sim.now + 1000 * W)
    assert len(h.reference) == 0
    assert sim.pending_events == 0
    assert h.queue.dead_entries == 0


def test_run_until_resumes_inside_a_bucket():
    sim = Simulator()
    log = []
    for k in (10.5, 11.0, 11.5, 12.0, 13.0):
        sim.schedule_at(k * W, log.append, k)
    sim.run_until(11.2 * W)
    assert log == [10.5, 11.0]
    # The bucket [11 W, 12 W) moved in when 11 W fired; new work lands
    # inside it, ahead of its remaining entry.
    sim.schedule_at(sim.now, log.append, "now")
    sim.schedule(0.1 * W, log.append, "hop")
    sim.run_until(12.0 * W)
    assert log == [10.5, 11.0, "now", "hop", 11.5, 12.0]
    assert sim.pending_events == 1


def test_cancel_triggers_compaction():
    sim = Simulator()
    queue = sim._queue
    events = [sim.schedule_at(float(i), _noop) for i in range(200)]
    # Cancel enough that dead entries outnumber the live rest.
    doomed = events[: EventQueue.COMPACT_MIN_DEAD + 40]
    for event in doomed:
        sim.cancel(event)
    assert queue.compactions >= 1
    # Cancels after the triggered compaction may re-accumulate a few
    # dead entries, but never past the trigger threshold again.
    assert queue.dead_entries <= EventQueue.COMPACT_MIN_DEAD
    assert len(queue) == 200 - len(doomed)
    # Survivors still pop in exact schedule order.
    times = [queue.pop()[0] for _ in range(len(queue))]
    assert times == sorted(times)


def test_cancel_is_idempotent():
    sim = Simulator()
    queue = sim._queue
    event = sim.schedule(1.0, _noop)
    assert sim.cancel(event) is True
    assert sim.cancel(event) is False  # a second cancel must not double-count
    assert len(queue) == 0
    assert queue.dead_entries == 1


@pytest.mark.parametrize("seed", [11, 12])
def test_bulk_cancel_through_simulator(seed):
    rng = random.Random(seed)
    sim = Simulator()
    fired = []
    events = [
        sim.schedule(rng.random() * 100, fired.append, i)
        for i in range(3000)
    ]
    survivors = set(range(3000))
    # Several storms, enough each time that compaction triggers.
    for _ in range(4):
        batch = rng.sample(sorted(survivors), k=700)
        survivors -= set(batch)
        cancelled = bulk_cancel(sim, [events[i] for i in batch])
        assert cancelled == 700
        # Re-cancelling is a no-op (bulk_cancel counts newly cancelled).
        assert bulk_cancel(sim, [events[i] for i in batch]) == 0
    assert sim._queue.compactions >= 1
    sim.run_until(200.0)
    assert sorted(fired) == sorted(survivors)
