"""Unit tests for the simulation engine."""

import math

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_schedule_relative_delay(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, 1)
        sim.run_until(10.0)
        assert fired == [1]
        assert sim.now == 10.0

    def test_schedule_at_absolute_time(self, sim):
        times = []
        sim.schedule_at(3.0, lambda: times.append(sim.now))
        sim.run_until(5.0)
        assert times == [3.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.run_until(5.0)
        with pytest.raises(SchedulingError):
            sim.schedule_at(4.0, lambda: None)

    def test_pending_events_counter(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2

    def test_cancel_prevents_firing(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        sim.cancel(event)
        sim.run_until(5.0)
        assert fired == []
        assert sim.pending_events == 0

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending_events == 0


class TestExecution:
    def test_clock_advances_to_event_times(self, sim):
        observed = []
        sim.schedule(1.0, lambda: observed.append(sim.now))
        sim.schedule(2.5, lambda: observed.append(sim.now))
        sim.run_until(3.0)
        assert observed == [1.0, 2.5]

    def test_run_until_inclusive_of_boundary(self, sim):
        fired = []
        sim.schedule_at(3.0, fired.append, "boundary")
        sim.run_until(3.0)
        assert fired == ["boundary"]

    def test_events_beyond_horizon_stay_pending(self, sim):
        fired = []
        sim.schedule(10.0, fired.append, "late")
        sim.run_until(5.0)
        assert fired == []
        assert sim.pending_events == 1
        sim.run_until(15.0)
        assert fired == ["late"]

    def test_run_until_backwards_rejected(self, sim):
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(4.0)

    def test_handlers_can_schedule_more_events(self, sim):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run_until(10.0)
        assert fired == [0, 1, 2, 3]

    def test_stop_halts_run(self, sim):
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, fired.append, 2)
        sim.run_until(10.0)
        assert fired == [1]
        # Clock stays at the stop point, not the horizon.
        assert sim.now == 1.0

    def test_events_fired_counter(self, sim):
        for i in range(4):
            sim.schedule(float(i + 1), lambda: None)
        sim.run_until(10.0)
        assert sim.events_fired == 4

    def test_run_drains_queue(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b"]

    def test_run_max_events(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_reset_clears_state(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run_until(0.5)
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0
        assert sim.events_fired == 0

    def test_step_on_empty_queue_returns_false(self, sim):
        assert sim.step() is False

    def test_firing_priority_is_the_fired_events(self, sim):
        seen = []

        def record():
            seen.append(sim.firing_priority)

        assert sim.firing_priority == -math.inf
        sim.schedule(1.0, record, priority=7)
        sim.schedule(1.0, record, priority=3)
        sim.schedule(2.0, record)
        sim.schedule(6.0, record, priority=42)
        sim.run_until(5.0)
        assert seen == [3, 7, 10]
        # Every event due by the horizon has fired.
        assert sim.firing_priority == math.inf
        sim.step()
        assert seen[-1] == 42 == sim.firing_priority
