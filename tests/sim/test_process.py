"""Unit tests for periodic processes."""

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.sim.process import PeriodicProcess


class TestPeriodicProcess:
    def test_fires_at_aligned_ticks(self, sim):
        ticks = []
        PeriodicProcess(sim, 2.0, ticks.append).start()
        sim.run_until(10.0)
        assert ticks == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_explicit_start_time(self, sim):
        ticks = []
        PeriodicProcess(sim, 2.0, ticks.append, start=1.0).start()
        sim.run_until(6.0)
        assert ticks == [1.0, 3.0, 5.0]

    def test_stop_halts_ticks(self, sim):
        ticks = []
        process = PeriodicProcess(sim, 1.0, ticks.append).start()
        sim.schedule(3.5, process.stop)
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0, 3.0]

    def test_tick_counter(self, sim):
        process = PeriodicProcess(sim, 1.0, lambda t: None).start()
        sim.run_until(5.0)
        assert process.ticks == 5

    def test_no_drift_with_slow_callbacks(self, sim):
        # Callback schedules further work; tick times remain on-grid.
        ticks = []

        def callback(t):
            ticks.append(t)
            sim.schedule(0.3, lambda: None)

        PeriodicProcess(sim, 1.0, callback).start()
        sim.run_until(4.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0]

    def test_invalid_interval_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            PeriodicProcess(sim, 0.0, lambda t: None)

    def test_start_is_idempotent(self, sim):
        ticks = []
        process = PeriodicProcess(sim, 1.0, ticks.append)
        process.start()
        process.start()
        sim.run_until(2.0)
        assert ticks == [1.0, 2.0]

    def test_running_flag(self, sim):
        process = PeriodicProcess(sim, 1.0, lambda t: None)
        assert not process.running
        process.start()
        assert process.running
        process.stop()
        assert not process.running


def _sleeper(sim, interval, ticks):
    """A process that records its ticks and sleeps after every one."""

    def callback(t):
        ticks.append(t)
        process.sleep()

    process = PeriodicProcess(sim, interval, callback)
    return process


class TestSleepWake:
    def test_woken_ticks_equal_an_uninterrupted_twin(self, sim):
        # A 0.1 s grid drifts from start + k * interval within a few
        # ticks, and by ~990 s the accumulated grid and the multiplied
        # one differ well beyond the last bit: a wake must land on the
        # grid the twin fires, not on a recomputed one.
        twin = []
        PeriodicProcess(sim, 0.1, twin.append).start()
        ticks = []
        process = _sleeper(sim, 0.1, ticks).start()
        wakes = (0.05, 0.35, 2.0, 2.01, 7.345, 987.65)
        for at in wakes:
            sim.schedule_at(at, process.wake)
        sim.run_until(990.0)
        # A waker below the process's priority sees the first tick at
        # or after it.
        expected = sorted(
            {twin[0]} | {min(t for t in twin if t >= at) for at in wakes}
        )
        assert ticks == expected
        assert ticks[-1] == twin[9876] != 0.1 * 9877

    @pytest.mark.parametrize(
        "priority, expected",
        [
            # The uninterrupted tick at 3.0 fires after a lower-priority
            # waker, so it sees the wake: arm it.
            (10, [1.0, 3.0]),
            # It fired before a higher-priority waker, unwoken: skip it.
            (30, [1.0, 4.0]),
        ],
    )
    def test_tie_at_a_grid_time(self, sim, priority, expected):
        ticks = []
        process = _sleeper(sim, 1.0, ticks).start()
        sim.schedule_at(3.0, process.wake, priority=priority)
        sim.run_until(4.5)
        assert ticks == expected

    def test_tie_at_the_process_priority_is_refused(self, sim):
        ticks = []
        process = _sleeper(sim, 1.0, ticks).start()
        sim.schedule_at(3.0, process.wake, priority=process.priority)
        with pytest.raises(SchedulingError):
            sim.run_until(4.5)

    def test_wake_outside_the_loop_after_a_run_skips_the_fired_tick(
        self, sim
    ):
        # run_until(3.0) fired everything due at 3.0, the twin's tick
        # included.
        ticks = []
        process = _sleeper(sim, 1.0, ticks).start()
        sim.run_until(3.0)
        process.wake()
        sim.run_until(5.0)
        assert ticks == [1.0, 4.0]

    def test_wake_while_awake_does_nothing(self, sim):
        ticks = []
        process = PeriodicProcess(sim, 1.0, ticks.append).start()
        for at in (0.5, 1.0, 2.5):
            sim.schedule_at(at, process.wake)
        sim.run_until(1.0)
        pending = sim.pending_events
        process.wake()
        assert sim.pending_events == pending
        sim.run_until(4.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0]

    def test_stop_while_asleep(self, sim):
        ticks = []
        process = _sleeper(sim, 1.0, ticks).start()
        sim.schedule_at(1.5, process.stop)
        sim.schedule_at(2.5, process.wake)
        sim.run_until(10.0)
        assert ticks == [1.0]
        assert not process.running
        assert sim.pending_events == 0

    def test_sleep_outside_the_callback_rejected(self, sim):
        process = PeriodicProcess(sim, 1.0, lambda t: None).start()
        with pytest.raises(SchedulingError):
            process.sleep()

    def test_wake_inside_the_sleeping_callback_arms_once(self, sim):
        ticks = []

        def callback(t):
            ticks.append(t)
            process.sleep()
            process.wake()

        process = PeriodicProcess(sim, 1.0, callback).start()
        sim.run_until(3.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert sim.pending_events == 1
