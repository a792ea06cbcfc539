"""Unit tests for the batched engine's array primitives and drivers."""

import heapq

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import scenario
from repro.sim.batched import DRAIN_INTERVAL_S, FcfsPool, lindley


def reference_lindley(times, services, busy_until):
    completions = []
    busy = busy_until
    for t, s in zip(times, services):
        busy = max(t, busy) + s
        completions.append(busy)
    return np.asarray(completions), busy


def reference_fcfs(workers, free, arrivals, durations):
    heap = list(free)
    heapq.heapify(heap)
    starts, completions = [], []
    for arrival, duration in zip(arrivals, durations):
        worker_free = heapq.heappop(heap)
        start = max(arrival, worker_free)
        completion = start + duration
        heapq.heappush(heap, completion)
        starts.append(start)
        completions.append(completion)
    return np.asarray(starts), np.asarray(completions), sorted(heap)


class TestLindley:
    def test_empty_batch(self):
        times = np.array([])
        completions, busy = lindley(times, times, 3.5)
        assert completions.size == 0
        assert busy == 3.5

    def test_idle_device_no_queueing(self):
        times = np.array([1.0, 5.0, 9.0])
        services = np.array([0.5, 0.5, 0.5])
        completions, busy = lindley(times, services, 0.0)
        assert np.allclose(completions, [1.5, 5.5, 9.5])
        assert busy == 9.5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_recursion(self, seed):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0, 10, 500))
        services = rng.exponential(0.05, 500)
        busy0 = rng.uniform(0, 2)
        fast, busy_fast = lindley(times, services, busy0)
        slow, busy_slow = reference_lindley(times, services, busy0)
        assert np.allclose(fast, slow)
        assert busy_fast == pytest.approx(busy_slow)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_paired_pass_equals_two_separate_passes(self, seed):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0, 1, 40))
        services = rng.exponential(0.02, 40)
        for rx_busy, tx_busy in ((0.0, 0.0), (0.5, 2.0), (3.0, 0.1)):
            completions, busy, sender = lindley(
                times, services, rx_busy, tx_busy
            )
            alone, alone_busy = lindley(times, services, rx_busy)
            _, sender_alone = lindley(times, services, tx_busy)
            # Bit for bit, not approximately: the pair is a pure
            # refactoring of two passes.
            assert np.array_equal(completions, alone)
            assert busy == alone_busy
            assert sender == sender_alone

    def test_paired_empty_batch(self):
        times = np.array([])
        assert lindley(times, times, 1.0, 2.0)[1:] == (1.0, 2.0)


class TestFcfsPool:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            FcfsPool(0)

    def test_no_queue_fast_path_returns_arrivals_by_identity(self):
        pool = FcfsPool(8)
        arrivals = np.array([0.0, 0.1, 0.2])
        starts, completions, occupancy = pool.schedule(
            arrivals, np.full(3, 0.01)
        )
        assert starts is arrivals  # zero-wait detection contract
        assert np.allclose(completions, arrivals + 0.01)
        assert occupancy.max() <= 8

    @pytest.mark.parametrize("workers", [1, 2, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_heap_reference(self, workers, seed):
        rng = np.random.default_rng(seed)
        pool = FcfsPool(workers)
        free0 = sorted(rng.uniform(0, 0.5, workers))
        pool.restore(free0)
        arrivals = np.sort(rng.uniform(0, 5, 200))
        durations = rng.exponential(0.1, 200)
        starts, completions, _ = pool.schedule(arrivals, durations)
        ref_starts, ref_completions, ref_free = reference_fcfs(
            workers, free0, arrivals, durations
        )
        assert np.allclose(starts, ref_starts)
        assert np.allclose(completions, ref_completions)
        assert np.allclose(sorted(pool.snapshot()), ref_free)

    def test_carryover_across_calls(self):
        pool = FcfsPool(1)
        _, completions, _ = pool.schedule(
            np.array([0.0]), np.array([10.0])
        )
        starts, completions, _ = pool.schedule(
            np.array([1.0]), np.array([1.0])
        )
        assert starts[0] == pytest.approx(10.0)  # queued behind the first
        assert completions[0] == pytest.approx(11.0)

    def test_busy_count(self):
        pool = FcfsPool(3)
        pool.restore([1.0, 5.0, 9.0])
        assert pool.busy_count(0.0) == 3
        assert pool.busy_count(4.0) == 2
        assert pool.busy_count(10.0) == 0

    def test_snapshot_restore_round_trip(self):
        pool = FcfsPool(2)
        pool.schedule(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
        saved = pool.snapshot()
        pool.schedule(np.array([5.0]), np.array([1.0]))
        pool.restore(saved)
        assert sorted(pool.snapshot()) == sorted(saved)

    def test_snapshot_is_never_written(self):
        pool = FcfsPool(3)
        pool.schedule(np.array([0.0, 0.5]), np.array([2.0, 3.0]))
        saved = pool.snapshot()
        kept = saved.copy()
        pool.schedule(np.array([1.0, 1.0, 1.0]), np.array([4.0, 4.0, 4.0]))
        pool.rescale_remaining(1.5, 2.0)
        pool.merge_window(saved, [np.array([9.0])])
        assert np.array_equal(saved, kept)

    def test_restore_sorts_a_plain_sequence(self):
        pool = FcfsPool(3)
        pool.restore([9.0, 1.0, 5.0])
        assert list(pool.snapshot()) == [1.0, 5.0, 9.0]
        assert pool.busy_count(4.0) == 2

    def test_merge_window_keeps_c_largest(self):
        pool = FcfsPool(2)
        base = [1.0, 2.0]
        waves = [np.array([1.5, 7.0]), np.array([3.0])]
        pool.merge_window(base, waves)
        assert sorted(pool.snapshot()) == [3.0, 7.0]

    def test_rescale_remaining(self):
        pool = FcfsPool(2)
        pool.restore([5.0, 15.0])
        rescaled = pool.rescale_remaining(10.0, 2.0)
        assert rescaled == 1  # only the worker still busy past now=10
        assert sorted(pool.snapshot()) == [5.0, 20.0]
        with pytest.raises(ConfigurationError):
            pool.rescale_remaining(0.0, -1.0)


class TestBatchedDriverSmoke:
    @pytest.fixture(scope="class")
    def batched_result(self):
        from dataclasses import replace

        sc = scenario("virtualized", "browsing", duration_s=30, seed=3)
        return run_scenario(
            replace(sc, name=f"{sc.name}%batched", engine="batched")
        )

    def test_counters_populated(self, batched_result):
        assert batched_result.requests_completed > 1000
        assert 0 < batched_result.mean_response_time_s < 0.5

    def test_traces_have_all_series(self, batched_result):
        keys = set(batched_result.traces.keys())
        for entity in ("web", "db", "dom0"):
            for resource in ("cpu_cycles", "mem_used_mb", "disk_kb", "net_kb"):
                assert (entity, resource) in keys
        for key in keys:
            assert batched_result.traces.get(*key).values.min() >= 0.0

    def test_response_times_bounded_by_drain_artifacts(self, batched_result):
        # The per-hop/per-wave lane isolation keeps responses from being
        # floored to the drain tick (the signature of the frontier bug).
        times = np.asarray(batched_result.client_stats.response_times_s)
        assert np.median(times) < DRAIN_INTERVAL_S / 10

    def test_interaction_mix_matches_classic(self, batched_result):
        # Same duration, same seed: the classic engine's frequencies are
        # the yardstick (both carry the same short-run transient, so the
        # comparison is tighter than the stationary distribution).
        classic = run_scenario(
            scenario("virtualized", "browsing", duration_s=30, seed=3)
        )
        counts_b = batched_result.client_stats.per_interaction
        counts_c = classic.client_stats.per_interaction
        total_b = sum(counts_b.values())
        total_c = sum(counts_c.values())
        for state, count in counts_c.items():
            frequency = count / total_c
            if frequency > 0.08:
                observed = counts_b.get(state, 0) / total_b
                assert observed == pytest.approx(frequency, abs=0.02)
