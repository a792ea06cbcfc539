"""Unit tests for the batched engine's array primitives and drivers."""

import heapq
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, ConfigurationError
from repro.experiments.runner import prepare_run, run_scenario
from repro.experiments.scenarios import scenario
from repro.rubis.batched import (
    BatchedOpenDriver,
    _InteractionTable,
    _MatrixWalk,
    admission_pass,
)
from repro.rubis.database import BufferPool, RubisDatabase
from repro.rubis.demand import DemandSampler, DemandScaling
from repro.rubis.interactions import INTERACTIONS, get_interaction
from repro.rubis.transitions import bidding_matrix, browsing_matrix
from repro.rubis.workload import SessionType
from repro.sim.batched import DRAIN_INTERVAL_S, FcfsPool, lindley
from repro.units import MB


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


def _table(scaling=DemandScaling()):
    pool = BufferPool(
        capacity_bytes=384 * MB,
        database=RubisDatabase(),
        hot_fraction=0.05,
        hot_access_probability=0.99,
    )
    sampler = DemandSampler(scaling, pool, np.random.default_rng(0))
    return _InteractionTable(sampler, sorted(INTERACTIONS))


def separate_draws(table, rng, g, miss_probability):
    """A wave's demand draws as one generator call per quantity.

    The response noise takes per-row parameters and the web, db and
    write noise are three calls, as before the merged draws.
    """
    (response_mu, response_sigma, response_base, web_base, db_base,
     write_base, log_base, request_base, *rest) = table.cols[:, g]
    n = g.size
    response = response_base * rng.lognormal(response_mu, response_sigma)
    pages = table.pages[g]
    missed = rng.binomial(pages, miss_probability)
    if table.demand_params is None:
        web, db, write = web_base, db_base, write_base
    else:
        mu, sigma = table.demand_params
        web = web_base * rng.lognormal(mu, sigma, n)
        db = db_base * rng.lognormal(mu, sigma, n)
        write = write_base * rng.lognormal(mu, sigma, n)
    log = log_base * rng.lognormal(*table.log_params, n)
    request = request_base * rng.lognormal(*table.req_params, n)
    return (response, web, db, write, log, request, *rest, pages, missed)


class TestMergedDraws:
    """A wave's merged draws equal one generator call per quantity."""

    def _assert_same_draws(self, table, seed, waves=60):
        cohorts = np.random.default_rng(seed + 1)
        merged = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        for _ in range(waves):
            rows = int(cohorts.integers(1, 80))
            g = cohorts.integers(0, len(table.names), rows)
            miss_probability = float(cohorts.uniform(0.0, 0.5))
            got = table.draw(merged, g, miss_probability)
            want = separate_draws(table, reference, g, miss_probability)
            assert len(got) == len(want) == 12
            for index, (a, b) in enumerate(zip(got, want)):
                assert a.dtype == b.dtype, index
                np.testing.assert_array_equal(a, b, err_msg=str(index))
        assert merged.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("seed", [1, 5, 42])
    def test_shared_response_pair_matches_per_row_parameters(self, seed):
        table = _table()
        assert len(table.names) == 26
        assert table.response_params is not None
        self._assert_same_draws(table, seed)

    def test_no_shared_pair_keeps_per_row_parameters(self, monkeypatch):
        flat = replace(
            get_interaction("ViewItem"), name="Flat", response_cv=0.0
        )
        monkeypatch.setitem(INTERACTIONS, "Flat", flat)
        table = _table()
        assert "Flat" in table.names
        assert table.response_params is None
        self._assert_same_draws(table, 11)

    def test_zero_demand_cv_draws_no_demand_noise(self):
        table = _table(DemandScaling(demand_cv=0.0))
        assert table.demand_params is None
        self._assert_same_draws(table, 7)


class _Uniforms:
    """A generator stand-in whose ``random(n)`` returns chosen uniforms."""

    def __init__(self, values) -> None:
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        assert size == self.values.size
        return self.values.copy()


def _walk():
    matrices = {
        SessionType.BROWSE: browsing_matrix(),
        SessionType.BID: bidding_matrix(),
    }
    return _MatrixWalk(matrices, _table())


def counted_step(walk, rng, stype, states):
    """The walk's step as a count of CDF entries at or below each draw."""
    draws = np.empty(states.size)
    draws[stype.argsort(kind="stable")] = rng.random(states.size)
    local = (walk.cdf_rows[states] <= draws[:, None]).sum(axis=1)
    return local + walk.base[states]


class TestMatrixWalk:
    """The first CDF entry above a draw is the count at or below it."""

    @pytest.mark.parametrize("seed", [0, 3, 42])
    def test_random_cohorts_match_the_count(self, seed):
        walk = _walk()
        cohorts = np.random.default_rng(seed + 1)
        stepped = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        for _ in range(50):
            rows = int(cohorts.integers(1, 120))
            stype = cohorts.integers(0, 2, rows).astype(np.int8)
            states = cohorts.integers(0, walk.cdf_rows.shape[0], rows)
            np.testing.assert_array_equal(
                walk.step(stepped, stype, states),
                counted_step(walk, reference, stype, states),
            )
        assert stepped.bit_generator.state == reference.bit_generator.state

    def test_draws_on_cdf_entries_and_at_the_ends(self):
        # Every row, with a draw equal to each of its CDF entries below
        # 1.0, a draw of 0.0 and the largest double below 1.0.
        walk = _walk()
        states, uniforms, expected = [], [], []
        for state, row in enumerate(walk.cdf_rows):
            cdf = row[np.isfinite(row)].tolist()
            assert cdf[-1] == 1.0
            edges = [u for u in cdf if u < 1.0]
            for u in edges + [0.0, np.nextafter(1.0, 0.0)]:
                states.append(state)
                uniforms.append(u)
                expected.append(walk.base[state] + bisect_right(cdf, u))
        states = np.asarray(states)
        stype = np.zeros(states.size, dtype=np.int8)
        got = walk.step(_Uniforms(uniforms), stype, states)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(
            got, counted_step(walk, _Uniforms(uniforms), stype, states)
        )


class TestInlinedCharges:
    """The inlined ledger adds keep the ledger's negative-charge check."""

    @pytest.mark.parametrize("environment", ["virtualized", "bare-metal"])
    def test_negative_cycles_raise(self, environment):
        spec = scenario(environment, "bidding", duration_s=10.0, seed=1)
        physics = prepare_run(
            replace(spec, engine="batched")
        ).testbed.web.population.physics
        physics.begin_drain()
        assert physics._db.commit_cycles > 0
        with pytest.raises(CapacityError, match="negative cycle charge"):
            physics._web.account(1, 1.0, -1.0)
        with pytest.raises(CapacityError, match="negative cycle charge"):
            physics._db.account(1, -1.0, 1.0)
        with pytest.raises(CapacityError, match="negative cycle charge"):
            physics._db.account(1, 1.0, 1.0, -1)
        if environment == "virtualized":
            with pytest.raises(CapacityError, match="negative cycle charge"):
                physics._request.book(1, 10.0, -10.0)


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


def scalar_gate_walk(offers, finishes, budget, in_flight):
    """One walk of the session-budget gate, one offer at a time."""
    finishes = sorted(finishes)
    admitted = []
    for t in offers:
        later = len(finishes) - bisect_right(finishes, t)
        admit = in_flight + later < budget
        in_flight += admit
        admitted.append(admit)
    return admitted


#: Offer and finish times on a coarse grid, so ties between offers,
#: between finishes, and between an offer and a finish are common.
_GRID_TIMES = st.integers(min_value=0, max_value=12).map(lambda i: i * 0.02)


class TestAdmissionPass:
    @given(
        offers=st.lists(_GRID_TIMES, max_size=40),
        finishes=st.lists(_GRID_TIMES, max_size=40),
        budget=st.integers(min_value=1, max_value=12),
        in_flight=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_scalar_walk(
        self, offers, finishes, budget, in_flight
    ):
        offers = sorted(offers)
        got = admission_pass(
            np.asarray(offers, dtype=float),
            np.sort(np.asarray(finishes, dtype=float)),
            budget,
            in_flight,
        )
        assert got.dtype == bool
        assert got.tolist() == scalar_gate_walk(
            offers, finishes, budget, in_flight
        )

    def test_budget_below_in_flight_admits_nothing(self):
        offers = np.array([0.1, 0.2, 0.3])
        got = admission_pass(offers, np.array([0.15]), 2, 5)
        assert not got.any()

    def test_each_finish_frees_one_later_offer(self):
        offers = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
        # Full at the start: one session stays in flight, two more
        # finish at 0.15 and 0.25.
        got = admission_pass(offers, np.array([0.15, 0.25]), 3, 1)
        assert got.tolist() == [False, False, True, True, False]


class TestBulkAdmission:
    """A bulk admit equals one scalar admit per offer."""

    @staticmethod
    def _driver():
        from repro.experiments.runner import prepare_run
        from repro.experiments.scenarios import open_loop_scenario, with_engine

        spec = open_loop_scenario(
            "virtualized", "blend_50_50", rate_rps=50.0, duration_s=10.0,
            seed=2, session_budget=10,
        )
        driver = prepare_run(with_engine(spec, "batched")).testbed.web.population
        assert isinstance(driver, BatchedOpenDriver)
        return driver

    @staticmethod
    def _scalar_admit(driver, t):
        """The one-offer admit: pop a slot (growing when none is free),
        draw the session type, fill the slot's columns."""
        driver.arrivals_admitted += 1
        driver._in_flight += 1
        if not driver._free:
            driver._grow()
        slot = driver._free.pop()
        browse = driver.rng.uniform() < driver.mix.browse_fraction
        type_index = 0 if browse else 1
        driver.stype[slot] = type_index
        driver.state[slot] = driver.walks.initial[type_index]
        driver.remaining[slot] = driver.requests_per_session
        driver.wake[slot] = t
        driver.serial[slot] = driver._next_serial
        driver._next_serial += 1

    def _assert_same(self, bulk, scalar):
        for name in ("wake", "stype", "state", "remaining", "serial"):
            np.testing.assert_array_equal(
                getattr(bulk, name), getattr(scalar, name), err_msg=name
            )
        assert bulk._free == scalar._free
        assert bulk._next_serial == scalar._next_serial
        assert bulk.arrivals_admitted == scalar.arrivals_admitted
        assert bulk._in_flight == scalar._in_flight
        assert bulk.rng.random() == scalar.rng.random()

    def test_admit_across_grow_takes_the_scalar_slots(self):
        bulk, scalar = self._driver(), self._driver()
        assert bulk.mix.browse_fraction < 1.0
        first = np.linspace(0.0, 0.2, 50)
        bulk._admit(first)
        for t in first:
            self._scalar_admit(scalar, float(t))
        self._assert_same(bulk, scalar)
        # Three sessions finish, their slots freed out of order; the
        # next 100 offers use them, the 14 never-used slots, and then
        # two grows (64 -> 128 -> 256) in the middle of the batch.
        for driver in (bulk, scalar):
            driver.wake[[7, 3, 30]] = np.inf
            driver._free.extend([7, 3, 30])
        second = np.linspace(0.2, 0.25, 100)
        bulk._admit(second)
        for t in second:
            self._scalar_admit(scalar, float(t))
        assert bulk.wake.size == 256
        self._assert_same(bulk, scalar)
        stypes = bulk.stype[np.isfinite(bulk.wake)]
        assert 0 < stypes.sum() < stypes.size

    def test_empty_admit_draws_nothing(self):
        bulk, scalar = self._driver(), self._driver()
        bulk._admit(np.empty(0))
        self._assert_same(bulk, scalar)

    def test_shed_keeps_retries_in_shed_order(self):
        driver = self._driver()
        driver.retry_max = 2
        driver.retry_backoff_s = 0.05
        driver._shed(np.array([0.3, 0.1, 0.2]), np.array([0, 2, 1]))
        assert driver.arrivals_retried == 2
        assert driver.arrivals_abandoned == 1
        np.testing.assert_array_equal(driver._retry_due, [0.35, 0.2 + 0.1])
        np.testing.assert_array_equal(driver._retry_attempt, [1, 2])
        times, attempts = driver._take_due_retries(0.31)
        np.testing.assert_array_equal(times, [0.2 + 0.1])
        np.testing.assert_array_equal(attempts, [2])
        np.testing.assert_array_equal(driver._retry_due, [0.35])
