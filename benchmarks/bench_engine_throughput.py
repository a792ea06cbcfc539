"""P1 — engine + telemetry throughput on a full-registry scenario.

The tentpole performance benchmark: runs the paper's virtualized
browsing scenario with the complete 518-metric registry sampled every
2 s and reports end-to-end throughput — events/s through the DES engine
and metrics/s through the telemetry pipeline — into ``extra_info`` so
the BENCH trajectory tracks regressions.

Supporting microbenchmarks isolate the layers: a pure event-loop run
(periodic processes only, no application logic), a closed-loop
event-loop run (thinking timers and the hops each wake fires, no
application logic), a cancellation-heavy run that exercises the
lazy-deletion + compaction path of the event queue, and the batched
engine's fixed cost per wave.

Quick mode: set ``REPRO_BENCH_QUICK=1`` to shrink the horizons so the
whole file runs in a few seconds (the CI smoke configuration).
"""

import os
import random
import time
from dataclasses import replace

import numpy as np

from repro.experiments.runner import prepare_run, run_scenario
from repro.experiments.scenarios import scenario
from repro.monitoring.registry import build_registry
from repro.sim.batched import DRAIN_INTERVAL_S
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess

QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip() in ("1", "true", "yes")

#: Scenario horizon (seconds of simulated time).
HORIZON_S = 30.0 if QUICK else 240.0
#: Pure event-loop horizon.
LOOP_HORIZON_S = 5.0 if QUICK else 50.0

#: Classic-engine event counts per configuration, shared with the
#: batched variants below: the batched engine fires only drain ticks,
#: so its honest throughput figure is *classic-equivalent* events/s —
#: the events the classic engine needs for the same simulated work,
#: divided by the batched wall time.
_CLASSIC_EVENTS = {}


def _classic_events(key, sc, registry):
    """Classic event count for ``sc``, reusing the classic bench's run."""
    if key not in _CLASSIC_EVENTS:
        result = run_scenario(
            sc, collect_full_registry=True, registry=registry,
            columnar_rows=True,
        )
        _CLASSIC_EVENTS[key] = result.deployment.sim.events_fired
    return _CLASSIC_EVENTS[key]


def test_full_registry_scenario_throughput(benchmark):
    """End-to-end: DES + 518-metric telemetry, columnar storage."""
    registry = build_registry()
    sc = scenario("virtualized", "browsing", duration_s=HORIZON_S, seed=7)
    # Warm the calibration cache so the measurement covers the run loop,
    # not one-time setup.
    run_scenario(scenario("virtualized", "browsing", duration_s=4.0, seed=1))

    def run():
        start = time.perf_counter()
        result = run_scenario(
            sc,
            collect_full_registry=True,
            registry=registry,
            columnar_rows=True,
        )
        return result, time.perf_counter() - start

    result, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    events = result.deployment.sim.events_fired
    _CLASSIC_EVENTS["full_registry"] = events
    samples = len(result.columnar)
    metric_columns = len(result.columnar.columns) - 1  # minus time_s
    benchmark.extra_info["engine"] = "classic"
    benchmark.extra_info["horizon_s"] = HORIZON_S
    benchmark.extra_info["events_fired"] = events
    benchmark.extra_info["events_per_s"] = round(events / elapsed)
    benchmark.extra_info["samples"] = samples
    benchmark.extra_info["metric_columns"] = metric_columns
    benchmark.extra_info["metrics_per_s"] = round(
        samples * metric_columns / elapsed
    )
    benchmark.extra_info["sim_speedup_over_realtime"] = round(
        HORIZON_S / elapsed, 1
    )
    print(
        f"\n{events} events, {samples} x {metric_columns} metric samples "
        f"in {elapsed:.3f}s -> {events / elapsed:,.0f} events/s, "
        f"{samples * metric_columns / elapsed:,.0f} metrics/s"
    )
    assert samples == int(HORIZON_S // 2)
    assert metric_columns == 3 * (182 + 154)


def test_million_event_scenario_throughput(benchmark):
    """The acceptance configuration: >1M events, full 518-metric registry.

    5000 clients over the 240 s horizon drive ~1.12M events.  This is
    the scale where the tuple-keyed heap pays off most: the seed
    implementation's per-event Python comparisons grow with the log of
    the pending-event count (one think timer per client), while the
    C-level tuple compares do not.  Measured speedup vs. the seed is
    recorded in PERFORMANCE.md (≥3x, bit-identical traces).
    """
    clients = 1_000 if QUICK else 5_000
    horizon = 30.0 if QUICK else 240.0
    registry = build_registry()
    sc = scenario(
        "virtualized", "browsing", duration_s=horizon, seed=7,
        clients=clients,
    )
    run_scenario(scenario("virtualized", "browsing", duration_s=4.0, seed=1))

    def run():
        start = time.perf_counter()
        result = run_scenario(
            sc,
            collect_full_registry=True,
            registry=registry,
            columnar_rows=True,
        )
        return result, time.perf_counter() - start

    result, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    events = result.deployment.sim.events_fired
    _CLASSIC_EVENTS["million_event"] = events
    samples = len(result.columnar)
    metric_columns = len(result.columnar.columns) - 1
    benchmark.extra_info["engine"] = "classic"
    benchmark.extra_info["clients"] = clients
    benchmark.extra_info["events_fired"] = events
    benchmark.extra_info["events_per_s"] = round(events / elapsed)
    benchmark.extra_info["metrics_per_s"] = round(
        samples * metric_columns / elapsed
    )
    print(
        f"\n{clients} clients: {events:,} events in {elapsed:.2f}s "
        f"-> {events / elapsed:,.0f} events/s"
    )
    if not QUICK:
        assert events > 1_000_000


def test_full_registry_scenario_throughput_batched(benchmark):
    """The full-registry scenario under ``engine="batched"``.

    Same simulated work as the classic bench above; the reported
    ``events_per_s`` is *classic-equivalent* (classic events for this
    configuration over batched wall time), so the two rows compare
    directly.
    """
    registry = build_registry()
    base = scenario("virtualized", "browsing", duration_s=HORIZON_S, seed=7)
    sc = replace(base, name=f"{base.name}%batched", engine="batched")
    run_scenario(scenario("virtualized", "browsing", duration_s=4.0, seed=1))
    classic_events = _classic_events("full_registry", base, registry)

    def run():
        start = time.perf_counter()
        result = run_scenario(
            sc,
            collect_full_registry=True,
            registry=registry,
            columnar_rows=True,
        )
        return result, time.perf_counter() - start

    result, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    samples = len(result.columnar)
    metric_columns = len(result.columnar.columns) - 1
    benchmark.extra_info["engine"] = "batched"
    benchmark.extra_info["horizon_s"] = HORIZON_S
    benchmark.extra_info["classic_equivalent_events"] = classic_events
    benchmark.extra_info["events_per_s"] = round(classic_events / elapsed)
    benchmark.extra_info["metrics_per_s"] = round(
        samples * metric_columns / elapsed
    )
    print(
        f"\nbatched: {classic_events:,} classic-equivalent events in "
        f"{elapsed:.3f}s -> {classic_events / elapsed:,.0f} events/s"
    )
    assert samples == int(HORIZON_S // 2)
    assert result.requests_completed > 0


def test_million_event_scenario_throughput_batched(benchmark):
    """The million-event acceptance configuration under the batched engine.

    The Epoch-2 headline number: classic-equivalent events/s on the
    exact configuration PERFORMANCE.md tracks (5000 clients, 240 s,
    full registry, columnar).
    """
    clients = 1_000 if QUICK else 5_000
    horizon = 30.0 if QUICK else 240.0
    registry = build_registry()
    base = scenario(
        "virtualized", "browsing", duration_s=horizon, seed=7,
        clients=clients,
    )
    sc = replace(base, name=f"{base.name}%batched", engine="batched")
    run_scenario(scenario("virtualized", "browsing", duration_s=4.0, seed=1))
    classic_events = _classic_events("million_event", base, registry)

    def run():
        start = time.perf_counter()
        result = run_scenario(
            sc,
            collect_full_registry=True,
            registry=registry,
            columnar_rows=True,
        )
        return result, time.perf_counter() - start

    result, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["engine"] = "batched"
    benchmark.extra_info["clients"] = clients
    benchmark.extra_info["classic_equivalent_events"] = classic_events
    benchmark.extra_info["events_per_s"] = round(classic_events / elapsed)
    print(
        f"\nbatched, {clients} clients: {classic_events:,} "
        f"classic-equivalent events in {elapsed:.2f}s "
        f"-> {classic_events / elapsed:,.0f} events/s"
    )
    assert result.requests_completed > 0


def test_pure_event_loop_throughput(benchmark):
    """Engine-only: periodic callbacks, no application or telemetry."""

    def run():
        sim = Simulator()
        for k in range(200):
            PeriodicProcess(
                sim, 0.01 + k * 1e-5, lambda t: None, name=f"p{k}"
            ).start()
        start = time.perf_counter()
        sim.run_until(LOOP_HORIZON_S)
        return sim.events_fired, time.perf_counter() - start

    events, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["events_fired"] = events
    benchmark.extra_info["events_per_s"] = round(events / elapsed)
    print(f"\npure loop: {events / elapsed:,.0f} events/s")
    assert events > 0


def test_closed_loop_event_loop_throughput(benchmark):
    """Engine-only closed loop: thinking timers, six hops per wake.

    The event shape of the classic request path with no application
    logic: each of N timers thinks for an exponential ~7 s, wakes, and
    fires six millisecond hops before thinking again.  The think timers
    wait in the event queue's far tier while the hops sift through a
    heap sized by the next second's work, so a far-tier regression
    shows here as a drop in events/s.
    """
    timers = 2_000 if QUICK else 5_000
    horizon = 30.0 if QUICK else 240.0

    def run():
        sim = Simulator()
        rng = random.Random(7)
        expovariate = rng.expovariate
        schedule = sim.schedule

        def wake(hops_left):
            if hops_left:
                schedule(expovariate(1000.0), wake, hops_left - 1)
            else:
                schedule(expovariate(1.0 / 7.0), wake, 6)

        for _ in range(timers):
            schedule(rng.uniform(0.0, 10.0), wake, 6)
        start = time.perf_counter()
        sim.run_until(horizon)
        return sim.events_fired, time.perf_counter() - start

    events, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["timers"] = timers
    benchmark.extra_info["horizon_s"] = horizon
    benchmark.extra_info["events_fired"] = events
    benchmark.extra_info["events_per_s"] = round(events / elapsed)
    print(
        f"\nclosed loop, {timers} timers: {events:,} events "
        f"-> {events / elapsed:,.0f} events/s"
    )
    assert events > timers * 7


def test_cancellation_heavy_throughput(benchmark):
    """Timer-wheel style load: most scheduled events are cancelled.

    Mimics burst waves re-arming think timers; exercises lazy deletion
    and heap compaction, which keep pop cost bounded.
    """
    rounds = 2_000 if QUICK else 50_000

    def run():
        sim = Simulator()
        fired = []
        start = time.perf_counter()
        pending = []
        for i in range(rounds):
            # Schedule a far-future timeout, then cancel it and re-arm —
            # the pattern that litters the heap with dead entries.
            event = sim.schedule(1e6 + i, fired.append, i)
            pending.append(event)
            if len(pending) >= 16:
                for stale in pending:
                    sim.cancel(stale)
                pending.clear()
            sim.schedule(0.001 * i, lambda: None)
        sim.run_until(0.001 * rounds + 1.0)
        return time.perf_counter() - start, sim

    elapsed, sim = benchmark.pedantic(run, rounds=1, iterations=1)
    queue = sim._queue
    benchmark.extra_info["scheduled"] = 2 * rounds
    benchmark.extra_info["ops_per_s"] = round(2 * rounds / elapsed)
    benchmark.extra_info["compactions"] = queue.compactions
    print(
        f"\ncancellation-heavy: {2 * rounds / elapsed:,.0f} ops/s, "
        f"{queue.compactions} compactions, "
        f"{queue.dead_entries} dead entries left"
    )
    assert queue.compactions > 0


def test_batched_wave_cost(benchmark):
    """Fixed cost of one batched wave at 1 and 36 rows.

    A wave is one cohort pushed through ``BatchedPhysics.process``.
    This drives a prepared virtualized batched run's physics with fixed
    cohorts between ``begin_drain`` and ``end_drain``, a few waves per
    drain and one drain per 0.25 s tick, and records ``us_per_wave``
    for each size.  No timing assertion: the numbers feed the BENCH
    trajectory (PERFORMANCE.md, "Batched wave cost").
    """
    drains = 40 if QUICK else 200
    waves_per_drain = 5
    base = scenario("virtualized", "bidding", duration_s=60.0, seed=7)
    prepared = prepare_run(replace(base, engine="batched"))
    prepared.start()
    prepared.run_until(20.0)
    physics = prepared.testbed.web.population.physics
    rng = np.random.default_rng(0)

    def run():
        costs = {}
        now = 20.0
        for rows in (1, 36):
            g = rng.integers(0, len(physics.table.names), rows)
            offsets = np.sort(rng.uniform(0.0, DRAIN_INTERVAL_S, rows))
            spent = 0.0
            for _ in range(drains):
                t0 = now + offsets
                physics.begin_drain()
                start = time.perf_counter()
                for _ in range(waves_per_drain):
                    physics.process(t0, g)
                spent += time.perf_counter() - start
                now += DRAIN_INTERVAL_S
                physics.end_drain(now)
            costs[rows] = spent / (drains * waves_per_drain)
        return costs

    costs = benchmark.pedantic(run, rounds=1, iterations=1)
    for rows, seconds in costs.items():
        benchmark.extra_info[f"us_per_wave.{rows}_rows"] = round(
            seconds * 1e6, 1
        )
    print(
        "\nbatched wave: "
        + ", ".join(
            f"{rows} rows {seconds * 1e6:.0f} us"
            for rows, seconds in costs.items()
        )
    )
