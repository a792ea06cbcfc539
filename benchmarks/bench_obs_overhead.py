"""P7 — observation-recorder overhead on the simulation hot path.

Measures what *observation* costs, not what faults or controllers do:
the same scenario runs twice on one seed, unobserved and with
``observe=True``, and the wall-clock delta is the full price of the
annotation stream — the hook taps, the per-tick SLO probe, and the
event-count series.  Observation is physics-neutral by construction
(the recorder never touches scheduler or request state; the obs tests
pin every pre-existing series bit-identical), so the delta is pure
harness overhead.

Two configurations:

* **million-event run** — the acceptance configuration from
  ``bench_engine_throughput.py`` (5000 virtualized browsing clients,
  240 s, >1M events).  No controller is attached, so zero annotations
  flow and the cost is the recorder's idle tick — the number behind
  PERFORMANCE.md's "<= 2% on the million-event run" invariant.
* **busy stream** — the detect-and-evacuate drill, where fault,
  fleet, migration, and control annotations actually stream.
* **traced run** — the million-event configuration again, with
  request-trace sampling at 1% (``trace_sample=0.01``): the cost of
  the sampling gate on every send plus span assembly for the sampled
  set — the number behind PERFORMANCE.md's "<= 5% at 1% sampling"
  invariant.

Each test makes one untimed warm-up run (imports, calibration, cache
fills), then times three alternating plain/variant pairs and asserts on
the ratio of the two sides' fastest runs, the least host-disturbed
ones; all six times are recorded in ``extra_info``.

Quick mode: set ``REPRO_BENCH_QUICK=1`` to shrink horizons so the file
runs in a few seconds (the CI smoke configuration).
"""

import os
import time

from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import (
    detect_and_evacuate_scenario,
    scenario,
)

QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip() in ("1", "true", "yes")

#: Million-event acceptance configuration (shrunk in quick mode).
CLIENTS = 500 if QUICK else 5_000
HORIZON_S = 30.0 if QUICK else 240.0
#: Busy-stream drill horizon.
DRILL_S = 90.0 if QUICK else 240.0
#: Alternating plain/variant pairs timed per test.
PAIRS = 3


def _paired_walls(plain, variant):
    """Warm up on ``plain`` untimed, then time ``PAIRS`` alternating pairs.

    Returns each side's last result and its wall times, in run order.
    """
    plain()
    sides = (plain, variant)
    results = [None, None]
    walls = ([], [])
    for pair in range(PAIRS):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            start = time.perf_counter()
            results[side] = sides[side]()
            walls[side].append(time.perf_counter() - start)
    return results[0], results[1], walls[0], walls[1]


def _record(benchmark, plain_s, variant_s, variant_key):
    """Store both sides' times; return the overhead of the fastest runs."""
    overhead = min(variant_s) / min(plain_s) - 1.0
    benchmark.extra_info["overhead_fraction"] = round(overhead, 4)
    benchmark.extra_info["plain_s"] = [round(wall, 3) for wall in plain_s]
    benchmark.extra_info[variant_key] = [round(wall, 3) for wall in variant_s]
    return overhead


def test_observer_overhead_million_events(benchmark):
    """Idle-recorder cost on the >1M-event acceptance run."""
    sc = scenario(
        "virtualized", "browsing", duration_s=HORIZON_S, seed=7,
        clients=CLIENTS,
    )
    plain, observed, plain_s, observed_s = benchmark.pedantic(
        _paired_walls,
        args=(lambda: run_scenario(sc), lambda: run_scenario(sc, observe=True)),
        rounds=1,
        iterations=1,
    )
    overhead = _record(benchmark, plain_s, observed_s, "observed_s")
    benchmark.extra_info["events_fired"] = observed.events_fired
    benchmark.extra_info["annotations"] = len(observed.annotations)
    print(
        f"\nobserver on {observed.events_fired:,} events: "
        f"{min(plain_s):.2f}s plain -> {min(observed_s):.2f}s observed "
        f"({overhead:+.1%}, best of {PAIRS} alternating pairs, "
        f"{len(observed.annotations)} annotations)"
    )
    if not QUICK:
        assert observed.events_fired > 1_000_000
    assert plain.requests_completed == observed.requests_completed
    # The documented invariant is <= 2%; the wall-clock difference of
    # two runs is noisy (CI machines especially), so the hard bound is
    # generous — it exists to catch the recorder accidentally landing
    # on the per-request hot path, not to referee 1% noise.
    assert overhead < 0.15


def test_tracing_overhead_million_events(benchmark):
    """Request-tracing cost at 1% sampling on the acceptance run."""
    from dataclasses import replace

    sc = scenario(
        "virtualized", "browsing", duration_s=HORIZON_S, seed=7,
        clients=CLIENTS,
    )
    traced_sc = replace(sc, trace_sample=0.01)
    plain, traced, plain_s, traced_s = benchmark.pedantic(
        _paired_walls,
        args=(lambda: run_scenario(sc), lambda: run_scenario(traced_sc)),
        rounds=1,
        iterations=1,
    )
    overhead = _record(benchmark, plain_s, traced_s, "traced_s")
    benchmark.extra_info["events_fired"] = traced.events_fired
    benchmark.extra_info["requests_traced"] = len(traced.request_traces)
    print(
        f"\ntracing 1% of {traced.requests_completed:,} requests "
        f"({len(traced.request_traces)} span trees): "
        f"{min(plain_s):.2f}s plain -> {min(traced_s):.2f}s traced "
        f"({overhead:+.1%}, best of {PAIRS} alternating pairs)"
    )
    # Tracing never perturbs the physics — same seed, same requests.
    assert plain.requests_completed == traced.requests_completed
    if not QUICK:
        assert traced.events_fired > 1_000_000
        # Documented invariant: <= 5% at 1% sampling; generous hard
        # bound for wall-clock noise, same rationale as above.
        assert overhead < 0.10


def test_observer_overhead_busy_stream(benchmark):
    """Recorder cost when annotations actually flow (crash drill)."""
    sc = detect_and_evacuate_scenario(duration_s=DRILL_S, clients=400)

    _, observed, plain_s, observed_s = benchmark.pedantic(
        _paired_walls,
        args=(lambda: run_scenario(sc), lambda: run_scenario(sc, observe=True)),
        rounds=1,
        iterations=1,
    )
    overhead = _record(benchmark, plain_s, observed_s, "observed_s")
    benchmark.extra_info["annotations"] = len(observed.annotations)
    print(
        f"\nbusy stream ({len(observed.annotations)} annotations): "
        f"{min(plain_s):.2f}s plain -> {min(observed_s):.2f}s observed "
        f"({overhead:+.1%}, best of {PAIRS} alternating pairs)"
    )
    assert len(observed.annotations) > 0
    assert overhead < 0.15
