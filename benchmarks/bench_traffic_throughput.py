"""P2 — open-loop traffic subsystem throughput.

Records arrivals/s through three layers:

* pure generation — how fast each arrival process emits timestamps
  (the batched-sampling fast path, no simulator), and how fast a
  flash-crowd envelope thins a Poisson base one arrival at a time
  against a whole drain tick at a time,
* end-to-end open-loop — a high-rate Poisson stream through the full
  virtualized deployment with monitoring attached,
* the flash-crowd scenario — the overload configuration, with the
  shed fraction recorded so the BENCH trajectory tracks both the
  intensity and the shedding behaviour.

Quick mode: set ``REPRO_BENCH_QUICK=1`` to shrink horizons so the file
runs in a few seconds (the CI smoke configuration).
"""

import os
import time

import numpy as np

from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import flash_crowd_scenario, open_loop_scenario
from repro.sim.batched import DRAIN_INTERVAL_S
from repro.sim.random import RandomStreams
from repro.traffic.arrivals import (
    BModelProcess,
    MMPPProcess,
    ModulatedProcess,
    PoissonProcess,
)
from repro.traffic.shapes import FlashCrowdShape

QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip() in ("1", "true", "yes")

#: Arrivals drawn per generator microbenchmark.
GENERATOR_ARRIVALS = 100_000 if QUICK else 1_000_000
#: Thinned-generator horizon and base rate: the 1000-client flash
#: crowd's peak visit rate (1000 / 7 s think / 5 requests x 20).
THINNED_HORIZON_S = 60.0 if QUICK else 240.0
THINNED_BASE_RPS = 571.0
#: End-to-end horizon (simulated seconds) and offered rate.
HORIZON_S = 30.0 if QUICK else 120.0
OFFERED_RPS = 1_000.0 if QUICK else 4_000.0


def _generator(kind: str):
    rng = RandomStreams(seed=17).stream(f"bench.{kind}")
    if kind == "poisson":
        return PoissonProcess(1000.0, rng)
    if kind == "mmpp":
        return MMPPProcess((500.0, 2000.0), (4.0, 1.0), rng)
    return BModelProcess(1000.0, rng, bias=0.75)


def test_generator_throughput(benchmark):
    """Pure arrival generation: timestamps/s per process family."""

    def run():
        start = time.perf_counter()
        rates = {}
        for kind in ("poisson", "mmpp", "bmodel"):
            process = _generator(kind)
            t0 = time.perf_counter()
            for _ in range(GENERATOR_ARRIVALS):
                process.next_arrival()
            rates[kind] = GENERATOR_ARRIVALS / (time.perf_counter() - t0)
        return rates, time.perf_counter() - start

    rates, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    for kind, rate in rates.items():
        benchmark.extra_info[f"{kind}_arrivals_per_s"] = round(rate)
    print(
        "\ngenerator throughput: "
        + ", ".join(f"{k}={v:,.0f}/s" for k, v in rates.items())
    )
    # The batched fast path should clear 100k arrivals/s with margin.
    assert min(rates.values()) > 100_000


def _thinned_flash_crowd() -> ModulatedProcess:
    """A flash-crowd envelope over Poisson, sharing one stream."""
    horizon = THINNED_HORIZON_S
    shape = FlashCrowdShape(
        peak_time_s=0.40 * horizon,
        magnitude=20.0,
        rise_s=0.08 * horizon,
        decay_s=0.25 * horizon,
    )
    rng = RandomStreams(seed=42).stream("traffic.arrivals")
    return ModulatedProcess(PoissonProcess(THINNED_BASE_RPS, rng), shape, rng)


def test_thinned_generator_throughput(benchmark):
    """Thinned arrivals/s: one at a time vs a drain tick at a time."""
    edges = np.arange(1, int(THINNED_HORIZON_S / DRAIN_INTERVAL_S) + 1)
    edges = edges * DRAIN_INTERVAL_S

    def run():
        process = _thinned_flash_crowd()
        start = time.perf_counter()
        one_by_one = []
        t = process.next_arrival()
        while t is not None and t <= THINNED_HORIZON_S:
            one_by_one.append(t)
            t = process.next_arrival()
        scalar_s = time.perf_counter() - start
        process = _thinned_flash_crowd()
        start = time.perf_counter()
        ticks = [process.take_through(edge) for edge in edges]
        tick_s = time.perf_counter() - start
        return np.asarray(one_by_one), np.concatenate(ticks), scalar_s, tick_s

    one_by_one, per_tick, scalar_s, tick_s = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    count = per_tick.size
    benchmark.extra_info["arrivals"] = count
    benchmark.extra_info["next_arrival_per_s"] = round(count / scalar_s)
    benchmark.extra_info["take_through_per_s"] = round(count / tick_s)
    print(
        f"\nthinned flash crowd ({count:,} arrivals): "
        f"next_arrival {count / scalar_s:,.0f}/s, "
        f"take_through per {DRAIN_INTERVAL_S} s tick {count / tick_s:,.0f}/s"
    )
    np.testing.assert_array_equal(per_tick, one_by_one)


def test_open_loop_end_to_end_throughput(benchmark):
    """High-rate Poisson stream through the full deployment."""
    spec = open_loop_scenario(
        "virtualized",
        "browsing",
        rate_rps=OFFERED_RPS,
        duration_s=HORIZON_S,
        seed=7,
    )
    # Warm the calibration cache so the measurement covers the run.
    run_scenario(
        open_loop_scenario(
            "virtualized", "browsing", rate_rps=50.0, duration_s=4.0
        )
    )

    def run():
        start = time.perf_counter()
        result = run_scenario(spec)
        return result, time.perf_counter() - start

    result, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    report = result.traffic_report
    events = result.deployment.sim.events_fired
    benchmark.extra_info["offered_arrivals"] = report["offered"]
    benchmark.extra_info["arrivals_per_wall_s"] = round(
        report["offered"] / elapsed
    )
    benchmark.extra_info["events_per_wall_s"] = round(events / elapsed)
    benchmark.extra_info["sim_arrival_rate_rps"] = round(
        report["offered"] / HORIZON_S
    )
    print(
        f"\n{report['offered']} arrivals ({events} events) in "
        f"{elapsed:.3f}s -> {report['offered'] / elapsed:,.0f} "
        f"arrivals/s wall, {events / elapsed:,.0f} events/s"
    )
    assert report["offered"] / HORIZON_S > 0.9 * OFFERED_RPS


def test_flash_crowd_scenario_throughput(benchmark):
    """The acceptance scenario: surge intensity plus shedding report."""
    spec = flash_crowd_scenario(
        "virtualized",
        "browsing",
        duration_s=HORIZON_S,
        session_budget=2000 if not QUICK else 400,
        seed=7,
    )

    def run():
        start = time.perf_counter()
        result = run_scenario(spec)
        return result, time.perf_counter() - start

    result, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    report = result.traffic_report
    closed_rate = spec.mix.clients / spec.mix.think_time_s
    offered_request_rate = (
        report["offered"] * report["requests_per_session"] / HORIZON_S
    )
    benchmark.extra_info["offered_request_rate_rps"] = round(
        offered_request_rate
    )
    benchmark.extra_info["vs_closed_loop"] = round(
        offered_request_rate / closed_rate, 2
    )
    benchmark.extra_info["shed_fraction"] = round(report["shed_fraction"], 4)
    benchmark.extra_info["trace_sha256"] = result.arrival_trace.sha256()[:16]
    print(
        f"\nflash crowd: {offered_request_rate:,.0f} req/s offered "
        f"({offered_request_rate / closed_rate:.1f}x closed loop), "
        f"shed {report['shed_fraction']:.1%}, wall {elapsed:.3f}s"
    )
    assert offered_request_rate >= 5.0 * closed_rate
    assert report["shed"] > 0
