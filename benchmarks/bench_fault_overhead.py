"""P6 — fault-scheduler overhead on the simulation hot path.

Measures what fault *machinery* costs, not what faults do:

* **schedule resolution cost** — microbenchmark of
  ``FaultSchedule.resolve`` (pure SHA-256 arithmetic, no RNG);
* **idle scheduler cost** — the full fault-controller lifecycle
  (per-tick sampling, event bookkeeping) isolated by running the same
  scenario twice: fault-free, and with a crash scheduled *beyond the
  horizon*.  The injection never fires, so the two runs simulate
  identical physics and the wall-clock difference is pure scheduler
  overhead — the number behind PERFORMANCE.md's "<= 2% when no faults
  fire" invariant.  After one untimed warm-up run, three alternating
  clean/armed pairs are timed and the two sides' fastest runs are
  compared.  (A run with no ``faults`` field at all constructs no
  controller and is bit-identical to the pre-fault baseline; the
  trace-fingerprint tests pin that stronger invariant.)

Quick mode: set ``REPRO_BENCH_QUICK=1`` to shrink horizons so the file
runs in a few seconds (the CI smoke configuration).
"""

import os
import time

from dataclasses import replace

from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import consolidated_scenario
from repro.faults.spec import FaultSchedule, FaultSpec

QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip() in ("1", "true", "yes")

#: Schedule-resolution microbenchmark iterations.
RESOLVES = 2_000 if QUICK else 20_000
#: Scenario for the idle-scheduler isolation.
DURATION_S = 60.0 if QUICK else 240.0
CLIENTS = 200 if QUICK else 400
#: Timed clean/armed pairs, alternating which side runs first.
PAIRS = 3


def test_schedule_resolution_cost(benchmark):
    """Microseconds per ``FaultSchedule.resolve`` (SHA-256 jitter)."""
    schedule = FaultSchedule(
        tuple(
            FaultSpec(
                kind=kind, at_s=30.0 + 10 * i, duration_s=20.0, jitter_s=5.0
            )
            for i, kind in enumerate(
                ("crash", "cap_theft", "dom0_saturate", "bot_flood")
            )
        )
    )

    def run():
        start = time.perf_counter()
        for seed in range(RESOLVES):
            schedule.resolve(seed)
        return (time.perf_counter() - start) / RESOLVES

    cost = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["us_per_resolve"] = round(cost * 1e6, 1)
    print(f"\nschedule resolution: {cost * 1e6:,.1f}us per 4-fault resolve")
    # Resolution happens once per run; it just has to be negligible.
    assert cost < 0.005


def test_idle_fault_scheduler_cost(benchmark):
    """Wall-clock cost of an armed-but-idle fault scheduler."""

    def run():
        base = consolidated_scenario(
            "browsing", duration_s=DURATION_S, clients=CLIENTS
        )
        # The crash is scheduled 10 horizons out: the controller ticks,
        # the injection never fires, physics stay identical.
        armed = replace(
            base,
            faults=FaultSchedule(
                (FaultSpec(kind="crash", at_s=10.0 * DURATION_S),)
            ),
        )
        # Untimed warm-up: the first run pays imports, calibration and
        # cache fills that would otherwise land on the clean side.
        run_scenario(base)
        walls = {"clean": [], "armed": []}
        for pair in range(PAIRS):
            order = ("clean", "armed") if pair % 2 == 0 else ("armed", "clean")
            for side in order:
                start = time.perf_counter()
                run_scenario(base if side == "clean" else armed)
                walls[side].append(time.perf_counter() - start)
        return walls["clean"], walls["armed"]

    clean, armed = benchmark.pedantic(run, rounds=1, iterations=1)
    # Each side's fastest run is its least host-disturbed one.
    overhead = min(armed) / min(clean) - 1.0
    benchmark.extra_info["overhead_fraction"] = round(overhead, 4)
    benchmark.extra_info["clean_s"] = [round(wall, 3) for wall in clean]
    benchmark.extra_info["armed_s"] = [round(wall, 3) for wall in armed]
    print(
        f"\nidle fault scheduler: {min(clean):.2f}s clean -> "
        f"{min(armed):.2f}s armed ({overhead:+.1%}, best of {PAIRS} "
        "alternating pairs)"
    )
    # The documented invariant is <= 2%; the wall-clock difference of
    # short runs is noisy (CI machines especially), so the hard bound
    # is generous — it exists to catch a scheduler accidentally
    # landing on the per-request hot path, not to referee 1% noise.
    assert overhead < 0.15
