"""P2 — suite worker start and warm-up overhead.

Multi-worker sweeps pay a fixed cost per worker: starting the process,
environment calibration and the transition matrices'
stationary-distribution power iterations.  Before the warm-up work
landed, each worker re-derived all of it lazily inside its first run
(~1.5 s per worker serialized into the first wave of results); now
``warm_worker`` runs it in the pool initializer and the calibration /
canonical-matrix caches keep it amortized across every run a worker
executes.  Workers are forked from a server that has already imported
``repro`` (:mod:`repro.processes`), so the import is paid once per
interpreter, not once per worker.

The bench measures the same 4-cell grid inline (``workers=1``, warm
caches) and on a 2-worker pool, and records both wall clocks plus the
per-worker overhead estimate into ``extra_info`` so the BENCH
trajectory catches worker-start regressions.

Quick mode: ``REPRO_BENCH_QUICK=1`` shrinks the horizon (CI smoke).
"""

import os
import time

from repro.experiments.suite import paper_matrix_suite, run_suite, warm_worker

QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip() in ("1", "true", "yes")

HORIZON_S = 20.0 if QUICK else 60.0


def test_suite_spawn_overhead(benchmark):
    runs = paper_matrix_suite(duration_s=HORIZON_S, seed=5)

    def sweep():
        # Inline first: warms this process's caches so the inline wall
        # clock is pure run time, the yardstick the pooled wall clock
        # is compared against.
        t0 = time.perf_counter()
        inline = run_suite(runs, workers=1)
        inline_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        pooled = run_suite(runs, workers=2)
        pooled_s = time.perf_counter() - t0
        return inline, inline_s, pooled, pooled_s

    inline, inline_s, pooled, pooled_s = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    assert set(inline.summaries) == set(pooled.summaries)
    # Traces are worker-count independent; summaries must agree exactly
    # once their (legitimately different) wall-clock fields are dropped.
    def simulated(summary):
        return {
            k: v
            for k, v in summary.to_dict().items()
            if "wall" not in k and not k.endswith("_s_wall")
        }

    for run_id, summary in inline.summaries.items():
        assert simulated(summary) == simulated(pooled.summaries[run_id])
    # Perfect 2-worker scaling would halve the wall clock; everything
    # above inline/2 is spawn + warm-up + IPC overhead.
    overhead_s = pooled_s - inline_s / 2
    benchmark.extra_info["runs"] = len(runs)
    benchmark.extra_info["inline_wall_s"] = round(inline_s, 3)
    benchmark.extra_info["pooled_wall_s"] = round(pooled_s, 3)
    benchmark.extra_info["spawn_overhead_s"] = round(overhead_s, 3)
    benchmark.extra_info["per_worker_overhead_s"] = round(overhead_s / 2, 3)
    print(
        f"\n{len(runs)} runs: inline {inline_s:.2f}s, 2-worker pool "
        f"{pooled_s:.2f}s -> spawn/warm-up overhead {overhead_s:.2f}s "
        f"({overhead_s / 2:.2f}s per worker)"
    )


def test_warm_worker_is_idempotent_and_seeds_caches(benchmark):
    """``warm_worker`` draws no randomness and is safe to call twice."""

    def warm():
        t0 = time.perf_counter()
        warm_worker()
        first_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_worker()
        second_s = time.perf_counter() - t0
        return first_s, second_s

    first_s, second_s = benchmark.pedantic(warm, rounds=1, iterations=1)
    benchmark.extra_info["first_call_s"] = round(first_s, 4)
    benchmark.extra_info["second_call_s"] = round(second_s, 4)
    # Second call must hit the caches (no re-calibration).
    assert second_s <= first_s
    print(
        f"\nwarm_worker: {first_s * 1000:.1f}ms cold, "
        f"{second_s * 1000:.1f}ms warm"
    )
