"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload web_million --seed 7 \\
        --seconds 10 --trace 0

``--trace 0`` repeats whole passes of the workload until ``--seconds``
have gone by and prints the end-to-end metrics.  ``--trace 1`` instead
alternates a plain pass with a traced one, in which every layer is
timed from outside by wrapping the calls that cross into it, and
prints the per-layer metrics, the tracing overhead and whether the
layer self times tile the simulate wall.  Either way the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The module is importable and spawn-safe: shard workers re-import it
as their main module, so everything with side effects sits behind the
``__main__`` guard, and the repository's ``src`` directory goes onto
``sys.path``, which spawn hands on to every worker.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
for _path in (str(SRC), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: Set-ups timed on their own per run, beside each pass's set-up: at
#: least this many, and more until ``SETUP_SECONDS`` have gone by, so
#: that a 2 ms set-up is sampled as finely as a 60 ms one.
SETUP_REPEATS = 7
SETUP_SECONDS = 0.5
#: Extra runs of the alternative variant after the passes: a 1-2 s
#: batched run, or a 2 s sharded run whose two workers each see their
#: own neighbours, reads host noise that a 10 s pass averages out.
ALT_REPEATS = 2
#: Largest gap between the simulate wall and the traced layer account,
#: as a share of the wall, before the account counts as not tiling it.
TILING_TOLERANCE = 0.02

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_rps.ref": "1/s",
    "sim_rps.alt": "1/s",
    "peak_rss_mb": "MB",
    "variant_gap.p90": "x",
    "variant_gap.requests": "x",
    "paper_err.ref": "x",
    "paper_err.alt": "x",
}

PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.loop_self_s": "s",
    "rubis.batched.drains": "count",
    "rubis.batched.drain_self_s": "s",
    "rubis.batched.waves": "count",
    "rubis.batched.process_s": "s",
    "rubis.batched.rows_per_wave": "rows",
    "sim.batched.lindley_calls": "count",
    "monitoring.ticks": "count",
    "monitoring.tick_s": "s",
    "monitoring.metric_values": "count",
    "virt.epochs": "count",
    "virt.allocate_s": "s",
    "virt.epoch_self_s": "s",
    "virt.housekeeping_s": "s",
    "virt.epoch_changed_ratio": "ratio",
    "control.tick_s": "s",
    "control.actions": "count",
    "faults.tick_s": "s",
    "faults.injected": "count",
    "obs.tick_s": "s",
    "obs.spans": "count",
    "traffic.offered": "count",
    "traffic.admitted_ratio": "ratio",
    "traffic.retries": "count",
    "placement.fleet_tick_s": "s",
    "placement.place_s": "s",
    "placement.migrations": "count",
    "shard.advance_s": "s",
    "shard.spawn_s": "s",
    "shard.wait_s": "s",
    "shard.windows": "count",
    "experiments.build_s": "s",
    "analysis.compare_s": "s",
    "analysis.paper_checks_failed": "count",
    "trace.simulate_s": "s",
    "trace.untiled_share": "ratio",
    "trace.bookkeeping_s": "s",
    "trace.overhead_s": "s",
}


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def warm_up(workload, seed: int) -> None:
    """Fill the calibration and stationary caches, then run a tiny pass.

    The tiny pass goes through every code path the timed passes take
    (both variants, the registry, tracing, spawn), so lazy imports and
    first-call set-up are paid before any timing starts.
    """
    from repro.experiments.suite import warm_worker
    from perfbench.workloads import TINY

    warm_worker()
    workload.run_pass(seed, TINY)


def end_to_end(workload, passes, extras, setup_samples, speed) -> dict:
    """The end-to-end metrics; host times at the host's quiet speed."""
    from perfbench.workloads import factor

    ref, alt = workload.variants
    setups = [speed.quiet(spans, around) for spans, around in setup_samples]
    setups += [speed.quiet(p.setup_spans, p.span) for p in passes]

    def per_variant(name, read, runs=passes):
        return _median(
            read(p.variants[name], p) for p in runs if name in p.variants
        )

    def run_s(variant, p):
        if variant.run_slowdown:
            raw = sum(end - start for start, end in variant.run_spans)
            return raw / variant.run_slowdown
        return speed.quiet(variant.run_spans, p.span)

    def rps(variant, p):
        return variant.requests / run_s(variant, p)

    def wall(p):
        """The pass at quiet speed, each variant's run at its own speed.

        The coordinator idles while the shard workers simulate, so the
        pass's own samples do not cover their runs: scaling the whole
        pass by them would time the shards at the inline run's speed.
        """
        variants = p.variants.values()
        spans = p.setup_spans + [s for v in variants for s in v.run_spans]
        rest = p.wall_s - sum(end - start for start, end in spans)
        return (
            speed.quiet(p.setup_spans, p.span)
            + sum(run_s(v, p) for v in variants)
            + rest * speed.quiet([p.span], p.span) / p.wall_s
        )

    def paper_err(variant, p):
        return _median(variant.paper_factors)

    # The gaps are deterministic, so the first pass with both suffices.
    both = next(
        (p.variants for p in passes if ref in p.variants and alt in p.variants),
        None,
    )

    def gap(read):
        return factor(read(both[ref]), read(both[alt])) if both else None

    return {
        "setup_s": _median(setups),
        "wall_s": _median(wall(p) for p in passes),
        "sim_rps.ref": per_variant(ref, rps),
        "sim_rps.alt": per_variant(alt, rps, passes + extras),
        "peak_rss_mb": peak_rss_mb(),
        "variant_gap.p90": gap(lambda v: v.p90_s),
        "variant_gap.requests": gap(lambda v: v.requests),
        "paper_err.ref": per_variant(ref, paper_err),
        "paper_err.alt": per_variant(alt, paper_err),
    }


def per_layer(account, traced, overhead_s) -> dict:
    """The traced pass's layer account as named metrics."""
    facts = {}
    for variant in traced.variants.values():
        for key, value in variant.facts.items():
            facts[key] = facts.get(key, 0) + value
    calls = account.calls
    own = account.self_s
    simulate = sum(v.simulate_s for v in traced.variants.values())
    simulate += account.inclusive_s.get("shard.advance", 0.0)
    attempts = facts.get("admitted", 0) + facts.get("shed", 0)
    waves = calls["rubis.batched.process"]
    return {
        "sim.events": facts.get("events", 0),
        "sim.loop_self_s": own["sim.loop"],
        "rubis.batched.drains": calls["rubis.batched.drain"],
        "rubis.batched.drain_self_s": own["rubis.batched.drain"],
        "rubis.batched.waves": waves,
        "rubis.batched.process_s": own["rubis.batched.process"],
        "rubis.batched.rows_per_wave": account.rows / waves if waves else 0.0,
        "sim.batched.lindley_calls": account.lindley_calls,
        "monitoring.ticks": calls["monitoring.tick"],
        "monitoring.tick_s": own["monitoring.tick"],
        "monitoring.metric_values": facts.get("metric_values", 0),
        "virt.epochs": calls["virt.epoch"],
        "virt.allocate_s": own["virt.allocate"],
        "virt.epoch_self_s": own["virt.epoch"],
        "virt.housekeeping_s": own["virt.housekeeping"],
        "virt.epoch_changed_ratio": (
            account.allocate_changed / calls["virt.allocate"]
            if calls["virt.allocate"] else 0.0
        ),
        "control.tick_s": own["control.tick"],
        "control.actions": facts.get("actions", 0),
        "faults.tick_s": own["faults.tick"],
        "faults.injected": facts.get("injected", 0),
        "obs.tick_s": own["obs.tick"],
        "obs.spans": facts.get("spans", 0),
        "traffic.offered": facts.get("offered", 0),
        "traffic.admitted_ratio": (
            facts["admitted"] / attempts if attempts else 0.0
        ),
        "traffic.retries": facts.get("retried", 0),
        "placement.fleet_tick_s": own["placement.fleet_tick"],
        "placement.place_s": account.inclusive_s["placement.place"],
        "placement.migrations": facts.get("migrations", 0),
        "shard.advance_s": account.inclusive_s["shard.advance"],
        "shard.spawn_s": sum(v.spawn_s for v in traced.variants.values()),
        "shard.wait_s": account.inclusive_s["shard.wait"],
        "shard.windows": account.windows,
        "experiments.build_s": account.inclusive_s["experiments.build"],
        "analysis.compare_s": traced.analysis_s,
        "analysis.paper_checks_failed": traced.checks_failed,
        "trace.simulate_s": simulate,
        "trace.untiled_share": (
            abs(simulate - account.tiled_s) / simulate if simulate else 0.0
        ),
        "trace.bookkeeping_s": account.bookkeeping_s,
        "trace.overhead_s": overhead_s,
    }


def _fingerprint_drift(passes) -> int:
    """Variant runs whose fingerprint differs from the variant's first."""
    first = {}
    drift = 0
    for p in passes:
        for name, variant in p.variants.items():
            expected = first.setdefault(name, variant.fingerprint)
            if variant.fingerprint != expected:
                drift += 1
    return drift


def measure(workload, seed: int, seconds: float, trace: bool, size: str):
    """Run the workload for ``seconds``; return ``(report, errors)``."""
    from perfbench.hostspeed import HostSpeed
    from perfbench.layers import LayerAccount

    setup_samples = []
    plain, traced, extras = [], [], []
    with HostSpeed() as speed:
        warm_up(workload, seed)
        if workload.setup_once is not None and not trace:
            started = time.perf_counter()
            reps = []
            while (
                len(reps) < SETUP_REPEATS
                or time.perf_counter() - started < SETUP_SECONDS
            ):
                reps.append(workload.setup_once(seed, size))
            around = (started, time.perf_counter())
            setup_samples = [(spans, around) for spans in reps]
        started = time.perf_counter()
        while not plain or time.perf_counter() - started < seconds:
            gc.collect()
            plain.append(workload.run_pass(seed, size))
            if trace:
                gc.collect()
                with LayerAccount() as account:
                    traced.append((workload.run_pass(seed, size), account))
        if workload.run_variant is not None and not trace:
            alt = workload.variants[1]
            for _ in range(ALT_REPEATS):
                gc.collect()
                extras.append(workload.run_variant(seed, size, alt))
    passes = plain + [p for p, _ in traced]
    for index, p in enumerate(passes):
        print(
            f"perfbench: pass {index}{' traced' if index >= len(plain) else ''}"
            f": wall {p.wall_s:.3f} s, {speed.quiet([p.span], p.span):.3f} s "
            "at the reference speed",
            file=sys.stderr,
        )
    errors = [e for p in passes + extras for e in p.errors]
    drift = _fingerprint_drift(passes + extras)
    if drift:
        errors.append(f"{drift} variant run(s) changed fingerprint")
    if trace:
        overhead = _median(
            speed.quiet([p.span], p.span) for p, _ in traced
        ) - _median(speed.quiet([p.span], p.span) for p in plain)
        layers = [per_layer(a, p, overhead) for p, a in traced]
        metrics = {
            name: _median(layer[name] for layer in layers)
            for name in PER_LAYER_UNITS
        }
        if metrics["trace.untiled_share"] > TILING_TOLERANCE:
            errors.append(
                "layer account does not tile the simulate wall: "
                f"{metrics['trace.untiled_share']:.4f} untiled"
            )
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(workload, passes, extras, setup_samples, speed)
        units = END_TO_END_UNITS
    report = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes + extras),
        "failed": sum(len(p.errors) for p in passes + extras) + drift,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
    return report, errors


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    The coordinator joins its shard workers, but the spawn context also
    starts multiprocessing's resource tracker, which would otherwise
    outlive this process.  Closing its pipe stops it; ``_stop`` then
    waits for it.

    Before that, the finalizers multiprocessing would run at exit run
    now.  They unregister the shard queues' semaphores, some of which a
    queue's feeder thread may still hold; freed later, such a semaphore
    would unregister itself and so start a fresh tracker at shutdown.
    """
    import multiprocessing
    from multiprocessing import resource_tracker, util

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    gc.collect()
    util._run_finalizers(0)
    resource_tracker._resource_tracker._stop()


def parse_args(argv):
    from perfbench.workloads import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=None,
        help="input seed (default: the workload's own, see NOTE.md)",
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=SIZES, default=SIZES[0],
        help="'tiny' shrinks every workload for smoke tests",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(
            f"perfbench: no simulator sources at {SRC}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    try:
        report, errors = measure(
            workload, seed, args.seconds, bool(args.trace), args.size
        )
    finally:
        stop_children()
    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)
    missing = [
        name for name, metric in report["metrics"].items()
        if metric["value"] is None
    ]
    for name, metric in report["metrics"].items():
        print(f"{args.workload:<18s} {name:<30s} {metric['value']!r} "
              f"{metric['unit']}")
    print(json.dumps(report))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
