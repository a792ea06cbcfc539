"""Command-line interface.

Four subcommands cover the library's headline workflows::

    python -m repro run --environment virtualized --composition browsing \
        --duration 120 --export-csv traces.csv
    python -m repro run --traffic poisson --rate 500 --duration 120
    python -m repro run --traffic trace:access.log --session-budget 2000
    python -m repro run --list
    python -m repro run --scenario consolidated_web_batch
    python -m repro run --scenario autoscaled_flash_crowd --controller pid
    python -m repro sweep --grid paper --workers 4
    python -m repro sweep --controllers static,threshold --table
    python -m repro compare --duration 240
    python -m repro table1

``run`` executes one scenario and prints the characterization report;
``--traffic`` swaps the closed-loop client population for an open-loop
arrival stream (``poisson``, ``mmpp``, ``bmodel`` or ``trace:<path>``
where the path may be CSV, NPZ or a Common/Combined Log Format access
log), ``--scale`` stress-multiplies horizon and clients, ``--columnar``
collects the full 518-metric registry into per-metric arrays
(exportable with ``--export-columnar``), ``--list`` prints the named
scenario catalogue and ``--scenario`` runs a catalogue entry (including
the consolidated multi-tenant runs and the autoscaled elasticity
experiments), ``--controller`` attaches an elastic-control policy
that resizes the web VMs mid-run, and ``--faults`` injects a
deterministic fault schedule (server crash, degraded NIC/disk,
cap theft, dom0 saturation, traffic anomalies).  ``sweep`` executes a
whole scenario grid across worker processes with deterministic
per-run seeds; ``--controllers`` grids over scaling policies,
``--faults`` grids over fault schedules, ``--table`` prints the
aggregate ratio table over the merged results and ``--diagnose``
turns a faulted sweep into a chaos sweep that prints the policy
ranking table.  ``diagnose`` runs one scenario observed and prints
the run manifest, detected SLO incidents and ranked root-cause
attribution (``repro run --diagnose`` appends the same report to a
normal run).  ``trace`` runs one scenario with deterministic request
sampling (``repro run --trace-sample`` works too) and prints the
latency-anatomy table, the p99-vs-median tail attribution and the
slowest sampled span trees; ``--export-chrome-trace`` writes
Chrome-``trace_event`` JSON for chrome://tracing / Perfetto.
``compare`` reproduces the paper's Section 4.1/4.2
comparison (the four ratio tables plus the Q1-Q5 findings);
``table1`` prints the metric catalogue sample.

``run``, ``diagnose`` and ``trace`` share one set of scenario flags,
resolved into a :class:`~repro.experiments.scenarios.Scenario` by one
function, so a flag means the same on all three.  A flag a path would
silently drop is rejected instead, found by comparing the parsed
values with the parser's own defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional, Sequence

from repro.analysis.characterize import characterize_trace_set
from repro.analysis.report import (
    render_characterization_report,
    render_ratio_table,
)
from repro.config import ExperimentConfig
from repro.control.spec import CONTROLLER_KINDS
from repro.errors import ConfigurationError
from repro.experiments.compare import compare_with_paper, qualitative_checks
from repro.experiments.runner import run_scenario, run_scenario_cached
from repro.experiments.scenarios import (
    CLASSIC_ENGINE,
    ENGINES,
    ENVIRONMENTS,
    VIRTUALIZED,
    Scenario,
    scenario,
    scenario_catalog,
    with_controller,
    with_engine,
)
from repro.experiments.suite import (
    TENANT_MIXES,
    paper_matrix_suite,
    render_suite_ratio_table,
    run_suite,
    suite_grid,
)
from repro.experiments.tables import render_table1
from repro.faults.spec import FAULT_KINDS
from repro.monitoring.export import (
    write_annotations_jsonl,
    write_columnar_csv,
    write_columnar_npz,
    write_request_traces_chrome_json,
    write_request_traces_jsonl,
    write_trace_csv,
    write_trace_json,
)
from repro.placement.spec import PLACEMENT_POLICIES, validate_placement_policy


def _scenario_flags(
    sample_flags: Sequence[str] = ("--trace-sample",),
    sample_default: float = 0.0,
) -> argparse.ArgumentParser:
    """The flags that describe one run, shared by run, diagnose and trace.

    ``trace`` samples by default and also spells its rate ``--sample``.
    """
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="run a catalogue entry by name (see `repro run --list`); "
             "composes with --duration/--seed/--clients/--controller/"
             "--engine/--trace-sample and rejects the other scenario "
             "flags",
    )
    flags.add_argument(
        "--environment", default=VIRTUALIZED, choices=ENVIRONMENTS,
    )
    flags.add_argument("--composition", default="browsing")
    flags.add_argument("--duration", type=float, default=None,
                       help="simulated seconds (default 240)")
    flags.add_argument("--seed", type=int, default=42)
    flags.add_argument("--clients", type=int, default=None)
    flags.add_argument(
        "--scale", type=float, default=1.0,
        help="stress multiplier on horizon and clients (default 1)",
    )
    flags.add_argument(
        "--traffic", default="closed", metavar="KIND",
        help="traffic driver: closed (default), poisson, mmpp, bmodel "
             "or trace:<path>",
    )
    flags.add_argument(
        "--rate", type=float, default=None, metavar="RPS",
        help="open-loop base request rate (default: clients/think_time)",
    )
    flags.add_argument(
        "--session-budget", type=int, default=None, metavar="N",
        help="open-loop concurrent-session cap (arrivals beyond it are "
             "shed and reported)",
    )
    flags.add_argument(
        "--engine", default=CLASSIC_ENGINE, choices=ENGINES,
        help="request engine: 'classic' (event-per-hop, the bit-stable "
             "default) or 'batched' (array-native cohort engine; "
             "equivalent in distribution, not bitwise — see "
             "PERFORMANCE.md)",
    )
    flags.add_argument(
        "--controller", default="none", choices=("none",) + CONTROLLER_KINDS,
        help="elastic-control policy resizing the web VMs mid-run "
             "(static = apply the initial sizing, never act); composes "
             "with --scenario by swapping the catalogue entry's policy",
    )
    flags.add_argument(
        "--servers", type=int, default=1, metavar="N",
        help="physical servers in the fleet (>1 places VMs across "
             "servers through the placement engine)",
    )
    flags.add_argument(
        "--placement", default=None, choices=PLACEMENT_POLICIES,
        help="placement policy assigning VMs to servers "
             "(default: firstfit; only meaningful with --servers > 1)",
    )
    flags.add_argument(
        "--faults", default=None, metavar="SCHEDULE",
        help="inject faults mid-run: '+'-joined "
             "kind@at[:duration[:magnitude]][/target] entries, e.g. "
             "crash@60 or cap_theft@40:30:0.1/web-vm "
             f"(kinds: {', '.join(FAULT_KINDS)})",
    )
    flags.add_argument(
        *sample_flags, dest="trace_sample", type=float,
        default=sample_default, metavar="RATE",
        help="sample this fraction of requests into span trees "
             f"(deterministic, RNG-free; default {sample_default:g})",
    )
    return flags


#: The scenario flags that compose with ``--scenario``.
_COMPOSE_WITH_SCENARIO = (
    "scenario", "duration", "seed", "clients", "controller", "engine",
    "trace_sample",
)
#: The only ``run`` flags the ``--fleet`` path reads.
_FLEET_READS = ("fleet", "shards", "quick_fleet", "seed", "export_json")
#: The ``sweep`` flags a ``--grid`` preset reads.
_PRESET_READS = (
    "grid", "workers", "duration", "seed", "clients", "engines",
    "figures", "table", "diagnose", "slo_ms", "json",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Characterizing Workload of Web Applications "
            "on Virtualized Servers' (Wang et al., 2014)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", parents=[_scenario_flags()], help="run one scenario"
    )
    run_parser.add_argument(
        "--list", action="store_true",
        help="print the named scenario catalogue and exit",
    )
    run_parser.add_argument(
        "--profile", default=None, metavar="FILE",
        help="profile the run loop with cProfile and dump the pstats "
             "data to FILE (inspect with `python -m pstats FILE`)",
    )
    run_parser.add_argument(
        "--columnar", action="store_true",
        help="collect the full 518-metric registry as per-metric arrays",
    )
    run_parser.add_argument(
        "--export-columnar", default=None, metavar="PATH",
        help="write the columnar samples to PATH (.csv or .npz; "
             "requires --columnar)",
    )
    run_parser.add_argument("--export-csv", default=None, metavar="PATH")
    run_parser.add_argument("--export-json", default=None, metavar="PATH")
    run_parser.add_argument(
        "--no-report", action="store_true",
        help="skip the characterization report",
    )
    run_parser.add_argument(
        "--diagnose", action="store_true",
        help="observe the run (annotation stream + SLO probe) and "
             "print the run manifest, detected incidents and ranked "
             "root-cause attribution",
    )
    run_parser.add_argument(
        "--slo-ms", type=float, default=100.0, metavar="MS",
        help="p95 SLO threshold for incident detection (default 100)",
    )
    run_parser.add_argument(
        "--export-annotations", default=None, metavar="PATH",
        help="write the annotation stream as JSON Lines (implies "
             "observation)",
    )
    run_parser.add_argument(
        "--export-traces", default=None, metavar="PATH",
        help="write the sampled request traces as JSON Lines "
             "(requires --trace-sample > 0)",
    )
    run_parser.add_argument(
        "--export-chrome-trace", default=None, metavar="PATH",
        help="write the sampled request traces as Chrome trace_event "
             "JSON for chrome://tracing / Perfetto (requires "
             "--trace-sample > 0)",
    )
    run_parser.add_argument(
        "--fleet", default=None, metavar="NAME",
        help="run a sharded fleet scenario instead of one testbed "
             "('list' prints the fleet catalogue); reads only "
             "--seed/--shards/--quick-fleet/--export-json and rejects "
             "every other flag",
    )
    run_parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="worker processes for --fleet (1 = inline; results are "
             "bit-identical across shard counts)",
    )
    run_parser.add_argument(
        "--quick-fleet", action="store_true",
        help="shrink the datacenter fleet for smoke runs (fewer pods, "
             "shorter horizon); only meaningful with --fleet",
    )

    sweep_parser = sub.add_parser(
        "sweep",
        help="run a scenario grid across worker processes",
    )
    sweep_parser.add_argument(
        "--grid", default=None, choices=("paper", "quick"),
        help="preset grid: 'paper' = the 4-run published matrix, "
             "'quick' = a 2-run CI smoke grid; omit to build the grid "
             "from the axis flags below",
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes (1 = inline, no subprocesses)",
    )
    sweep_parser.add_argument("--duration", type=float, default=None)
    sweep_parser.add_argument("--seed", type=int, default=42)
    sweep_parser.add_argument("--clients", type=int, default=None)
    sweep_parser.add_argument(
        "--environments", default="virtualized",
        help="comma-separated grid axis (default: virtualized)",
    )
    sweep_parser.add_argument(
        "--compositions", default="browsing",
        help="comma-separated grid axis (default: browsing)",
    )
    sweep_parser.add_argument(
        "--traffics", default="closed",
        help="comma-separated traffic axis: closed, poisson, mmpp, "
             "bmodel or trace:<path> (default: closed)",
    )
    sweep_parser.add_argument(
        "--scales", default="1",
        help="comma-separated stress-scale axis (default: 1)",
    )
    sweep_parser.add_argument(
        "--tenant-mixes", default="none",
        help=f"comma-separated tenant-mix axis: "
             f"{sorted(TENANT_MIXES)} (default: none)",
    )
    sweep_parser.add_argument(
        "--controllers", default="none",
        help="comma-separated elastic-control axis: "
             f"{', '.join(('none',) + CONTROLLER_KINDS)} (default: none)",
    )
    sweep_parser.add_argument(
        "--servers", default="1",
        help="comma-separated fleet-size axis (default: 1)",
    )
    sweep_parser.add_argument(
        "--placement", default=None, choices=PLACEMENT_POLICIES,
        help="placement policy for multi-server cells "
             "(default: firstfit)",
    )
    sweep_parser.add_argument(
        "--placements", default=None, metavar="POLICIES",
        help="comma-separated placement-policy axis for multi-server "
             f"cells ({', '.join(PLACEMENT_POLICIES)}); mutually "
             "exclusive with --placement",
    )
    sweep_parser.add_argument(
        "--faults", default="none",
        help="comma-separated fault-schedule axis; each entry is a "
             "'+'-joined kind@at[:duration[:magnitude]][/target] "
             "schedule or 'none' for the fault-free cell "
             "(default: none)",
    )
    sweep_parser.add_argument(
        "--engines", default=CLASSIC_ENGINE,
        help=f"comma-separated request-engine axis: {', '.join(ENGINES)} "
             "(default: classic); composes with --grid presets",
    )
    sweep_parser.add_argument(
        "--figures", default=None, metavar="DIR",
        help="render the aggregate ratio table as figures into DIR "
             "(matplotlib PNGs, or text panels when matplotlib is "
             "unavailable)",
    )
    sweep_parser.add_argument(
        "--table", action="store_true",
        help="print the aggregate ratio table (every run vs. the "
             "first run) after the suite report",
    )
    sweep_parser.add_argument(
        "--diagnose", action="store_true",
        help="chaos sweep: run faulted cells observed, diagnose each "
             "and print the policy ranking table (recovery time, "
             "SLO-violation width, $/kilorequest, attribution "
             "precision@1)",
    )
    sweep_parser.add_argument(
        "--slo-ms", type=float, default=100.0, metavar="MS",
        help="p95 SLO threshold the diagnoses grade against "
             "(default 100)",
    )
    sweep_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the merged suite report as JSON",
    )

    diagnose_parser = sub.add_parser(
        "diagnose",
        parents=[_scenario_flags()],
        help="run one scenario observed and print the diagnosis report",
    )
    diagnose_parser.add_argument(
        "--slo-ms", type=float, default=100.0, metavar="MS",
        help="p95 SLO threshold for incident detection (default 100)",
    )
    diagnose_parser.add_argument(
        "--export-annotations", default=None, metavar="PATH",
        help="write the annotation stream as JSON Lines",
    )
    diagnose_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the manifest + diagnoses as JSON",
    )

    trace_parser = sub.add_parser(
        "trace",
        parents=[_scenario_flags(("--sample", "--trace-sample"), 0.05)],
        help="run one scenario with request tracing and print the "
             "latency anatomy",
    )
    trace_parser.add_argument(
        "--tail", type=float, default=99.0, metavar="P",
        help="tail percentile attributed against the median "
             "(default 99)",
    )
    trace_parser.add_argument(
        "--slowest", type=int, default=3, metavar="N",
        help="print the N slowest sampled requests span by span "
             "(default 3)",
    )
    trace_parser.add_argument(
        "--export-traces", default=None, metavar="PATH",
        help="write the sampled request traces as JSON Lines",
    )
    trace_parser.add_argument(
        "--export-chrome-trace", default=None, metavar="PATH",
        help="write the sampled request traces as Chrome trace_event "
             "JSON",
    )

    compare_parser = sub.add_parser(
        "compare", help="reproduce the paper's cross-environment comparison"
    )
    compare_parser.add_argument("--duration", type=float, default=240.0)
    compare_parser.add_argument("--seed", type=int, default=42)

    sub.add_parser("table1", help="print the Table 1 metric sample")
    return parser


def _render_diagnosis(result, slo_ms: float) -> str:
    """Manifest + incidents + ranked causes for one observed run."""
    from repro.obs import (
        build_manifest,
        diagnose,
        grade_attribution,
        render_manifest,
    )

    diagnoses = diagnose(result, slo_ms=slo_ms)
    lines = [render_manifest(build_manifest(result)), ""]
    if not diagnoses:
        lines.append(
            f"no incidents: p95 stayed within the {slo_ms:g} ms SLO"
        )
    for entry in diagnoses:
        incident = entry.incident
        lines.append(
            f"incident [{incident.entity}] "
            f"{incident.start_s:.0f}-{incident.end_s:.0f}s: p95 peaked "
            f"{incident.peak_ms:.0f} ms over the {slo_ms:g} ms SLO "
            f"({incident.samples} samples, {incident.width_s:.0f}s in "
            f"violation)"
        )
        if not entry.causes:
            lines.append("  no candidate causes in the lookback window")
        for rank, cause in enumerate(entry.causes[:5], start=1):
            annotation = cause.annotation
            what = annotation.payload.get("fault") or annotation.kind
            target = (
                annotation.payload.get("target")
                or annotation.domain
                or annotation.server
            )
            lines.append(
                f"  #{rank} score {cause.score:.3f}  {what} "
                f"[{annotation.channel}] on {target or 'n/a'} at "
                f"t={annotation.time_s:.1f}s ({annotation.source})"
            )
            for evidence in cause.evidence:
                lines.append(f"      - {evidence}")
        for trace in entry.exemplars:
            slow = max(trace.spans, key=lambda s: s.duration_s)
            lines.append(
                f"  exemplar: session {trace.session_id} seq "
                f"{trace.seq} {trace.interaction!r} took "
                f"{trace.total_s * 1e3:.1f} ms "
                f"({slow.name} {slow.duration_s * 1e3:.1f} ms)"
            )
    if (result.control_reports or {}).get("faults"):
        grade = grade_attribution(result, diagnoses)
        lines.append(
            f"attribution vs schedule: "
            f"{grade['correct']}/{grade['faults']} correct "
            f"(precision@1 {grade['precision_at_1']:.2f})"
        )
    return "\n".join(lines)


def _render_trace_report(result, tail: float, slowest: int) -> str:
    """Latency anatomy + tail attribution + slowest span trees."""
    from repro.obs.tracing import (
        latency_anatomy,
        render_anatomy,
        render_tail_attribution,
        render_trace,
        slowest_traces,
        tail_attribution,
    )

    traces = result.request_traces
    if not traces:
        return "no requests sampled (rate too low for this run length?)"
    lines = [render_anatomy(latency_anatomy(traces, percentiles=(50.0, 95.0, tail)))]
    if len(traces) >= 10:
        lines.append("")
        lines.append(
            render_tail_attribution(
                tail_attribution(traces, tail_percentile=tail)
            )
        )
    for trace in slowest_traces(traces, slowest):
        lines.append("")
        lines.append(render_trace(trace))
    return "\n".join(lines)


def _reject(dests: Sequence[str], what: str, why: str) -> None:
    """Refuse the given flags ``what`` would otherwise silently drop."""
    if dests:
        # Every flag's dest is its long option name.
        flags = ", ".join("--" + dest.replace("_", "-") for dest in dests)
        raise ConfigurationError(f"{what} is incompatible with {flags}; {why}")


def _cmd_fleet(args: argparse.Namespace, given: Sequence[str]) -> int:
    """``repro run --fleet``: the sharded fleet-of-fleets path."""
    from repro.shard import fleet_catalog, run_fleet

    _reject(
        [dest for dest in given if dest not in _FLEET_READS],
        "--fleet",
        "a fleet scenario defines its own pods, horizon and faults, and "
        "writes only its --export-json report",
    )
    catalog = fleet_catalog(seed=args.seed, quick=args.quick_fleet)
    if args.fleet == "list":
        for name, fleet in catalog.items():
            print(
                f"{name:<24s} {len(fleet.pods)} pods / "
                f"{fleet.server_count()} servers / "
                f"{fleet.vm_count()} VMs  {fleet.description}"
            )
        return 0
    if args.fleet not in catalog:
        raise ConfigurationError(
            f"unknown fleet {args.fleet!r}; "
            "see `repro run --fleet list` for the catalogue"
        )
    fleet = catalog[args.fleet]
    shards = args.shards if args.shards is not None else 1
    print(
        f"running fleet {fleet.name}: {len(fleet.pods)} pods / "
        f"{fleet.server_count()} servers / {fleet.vm_count()} VMs on "
        f"{shards} shard(s), {fleet.duration_s:.0f}s simulated",
        file=sys.stderr,
    )
    result = run_fleet(fleet, shards=shards)
    print(result.render())
    if args.export_json:
        with open(args.export_json, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
        print(
            f"fleet report written to {args.export_json}",
            file=sys.stderr,
        )
    return 0


def _scenario_from_args(
    args: argparse.Namespace, given: Sequence[str]
) -> Scenario:
    """The one run that the scenario flags of run, diagnose and trace name."""
    if args.scenario is None:
        return ExperimentConfig(
            environment=args.environment,
            composition=args.composition,
            duration_s=args.duration,
            seed=args.seed,
            clients=args.clients,
            scale=args.scale,
            traffic=args.traffic,
            rate_rps=args.rate,
            session_budget=args.session_budget,
            controller=args.controller,
            servers=args.servers,
            placement=args.placement,
            faults=args.faults,
            engine=args.engine,
            trace_sample=args.trace_sample,
        ).to_scenario()
    # A catalogue entry fully describes its workload, traffic, shape and
    # faults, so flags that would silently conflict with it are
    # rejected instead of dropped.
    scenario_flags = vars(_scenario_flags().parse_args([]))
    _reject(
        [
            dest
            for dest in given
            if dest in scenario_flags and dest not in _COMPOSE_WITH_SCENARIO
        ],
        "--scenario",
        "the catalogue entry defines its own workload, traffic, shape and "
        "faults",
    )
    catalog = scenario_catalog(
        duration_s=args.duration, seed=args.seed, clients=args.clients
    )
    if args.scenario not in catalog:
        raise ConfigurationError(
            f"unknown scenario {args.scenario!r}; "
            "see `repro run --list` for the catalogue"
        )
    spec = catalog[args.scenario]
    if args.controller != "none":
        spec = with_controller(spec, args.controller)
    spec = with_engine(spec, args.engine)
    if args.trace_sample:
        # Tracing observes the run without perturbing it, so the name
        # stays unsuffixed.
        spec = replace(spec, trace_sample=args.trace_sample)
    return spec


def _cmd_run(args: argparse.Namespace, given: Sequence[str]) -> int:
    if args.fleet is not None:
        return _cmd_fleet(args, given)
    if args.shards is not None:
        raise ConfigurationError("--shards requires --fleet")
    if args.quick_fleet:
        raise ConfigurationError("--quick-fleet requires --fleet")
    if args.list:
        catalog = scenario_catalog(duration_s=args.duration, seed=args.seed)
        for name, spec in catalog.items():
            kind = "open-loop" if spec.open_loop else "closed-loop"
            if spec.consolidated:
                kind += (
                    " + " + ", ".join(t.name for t in spec.tenants)
                    + " tenant(s)"
                )
            if spec.controller is not None:
                kind += f" + {spec.controller.kind} controller"
            print(f"{name:<40s} {kind}")
        return 0
    if args.export_columnar and not args.columnar:
        raise ConfigurationError("--export-columnar requires --columnar")
    if (
        args.export_traces or args.export_chrome_trace
    ) and args.trace_sample <= 0.0:
        raise ConfigurationError(
            "trace exports require --trace-sample > 0"
        )
    spec = _scenario_from_args(args, given)
    if spec.open_loop:
        if spec.traffic.kind == "trace" and spec.traffic.rate_rps is None:
            # The replay rate comes from the trace file, not the mix.
            driver_label = (
                f"open-loop replay of {spec.traffic.trace_path}"
            )
        else:
            driver_label = (
                f"open-loop {spec.traffic.kind} @ "
                f"{spec.traffic.effective_rate_rps(spec.mix):.1f} arrivals/s"
            )
    else:
        driver_label = f"{spec.mix.clients} clients closed-loop"
    if spec.consolidated:
        driver_label += (
            " + co-resident " + ", ".join(t.name for t in spec.tenants)
        )
    if spec.controller is not None:
        driver_label += f" + {spec.controller.kind} controller"
    if spec.multi_server:
        driver_label += (
            f" on {spec.servers} servers ({spec.placement} placement)"
        )
    if spec.fleet is not None:
        driver_label += " + fleet controller"
    if spec.faulted:
        driver_label += f" + faults {spec.faults.as_cli_string()}"
    print(
        f"running {spec.name}: {driver_label}, "
        f"{spec.duration_s:.0f}s simulated",
        file=sys.stderr,
    )
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    result = run_scenario(
        spec,
        collect_full_registry=args.columnar,
        columnar_rows=args.columnar,
        observe=args.diagnose or args.export_annotations is not None,
    )
    if profiler is not None:
        import pstats

        profiler.disable()
        profiler.dump_stats(args.profile)
        stats = pstats.Stats(profiler)
        print(
            f"profile written to {args.profile} "
            f"({stats.total_calls} calls, {stats.total_tt:.2f}s); "
            f"inspect with `python -m pstats {args.profile}`",
            file=sys.stderr,
        )
    print(
        f"completed {result.requests_completed} requests "
        f"(X={result.throughput_rps:.1f} req/s, mean response "
        f"{result.mean_response_time_s * 1000:.1f} ms)"
    )
    if result.traffic_report is not None:
        report = result.traffic_report
        duration = spec.duration_s
        print(
            f"open-loop traffic: {report['offered']} arrivals offered "
            f"({report['offered'] / duration:.1f}/s), "
            f"{report['admitted']} admitted, {report['shed']} shed "
            f"({report['shed_fraction']:.1%}); arrival trace sha256 "
            f"{result.arrival_trace.sha256()[:16]}"
        )
    if result.control_reports:
        for entity, report in result.control_reports.items():
            if report.get("kind") == "billing":
                bill = "; ".join(
                    f"{domain}: {caps['capacity_core_s']:.0f} core-s, "
                    f"{caps['memory_gb_s']:.0f} GB-s"
                    for domain, caps in sorted(report["domains"].items())
                )
                print(f"capacity bill: {bill}")
                continue
            if report.get("kind") == "faults":
                plan = "; ".join(
                    f"{entry['fault']}@{entry['inject_at_s']:g}"
                    + (
                        f"-{entry['clear_at_s']:g}"
                        if entry["clear_at_s"] is not None
                        else ""
                    )
                    + (f"/{entry['target']}" if entry["target"] else "")
                    for entry in report["schedule"]
                )
                print(
                    f"{entity} [faults]: {report['injected']} injected, "
                    f"{report['cleared']} cleared ({plan})"
                )
                continue
            if report.get("kind") == "obs":
                by_source = ", ".join(
                    f"{source} x{count}"
                    for source, count in sorted(report["by_source"].items())
                    if count
                ) or "no annotated events"
                print(
                    f"{entity} [obs]: {report['events']} annotations "
                    f"({by_source}) across "
                    f"{len(report['servers'])} server(s)"
                )
                continue
            by_kind = ", ".join(
                f"{kind} x{count}"
                for kind, count in sorted(
                    report["actions_by_kind"].items()
                )
            ) or "no actions"
            if report.get("kind") == "fleet":
                moves = "; ".join(
                    f"{m['domain']}: {m['source']}->{m['dest']} "
                    f"({m['bytes_total'] / 2**30:.2f} GiB, "
                    f"{m['downtime_s'] * 1000:.0f} ms down)"
                    for m in report["migrations"]
                ) or "no migrations"
                print(
                    f"{entity} [fleet]: {report['num_actions']} "
                    f"migration(s) ({by_kind}); {moves}"
                )
                if report.get("failed_servers"):
                    evacs = "; ".join(
                        f"{m['domain']}: {m['source']}->{m['dest']} "
                        f"({m['downtime_s'] * 1000:.0f} ms down)"
                        for m in report["evacuations"]
                    ) or "none completed"
                    print(
                        f"{entity} [fleet]: failed "
                        f"{', '.join(report['failed_servers'])}; "
                        f"forced evacuations: {evacs}"
                    )
                continue
            final = "; ".join(
                f"{domain}: {caps['cap_cores']:g} cores, "
                f"{caps['vcpus']} vcpu, {caps['memory_mb']:.0f} MB"
                for domain, caps in sorted(report["final"].items())
            )
            print(
                f"{entity} [{report['kind']}]: "
                f"{report['num_actions']} control actions ({by_kind}); "
                f"final capacity {final}"
            )
    if result.tenant_reports:
        for name, report in result.tenant_reports.items():
            print(
                f"tenant {name}: {report.get('jobs_completed', 0)}/"
                f"{report.get('jobs_submitted', 0)} jobs, "
                f"{report.get('tasks_completed', 0)} tasks completed"
            )
        ready = (result.interference or {}).get("cpu_ready_s", {})
        if ready:
            readable = ", ".join(
                f"{domain} {seconds:.2f}s"
                for domain, seconds in sorted(ready.items())
            )
            print(f"CPU ready time: {readable}")
    if not args.no_report:
        # Clamp the warm-up so very short runs keep enough samples.
        warmup_s = min(30.0, spec.duration_s / 4.0)
        print()
        print(render_characterization_report(
            characterize_trace_set(result.traces, warmup_s=warmup_s)
        ))
    if args.diagnose:
        print()
        print(_render_diagnosis(result, slo_ms=args.slo_ms))
    if args.export_annotations:
        write_annotations_jsonl(result.annotations, args.export_annotations)
        print(
            f"annotations written to {args.export_annotations}",
            file=sys.stderr,
        )
    if result.request_traces is not None:
        print()
        print(_render_trace_report(result, tail=99.0, slowest=0))
    if args.export_traces:
        write_request_traces_jsonl(result.request_traces, args.export_traces)
        print(
            f"request traces written to {args.export_traces}",
            file=sys.stderr,
        )
    if args.export_chrome_trace:
        write_request_traces_chrome_json(
            result.request_traces, args.export_chrome_trace
        )
        print(
            f"chrome trace written to {args.export_chrome_trace}",
            file=sys.stderr,
        )
    if args.export_csv:
        write_trace_csv(result.traces, args.export_csv)
        print(f"\ntraces written to {args.export_csv}", file=sys.stderr)
    if args.export_json:
        write_trace_json(result.traces, args.export_json)
        print(f"traces written to {args.export_json}", file=sys.stderr)
    if args.columnar and result.columnar is not None:
        print(
            f"columnar samples: {len(result.columnar)} ticks x "
            f"{len(result.columnar.columns)} columns",
            file=sys.stderr,
        )
    if args.export_columnar:
        if args.export_columnar.lower().endswith(".npz"):
            write_columnar_npz(result.columnar, args.export_columnar)
        else:
            write_columnar_csv(result.columnar, args.export_columnar)
        print(
            f"columnar samples written to {args.export_columnar}",
            file=sys.stderr,
        )
    return 0


def _split_axis(text: str) -> list:
    return [token.strip() for token in text.split(",") if token.strip()]


def _cmd_sweep(args: argparse.Namespace, given: Sequence[str]) -> int:
    if args.grid is not None:
        # Presets define their own axes; reject flags that would
        # otherwise be silently dropped.
        _reject(
            [dest for dest in given if dest not in _PRESET_READS],
            f"--grid {args.grid}",
            "presets define their own axes (omit --grid to build a "
            "custom grid)",
        )
    engines = _split_axis(args.engines)
    if args.grid == "paper":
        runs = paper_matrix_suite(
            duration_s=args.duration, seed=args.seed, clients=args.clients,
            engines=engines,
        )
    elif args.grid == "quick":
        # The CI smoke grid: two short virtualized runs.
        runs = suite_grid(
            environments=("virtualized",),
            compositions=("browsing", "bidding"),
            duration_s=args.duration if args.duration is not None else 40.0,
            seed=args.seed,
            clients=args.clients if args.clients is not None else 150,
            engines=engines,
        )
    else:
        if args.placements is not None and args.placement is not None:
            raise ConfigurationError(
                "--placements and --placement are mutually exclusive; "
                "the axis grids over policies, the scalar fixes one"
            )
        placements = None
        if args.placements is not None:
            placements = [
                validate_placement_policy(token)
                for token in _split_axis(args.placements)
            ]
        mixes = []
        for token in _split_axis(args.tenant_mixes):
            if token not in TENANT_MIXES:
                raise ConfigurationError(
                    f"unknown tenant mix {token!r}; "
                    f"choose from {sorted(TENANT_MIXES)}"
                )
            mixes.append(TENANT_MIXES[token])
        runs = suite_grid(
            environments=_split_axis(args.environments),
            compositions=_split_axis(args.compositions),
            traffics=[
                None if token == "closed" else token
                for token in _split_axis(args.traffics)
            ],
            scales=[float(token) for token in _split_axis(args.scales)],
            tenant_mixes=mixes,
            controllers=[
                None if token == "none" else token
                for token in _split_axis(args.controllers)
            ],
            servers=[int(token) for token in _split_axis(args.servers)],
            placement=args.placement,
            placements=placements,
            faults=[
                None if token == "none" else token
                for token in _split_axis(args.faults)
            ],
            engines=engines,
            duration_s=args.duration,
            seed=args.seed,
            clients=args.clients,
        )
    print(
        f"sweeping {len(runs)} runs on {args.workers} worker(s) ...",
        file=sys.stderr,
    )
    suite = run_suite(
        runs,
        workers=args.workers,
        diagnose=args.diagnose,
        slo_ms=args.slo_ms,
    )
    print(suite.render())
    if args.table:
        print()
        print(render_suite_ratio_table(suite))
    if args.diagnose:
        from repro.obs.ranking import render_policy_ranking_table

        print()
        print(render_policy_ranking_table(suite))
    if args.figures:
        from repro.experiments.figures import render_suite_figures

        paths = render_suite_figures(suite, args.figures)
        if args.diagnose:
            from repro.obs.ranking import write_ranking_figures

            paths = list(paths) + write_ranking_figures(suite, args.figures)
        for path in paths:
            print(f"figure written to {path}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(suite.to_dict(), handle, indent=2, sort_keys=True)
        print(f"suite report written to {args.json}", file=sys.stderr)
    return 0


def _cmd_diagnose(args: argparse.Namespace, given: Sequence[str]) -> int:
    spec = _scenario_from_args(args, given)
    print(
        f"diagnosing {spec.name}: {spec.duration_s:.0f}s simulated ...",
        file=sys.stderr,
    )
    result = run_scenario(spec, observe=True)
    print(_render_diagnosis(result, slo_ms=args.slo_ms))
    if args.export_annotations:
        write_annotations_jsonl(result.annotations, args.export_annotations)
        print(
            f"annotations written to {args.export_annotations}",
            file=sys.stderr,
        )
    if args.json:
        from repro.obs import build_manifest, diagnose, grade_attribution

        diagnoses = diagnose(result, slo_ms=args.slo_ms)
        document = {
            "slo_ms": args.slo_ms,
            "manifest": build_manifest(result),
            "diagnoses": [entry.to_dict() for entry in diagnoses],
        }
        if (result.control_reports or {}).get("faults"):
            document["grade"] = grade_attribution(result, diagnoses)
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        print(f"diagnosis written to {args.json}", file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace, given: Sequence[str]) -> int:
    if not 0.0 < args.trace_sample <= 1.0:
        raise ConfigurationError("--sample must be in (0, 1]")
    spec = _scenario_from_args(args, given)
    print(
        f"tracing {spec.name}: {spec.duration_s:.0f}s simulated at "
        f"sample rate {args.trace_sample:g} ...",
        file=sys.stderr,
    )
    result = run_scenario(spec)
    traces = result.request_traces or []
    print(
        f"sampled {len(traces)} of {result.requests_completed} requests "
        f"({spec.engine} engine)"
    )
    print()
    print(_render_trace_report(result, tail=args.tail, slowest=args.slowest))
    if args.export_traces:
        write_request_traces_jsonl(traces, args.export_traces)
        print(
            f"request traces written to {args.export_traces}",
            file=sys.stderr,
        )
    if args.export_chrome_trace:
        write_request_traces_chrome_json(traces, args.export_chrome_trace)
        print(
            f"chrome trace written to {args.export_chrome_trace}",
            file=sys.stderr,
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    runs = {}
    for environment in ENVIRONMENTS:
        for composition in ("browsing", "bidding"):
            spec = scenario(
                environment,
                composition,
                duration_s=args.duration,
                seed=args.seed,
            )
            print(f"running {spec.name} ...", file=sys.stderr)
            runs[(environment, composition)] = run_scenario_cached(spec)
    for report in compare_with_paper(
        runs[("virtualized", "browsing")], runs[("bare-metal", "browsing")]
    ):
        print(render_ratio_table(report))
        print()
    checks = qualitative_checks(
        runs[("virtualized", "browsing")],
        runs[("virtualized", "bidding")],
        runs[("bare-metal", "browsing")],
        runs[("bare-metal", "bidding")],
    )
    for finding, passed in checks.as_dict().items():
        print(f"[{'PASS' if passed else 'FAIL'}] {finding}")
    return 0 if checks.all_pass() else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "table1":
        print(render_table1())
        return 0
    # The flags this command line moved off the subcommand's defaults,
    # in declaration order: each path rejects the ones it would drop.
    defaults = vars(parser.parse_args([args.command]))
    given = [
        dest for dest, value in vars(args).items() if value != defaults[dest]
    ]
    command = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "diagnose": _cmd_diagnose,
        "trace": _cmd_trace,
    }[args.command]
    return command(args, given)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
