"""Command-line interface.

Six subcommands cover the library's headline workflows::

    python -m repro run --composition browsing --export-csv traces.csv
    python -m repro run --scenario autoscaled_flash_crowd --controller pid
    python -m repro sweep --controllers static,threshold --table
    python -m repro diagnose --faults crash@20 --servers 2
    python -m repro trace --engine batched --export-chrome-trace spans.json
    python -m repro compare --duration 240
    python -m repro table1

``--help`` on each subcommand lists its flags.

Each fact is written once.  :data:`_FIELDS` declares every
run-description field: its flag on ``run``, ``diagnose`` and ``trace``,
its ``sweep`` grid flag, and how both resolve into an
:class:`~repro.config.ExperimentConfig` or a
:func:`~repro.experiments.suite.suite_grid` call.  :data:`_EXPORTS`
declares and writes every file a single run exports, and ``run``,
``diagnose`` and ``trace`` are :data:`_PRESETS` of one pipeline.  A
flag a path would silently drop is rejected instead, found by comparing
the parsed values with the parser's own defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Callable, Optional, Sequence, Tuple

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
from repro.monitoring import export
from repro.placement.spec import PLACEMENT_POLICIES, validate_placement_policy

#: A precondition: a test on the parsed arguments, and the error if it fails.
_Requirement = Tuple[Callable[[argparse.Namespace], bool], str]


def _dest(flag: str) -> str:
    """The namespace attribute of ``flag``: its long option name."""
    return flag[2:].replace("-", "_")


def _tenant_mix(token: str):
    if token not in TENANT_MIXES:
        raise ConfigurationError(
            f"unknown tenant mix {token!r}; choose from {sorted(TENANT_MIXES)}"
        )
    return TENANT_MIXES[token]


@dataclass(frozen=True)
class _Field:
    """One run-description field a command line sets.

    ``config`` is the :class:`~repro.config.ExperimentConfig` field.
    ``flag`` and ``settings`` declare its flag on run, diagnose and
    trace; ``on_sweep`` repeats that flag on ``sweep``, for the
    ``suite_grid`` argument named ``config``.  ``axis`` declares its
    comma-separated ``sweep`` grid flag (``axis_default``,
    ``axis_help``), whose tokens ``token`` parses for the ``suite_grid``
    argument named like the flag.  ``composes`` lists the catalogue
    flags (``--scenario``, ``--grid``) the field combines with; they
    reject it otherwise.
    """

    config: str
    flag: Optional[str] = None
    settings: dict = field(default_factory=dict)
    on_sweep: bool = False
    axis: Optional[str] = None
    axis_default: Optional[str] = None
    axis_help: str = "grid axis"
    token: Callable[[str], object] = str
    composes: Tuple[str, ...] = ()

    def axis_settings(self) -> dict:
        text = f"comma-separated {self.axis_help}"
        if self.axis_default is not None:
            text += f" (default: {self.axis_default})"
        if "--grid" in self.composes:
            text += "; composes with --grid presets"
        return dict(default=self.axis_default, help=text)


_BOTH = ("--scenario", "--grid")

_FIELDS = (
    _Field("environment", "--environment",
           dict(default=VIRTUALIZED, choices=ENVIRONMENTS),
           axis="--environments", axis_default="virtualized"),
    _Field("composition", "--composition", dict(default="browsing"),
           axis="--compositions", axis_default="browsing"),
    _Field("duration_s", "--duration",
           dict(type=float, default=None,
                help="simulated seconds (default 240)"),
           on_sweep=True, composes=_BOTH),
    _Field("seed", "--seed", dict(type=int, default=42),
           on_sweep=True, composes=_BOTH),
    _Field("clients", "--clients", dict(type=int, default=None),
           on_sweep=True, composes=_BOTH),
    _Field("scale", "--scale",
           dict(type=float, default=1.0,
                help="stress multiplier on horizon and clients (default 1)"),
           axis="--scales", axis_default="1", axis_help="stress-scale axis",
           token=float),
    _Field("traffic", "--traffic",
           dict(default="closed", metavar="KIND",
                help="traffic driver: closed (default), poisson, mmpp, "
                     "bmodel or trace:<path>"),
           axis="--traffics", axis_default="closed",
           axis_help="traffic axis: closed, poisson, mmpp, bmodel or "
                     "trace:<path>"),
    _Field("rate_rps", "--rate",
           dict(type=float, default=None, metavar="RPS",
                help="open-loop base request rate (default: "
                     "clients/think_time)")),
    _Field("session_budget", "--session-budget",
           dict(type=int, default=None, metavar="N",
                help="open-loop concurrent-session cap (arrivals beyond it "
                     "are shed and reported)")),
    _Field("tenants", axis="--tenant-mixes", axis_default="none",
           axis_help=f"tenant-mix axis: {sorted(TENANT_MIXES)}",
           token=_tenant_mix),
    _Field("engine", "--engine",
           dict(default=CLASSIC_ENGINE, choices=ENGINES,
                help="request engine: 'classic' (event-per-hop, the "
                     "bit-stable default) or 'batched' (array-native "
                     "cohort engine; equivalent in distribution, not "
                     "bitwise — see PERFORMANCE.md)"),
           axis="--engines", axis_default=CLASSIC_ENGINE,
           axis_help=f"request-engine axis: {', '.join(ENGINES)}",
           composes=_BOTH),
    _Field("controller", "--controller",
           dict(default="none", choices=("none",) + CONTROLLER_KINDS,
                help="elastic-control policy resizing the web VMs mid-run "
                     "(static = apply the initial sizing, never act); "
                     "composes with --scenario by swapping the catalogue "
                     "entry's policy"),
           axis="--controllers", axis_default="none",
           axis_help="elastic-control axis: "
                     f"{', '.join(('none',) + CONTROLLER_KINDS)}",
           composes=("--scenario",)),
    _Field("servers", "--servers",
           dict(type=int, default=1, metavar="N",
                help="physical servers in the fleet (>1 places VMs across "
                     "servers through the placement engine)"),
           axis="--servers", axis_default="1", axis_help="fleet-size axis",
           token=int),
    # suite_grid never validates a policy on a single-server cell, so
    # the --placements tokens are checked here.
    _Field("placement", "--placement",
           dict(default=None, choices=PLACEMENT_POLICIES,
                help="placement policy assigning VMs to servers (default: "
                     "firstfit; only meaningful with --servers > 1)"),
           on_sweep=True, axis="--placements",
           axis_help="placement-policy axis for multi-server cells "
                     f"({', '.join(PLACEMENT_POLICIES)}); mutually "
                     "exclusive with --placement",
           token=validate_placement_policy),
    _Field("faults", "--faults",
           dict(default=None, metavar="SCHEDULE",
                help="inject faults mid-run: '+'-joined "
                     "kind@at[:duration[:magnitude]][/target] entries, "
                     "e.g. crash@60 or cap_theft@40:30:0.1/web-vm "
                     f"(kinds: {', '.join(FAULT_KINDS)})"),
           axis="--faults", axis_default="none",
           axis_help="fault-schedule axis; each entry is a '+'-joined "
                     "kind@at[:duration[:magnitude]][/target] schedule or "
                     "'none' for the fault-free cell"),
    _Field("trace_sample", "--trace-sample",
           dict(type=float, default=0.0, metavar="RATE",
                help="sample this fraction of requests into span trees "
                     "(deterministic, RNG-free; default %(default)g)"),
           composes=("--scenario",)),
)

#: The single-run scenario flags, by namespace attribute.
_RUN_FIELDS = {_dest(row.flag): row for row in _FIELDS if row.flag}
#: The ``sweep`` field flags (scalars and axes), by namespace attribute.
_SWEEP_FIELDS = {
    _dest(flag): row
    for row in _FIELDS
    for flag in (row.flag if row.on_sweep else None, row.axis)
    if flag
}


def _reject(dests: Sequence[str], what: str, why: str) -> None:
    """Refuse the given flags ``what`` would otherwise silently drop."""
    if dests:
        flags = ", ".join("--" + dest.replace("_", "-") for dest in dests)
        raise ConfigurationError(f"{what} is incompatible with {flags}; {why}")


def _uncomposed(catalogue: str, given: Sequence[str], fields: dict) -> list:
    """The given field flags that do not compose with ``catalogue``."""
    return [dest for dest in given
            if dest in fields and catalogue not in fields[dest].composes]


def _grid(args: argparse.Namespace, rows) -> dict:
    """The ``suite_grid`` arguments the sweep flags of ``rows`` name."""
    grid = {}
    for row in rows:
        if row.on_sweep:
            grid[row.config] = getattr(args, _dest(row.flag))
        text = getattr(args, _dest(row.axis)) if row.axis else None
        if text is None:
            continue
        tokens = [token.strip() for token in text.split(",")]
        try:
            grid[_dest(row.axis)] = [row.token(t) for t in tokens if t]
        except ValueError as exc:
            raise ConfigurationError(f"{row.axis}: {exc}") from None
    return grid


# -- exports ------------------------------------------------------------------


def _write_json(data, path: str) -> None:
    """Indented, key-sorted JSON; objects serialize through ``to_dict()``."""
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True,
                  default=lambda value: value.to_dict())


def _write_columnar(columnar, path: str) -> None:
    if path.lower().endswith(".npz"):
        export.write_columnar_npz(columnar, path)
    else:
        export.write_columnar_csv(columnar, path)


@dataclass(frozen=True)
class _Export:
    """One file a single run can write.

    ``write`` writes the data at attribute path ``source`` of the
    :class:`_Run`; ``message``, formatted with the path, reports it on
    stderr.  ``requires`` is checked before the run starts.
    """

    flag: str
    source: str
    write: Callable[[object, str], None]
    message: str
    help: Optional[str] = None
    requires: Optional[_Requirement] = None


_SAMPLED = (lambda args: args.trace_sample > 0.0,
            "trace exports require --trace-sample > 0")

#: Every single-run export, in the order the files are written.
_EXPORTS = {row.flag: row for row in (
    _Export("--export-annotations", "result.annotations",
            export.write_annotations_jsonl, "annotations written to {}",
            "write the annotation stream as JSON Lines (implies "
            "observation)"),
    _Export("--export-traces", "result.request_traces",
            export.write_request_traces_jsonl, "request traces written to {}",
            "write the sampled request traces as JSON Lines (requires "
            "--trace-sample > 0)", _SAMPLED),
    _Export("--export-chrome-trace", "result.request_traces",
            export.write_request_traces_chrome_json,
            "chrome trace written to {}",
            "write the sampled request traces as Chrome trace_event JSON "
            "for chrome://tracing / Perfetto (requires --trace-sample > 0)",
            _SAMPLED),
    _Export("--export-csv", "result.traces", export.write_trace_csv,
            "\ntraces written to {}"),
    _Export("--export-json", "result.traces", export.write_trace_json,
            "traces written to {}"),
    _Export("--export-columnar", "result.columnar", _write_columnar,
            "columnar samples written to {}",
            "write the columnar samples to PATH (.csv or .npz; requires "
            "--columnar)",
            (attrgetter("columnar"), "--export-columnar requires --columnar")),
    _Export("--json", "diagnosis", _write_json, "diagnosis written to {}",
            "write the manifest + diagnoses as JSON"),
)}


# -- the single-run pipeline --------------------------------------------------


@dataclass(frozen=True)
class _Run:
    """One finished single run: what report sections and exports read."""

    args: argparse.Namespace
    spec: Scenario
    result: object
    #: Manifest, incidents with ranked causes and the attribution
    #: grade, computed once when the command diagnoses.
    diagnosis: Optional[dict] = None


def _diagnose(result, slo_ms: float) -> dict:
    from repro.obs import build_manifest, diagnose, grade_attribution

    diagnoses = diagnose(result, slo_ms=slo_ms)
    document = {"slo_ms": slo_ms, "manifest": build_manifest(result),
                "diagnoses": diagnoses}
    if (result.control_reports or {}).get("faults"):
        document["grade"] = grade_attribution(result, diagnoses)
    return document


def _running(spec: Scenario, args: argparse.Namespace) -> str:
    if spec.open_loop:
        if spec.traffic.kind == "trace" and spec.traffic.rate_rps is None:
            # The replay rate comes from the trace file, not the mix.
            label = f"open-loop replay of {spec.traffic.trace_path}"
        else:
            rate = spec.traffic.effective_rate_rps(spec.mix)
            label = f"open-loop {spec.traffic.kind} @ {rate:.1f} arrivals/s"
    else:
        label = f"{spec.mix.clients} clients closed-loop"
    if spec.consolidated:
        label += " + co-resident " + ", ".join(t.name for t in spec.tenants)
    if spec.controller is not None:
        label += f" + {spec.controller.kind} controller"
    if spec.multi_server:
        label += f" on {spec.servers} servers ({spec.placement} placement)"
    if spec.fleet is not None:
        label += " + fleet controller"
    if spec.faulted:
        label += f" + faults {spec.faults.as_cli_string()}"
    return f"running {spec.name}: {label}, {spec.duration_s:.0f}s simulated"


def _control_lines(entity: str, report: dict) -> list:
    """One control report of a run summary, as printed lines."""
    kind = report.get("kind")
    if kind == "billing":
        return ["capacity bill: " + "; ".join(
            f"{domain}: {caps['capacity_core_s']:.0f} core-s, "
            f"{caps['memory_gb_s']:.0f} GB-s"
            for domain, caps in sorted(report["domains"].items())
        )]
    if kind == "faults":
        plan = "; ".join(
            f"{entry['fault']}@{entry['inject_at_s']:g}"
            + (f"-{entry['clear_at_s']:g}"
               if entry["clear_at_s"] is not None else "")
            + (f"/{entry['target']}" if entry["target"] else "")
            for entry in report["schedule"]
        )
        return [f"{entity} [faults]: {report['injected']} injected, "
                f"{report['cleared']} cleared ({plan})"]
    if kind == "obs":
        by_source = ", ".join(
            f"{source} x{count}"
            for source, count in sorted(report["by_source"].items())
            if count
        ) or "no annotated events"
        return [f"{entity} [obs]: {report['events']} annotations "
                f"({by_source}) across {len(report['servers'])} server(s)"]
    by_kind = ", ".join(
        f"{action} x{count}"
        for action, count in sorted(report["actions_by_kind"].items())
    ) or "no actions"
    if kind != "fleet":
        final = "; ".join(
            f"{domain}: {caps['cap_cores']:g} cores, "
            f"{caps['vcpus']} vcpu, {caps['memory_mb']:.0f} MB"
            for domain, caps in sorted(report["final"].items())
        )
        return [f"{entity} [{kind}]: {report['num_actions']} control "
                f"actions ({by_kind}); final capacity {final}"]
    moves = "; ".join(
        f"{m['domain']}: {m['source']}->{m['dest']} "
        f"({m['bytes_total'] / 2**30:.2f} GiB, "
        f"{m['downtime_s'] * 1000:.0f} ms down)"
        for m in report["migrations"]
    ) or "no migrations"
    lines = [f"{entity} [fleet]: {report['num_actions']} migration(s) "
             f"({by_kind}); {moves}"]
    if report.get("failed_servers"):
        evacs = "; ".join(
            f"{m['domain']}: {m['source']}->{m['dest']} "
            f"({m['downtime_s'] * 1000:.0f} ms down)"
            for m in report["evacuations"]
        ) or "none completed"
        lines.append(f"{entity} [fleet]: failed "
                     f"{', '.join(report['failed_servers'])}; "
                     f"forced evacuations: {evacs}")
    return lines


def _summary(run: _Run) -> str:
    result = run.result
    lines = [f"completed {result.requests_completed} requests "
             f"(X={result.throughput_rps:.1f} req/s, mean response "
             f"{result.mean_response_time_s * 1000:.1f} ms)"]
    report = result.traffic_report
    if report is not None:
        lines.append(f"open-loop traffic: {report['offered']} arrivals "
                     f"offered ({report['offered'] / run.spec.duration_s:.1f}"
                     f"/s), {report['admitted']} admitted, {report['shed']} "
                     f"shed ({report['shed_fraction']:.1%}); arrival trace "
                     f"sha256 {result.arrival_trace.sha256()[:16]}")
    for entity, report in (result.control_reports or {}).items():
        lines += _control_lines(entity, report)
    for name, report in (result.tenant_reports or {}).items():
        lines.append(f"tenant {name}: {report.get('jobs_completed', 0)}/"
                     f"{report.get('jobs_submitted', 0)} jobs, "
                     f"{report.get('tasks_completed', 0)} tasks completed")
    ready = (result.interference or {}).get("cpu_ready_s", {})
    if result.tenant_reports and ready:
        lines.append("CPU ready time: " + ", ".join(
            f"{domain} {seconds:.2f}s"
            for domain, seconds in sorted(ready.items())
        ))
    return "\n".join(lines)


def _characterization(run: _Run) -> Optional[str]:
    if run.args.no_report:
        return None
    # Clamp the warm-up so very short runs keep enough samples.
    return render_characterization_report(characterize_trace_set(
        run.result.traces, warmup_s=min(30.0, run.spec.duration_s / 4.0)
    ))


def _diagnosis(run: _Run) -> Optional[str]:
    """Manifest + incidents + ranked causes for one observed run."""
    if run.diagnosis is None:
        return None
    from repro.obs import render_manifest

    slo_ms = run.diagnosis["slo_ms"]
    lines = [render_manifest(run.diagnosis["manifest"]), ""]
    if not run.diagnosis["diagnoses"]:
        lines.append(f"no incidents: p95 stayed within the {slo_ms:g} ms SLO")
    for entry in run.diagnosis["diagnoses"]:
        incident = entry.incident
        lines.append(f"incident [{incident.entity}] {incident.start_s:.0f}"
                     f"-{incident.end_s:.0f}s: p95 peaked "
                     f"{incident.peak_ms:.0f} ms over the {slo_ms:g} ms SLO "
                     f"({incident.samples} samples, {incident.width_s:.0f}s "
                     "in violation)")
        if not entry.causes:
            lines.append("  no candidate causes in the lookback window")
        for rank, cause in enumerate(entry.causes[:5], start=1):
            note = cause.annotation
            what = note.payload.get("fault") or note.kind
            target = note.payload.get("target") or note.domain or note.server
            lines.append(f"  #{rank} score {cause.score:.3f}  {what} "
                         f"[{note.channel}] on {target or 'n/a'} at "
                         f"t={note.time_s:.1f}s ({note.source})")
            lines += [f"      - {evidence}" for evidence in cause.evidence]
        for trace in entry.exemplars:
            slow = max(trace.spans, key=lambda s: s.duration_s)
            lines.append(f"  exemplar: session {trace.session_id} seq "
                         f"{trace.seq} {trace.interaction!r} took "
                         f"{trace.total_s * 1e3:.1f} ms ({slow.name} "
                         f"{slow.duration_s * 1e3:.1f} ms)")
    grade = run.diagnosis.get("grade")
    if grade is not None:
        lines.append(f"attribution vs schedule: "
                     f"{grade['correct']}/{grade['faults']} correct "
                     f"(precision@1 {grade['precision_at_1']:.2f})")
    return "\n".join(lines)


def _sampled(run: _Run) -> str:
    return (f"sampled {len(run.result.request_traces or [])} of "
            f"{run.result.requests_completed} requests "
            f"({run.spec.engine} engine)")


def _anatomy(run: _Run) -> Optional[str]:
    """Latency anatomy + tail attribution + slowest span trees."""
    from repro.obs import tracing

    traces, tail = run.result.request_traces, run.args.tail
    if traces is None:
        return None
    if not traces:
        return "no requests sampled (rate too low for this run length?)"
    lines = [tracing.render_anatomy(
        tracing.latency_anatomy(traces, percentiles=(50.0, 95.0, tail))
    )]
    if len(traces) >= 10:
        lines += ["", tracing.render_tail_attribution(
            tracing.tail_attribution(traces, tail_percentile=tail)
        )]
    for trace in tracing.slowest_traces(traces, run.args.slowest):
        lines += ["", tracing.render_trace(trace)]
    return "\n".join(lines)


@dataclass(frozen=True)
class _Preset:
    """One single-run command: the pipeline's banner, sections and exports.

    ``sections`` print to stdout in order, blank-line separated, each
    skipped when it returns None.  ``defaults`` are parser defaults: the
    sample rate, and the pipeline options the command fixes instead of
    offering as flags.
    """

    help: str
    banner: Callable[[Scenario, argparse.Namespace], str]
    sections: Tuple[Callable[[_Run], Optional[str]], ...]
    exports: Tuple[str, ...]
    sample_flags: Tuple[str, ...] = ("--trace-sample",)
    defaults: dict = field(default_factory=dict)
    requires: Optional[_Requirement] = None


_PRESETS = {
    "run": _Preset(
        "run one scenario", _running,
        (_summary, _characterization, _diagnosis, _anatomy),
        ("--export-annotations", "--export-traces", "--export-chrome-trace",
         "--export-csv", "--export-json", "--export-columnar"),
        # A run's trace report stops at the tail attribution.
        defaults=dict(tail=99.0, slowest=0),
    ),
    "diagnose": _Preset(
        "run one scenario observed and print the diagnosis report",
        lambda spec, args: f"diagnosing {spec.name}: "
                           f"{spec.duration_s:.0f}s simulated ...",
        (_diagnosis,), ("--export-annotations", "--json"),
        defaults=dict(diagnose=True, profile=None, columnar=False),
    ),
    "trace": _Preset(
        "run one scenario with request tracing and print the latency "
        "anatomy",
        lambda spec, args: f"tracing {spec.name}: {spec.duration_s:.0f}s "
                           "simulated at sample rate "
                           f"{args.trace_sample:g} ...",
        (_sampled, _anatomy), ("--export-traces", "--export-chrome-trace"),
        sample_flags=("--sample", "--trace-sample"),
        defaults=dict(trace_sample=0.05, diagnose=False, profile=None,
                      columnar=False, export_annotations=None),
        requires=(lambda args: 0.0 < args.trace_sample <= 1.0,
                  "--sample must be in (0, 1]"),
    ),
}


def _scenario_from_args(
    args: argparse.Namespace, given: Sequence[str]
) -> Scenario:
    """The one run that the scenario flags of run, diagnose and trace name."""
    if args.scenario is None:
        return ExperimentConfig(**{
            row.config: getattr(args, dest)
            for dest, row in _RUN_FIELDS.items()
        }).to_scenario()
    # A catalogue entry fully describes its workload, traffic, shape and
    # faults, so flags that would silently conflict with it are
    # rejected instead of dropped.
    _reject(_uncomposed("--scenario", given, _RUN_FIELDS), "--scenario",
            "the catalogue entry defines its own workload, traffic, shape "
            "and faults")
    catalog = scenario_catalog(duration_s=args.duration, seed=args.seed,
                               clients=args.clients)
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


@contextmanager
def _profiled(path: Optional[str]):
    """Profile the block into ``path``; the profiler stops on every exit."""
    if not path:
        yield
        return
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    with profiler:
        yield
    profiler.dump_stats(path)
    stats = pstats.Stats(profiler)
    print(f"profile written to {path} ({stats.total_calls} calls, "
          f"{stats.total_tt:.2f}s); inspect with `python -m pstats {path}`",
          file=sys.stderr)


def _run_single(
    preset: _Preset, args: argparse.Namespace, given: Sequence[str]
) -> int:
    """The pipeline behind run, diagnose and trace."""
    exports = [_EXPORTS[flag] for flag in preset.exports]
    for requires in [preset.requires] + [
        row.requires for row in exports if getattr(args, _dest(row.flag))
    ]:
        if requires is not None and not requires[0](args):
            raise ConfigurationError(requires[1])
    spec = _scenario_from_args(args, given)
    print(preset.banner(spec, args), file=sys.stderr)
    with _profiled(args.profile):
        result = run_scenario(
            spec, collect_full_registry=args.columnar,
            columnar_rows=args.columnar,
            observe=args.diagnose or args.export_annotations is not None,
        )
    run = _Run(args, spec, result, diagnosis=(
        _diagnose(result, args.slo_ms) if args.diagnose else None
    ))
    texts = (section(run) for section in preset.sections)
    for index, text in enumerate(text for text in texts if text is not None):
        if index:
            print()
        print(text)
    if args.columnar and result.columnar is not None:
        print(f"columnar samples: {len(result.columnar)} ticks x "
              f"{len(result.columnar.columns)} columns", file=sys.stderr)
    for row in exports:
        path = getattr(args, _dest(row.flag))
        if path:
            row.write(attrgetter(row.source)(run), path)
            print(row.message.format(path), file=sys.stderr)
    return 0


# -- commands -----------------------------------------------------------------

#: The only ``run`` flags the ``--fleet`` path reads.
_FLEET_READS = ("fleet", "shards", "quick_fleet", "seed", "export_json")


def _cmd_fleet(args: argparse.Namespace, given: Sequence[str]) -> int:
    """``repro run --fleet``: the sharded fleet-of-fleets path."""
    from repro.shard import fleet_catalog, run_fleet, shard_partition

    _reject(
        [dest for dest in given if dest not in _FLEET_READS], "--fleet",
        "a fleet scenario defines its own pods, horizon and faults, and "
        "writes only its --export-json report",
    )
    catalog = fleet_catalog(seed=args.seed, quick=args.quick_fleet)
    if args.fleet == "list":
        for name, fleet in catalog.items():
            print(f"{name:<24s} {len(fleet.pods)} pods / "
                  f"{fleet.server_count()} servers / "
                  f"{fleet.vm_count()} VMs  {fleet.description}")
        return 0
    if args.fleet not in catalog:
        raise ConfigurationError(
            f"unknown fleet {args.fleet!r}; "
            "see `repro run --fleet list` for the catalogue"
        )
    fleet = catalog[args.fleet]
    shards = args.shards if args.shards is not None else 1
    # A count the partition rejects fails before the banner.
    shard_partition(fleet.pod_names(), shards)
    print(f"running fleet {fleet.name}: {len(fleet.pods)} pods / "
          f"{fleet.server_count()} servers / {fleet.vm_count()} VMs on "
          f"{shards} shard(s), {fleet.duration_s:.0f}s simulated",
          file=sys.stderr)
    result = run_fleet(fleet, shards=shards)
    print(result.render())
    if args.export_json:
        _write_json(result, args.export_json)
        print(f"fleet report written to {args.export_json}", file=sys.stderr)
    return 0


def _cmd_run(args: argparse.Namespace, given: Sequence[str]) -> int:
    if args.fleet is not None:
        return _cmd_fleet(args, given)
    if args.shards is not None:
        raise ConfigurationError("--shards requires --fleet")
    if args.quick_fleet:
        raise ConfigurationError("--quick-fleet requires --fleet")
    if not args.list:
        return _run_single(_PRESETS["run"], args, given)
    for name, spec in scenario_catalog(
        duration_s=args.duration, seed=args.seed
    ).items():
        kind = "open-loop" if spec.open_loop else "closed-loop"
        if spec.consolidated:
            kind += " + " + ", ".join(t.name for t in spec.tenants)
            kind += " tenant(s)"
        if spec.controller is not None:
            kind += f" + {spec.controller.kind} controller"
        print(f"{name:<40s} {kind}")
    return 0


def _cmd_sweep(args: argparse.Namespace, given: Sequence[str]) -> int:
    if args.grid is not None:
        # Presets define their own axes; reject flags that would
        # otherwise be silently dropped.
        _reject(_uncomposed("--grid", given, _SWEEP_FIELDS),
                f"--grid {args.grid}", "presets define their own axes (omit "
                "--grid to build a custom grid)")
        grid = _grid(args, [r for r in _FIELDS if "--grid" in r.composes])
        if args.grid == "paper":
            runs = paper_matrix_suite(**grid)
        else:
            # The CI smoke grid: two short virtualized runs.
            if grid["duration_s"] is None:
                grid["duration_s"] = 40.0
            if grid["clients"] is None:
                grid["clients"] = 150
            runs = suite_grid(environments=("virtualized",),
                              compositions=("browsing", "bidding"), **grid)
    elif args.placements is not None and args.placement is not None:
        raise ConfigurationError(
            "--placements and --placement are mutually exclusive; "
            "the axis grids over policies, the scalar fixes one"
        )
    else:
        runs = suite_grid(**_grid(args, _FIELDS))
    print(f"sweeping {len(runs)} runs on {args.workers} worker(s) ...",
          file=sys.stderr)
    suite = run_suite(runs, workers=args.workers, diagnose=args.diagnose,
                      slo_ms=args.slo_ms)
    reports = [suite.render()]
    if args.table:
        reports.append(render_suite_ratio_table(suite))
    if args.diagnose:
        from repro.obs.ranking import render_policy_ranking_table

        reports.append(render_policy_ranking_table(suite))
    print("\n\n".join(reports))
    if args.figures:
        from repro.experiments.figures import render_suite_figures

        paths = list(render_suite_figures(suite, args.figures))
        if args.diagnose:
            from repro.obs.ranking import write_ranking_figures

            paths += write_ranking_figures(suite, args.figures)
        for path in paths:
            print(f"figure written to {path}", file=sys.stderr)
    if args.json:
        _write_json(suite, args.json)
        print(f"suite report written to {args.json}", file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    runs = {}
    for environment in ENVIRONMENTS:
        for composition in ("browsing", "bidding"):
            spec = scenario(environment, composition,
                            duration_s=args.duration, seed=args.seed)
            print(f"running {spec.name} ...", file=sys.stderr)
            runs[(environment, composition)] = run_scenario_cached(spec)
    for report in compare_with_paper(
        runs[("virtualized", "browsing")], runs[("bare-metal", "browsing")]
    ):
        print(render_ratio_table(report))
        print()
    # Virtualized then bare metal, browsing then bidding: the argument
    # order of the Q1-Q5 checks.
    checks = qualitative_checks(*runs.values())
    for finding, passed in checks.as_dict().items():
        print(f"[{'PASS' if passed else 'FAIL'}] {finding}")
    return 0 if checks.all_pass() else 1


# -- parser -------------------------------------------------------------------

_SLO_MS = dict(type=float, default=100.0, metavar="MS",
               help="p95 SLO threshold for incident detection (default 100)")


def _single_parser(sub, name: str) -> argparse.ArgumentParser:
    """A single-run command: the scenario flags, then its exports."""
    preset = _PRESETS[name]
    parser = sub.add_parser(name, help=preset.help)
    composing = "/".join(
        row.flag for row in _RUN_FIELDS.values()
        if "--scenario" in row.composes
    )
    parser.add_argument(
        "--scenario", metavar="NAME",
        help="run a catalogue entry by name (see `repro run --list`); "
             f"composes with {composing} and rejects the other scenario "
             "flags",
    )
    for dest, row in _RUN_FIELDS.items():
        flags = preset.sample_flags if dest == "trace_sample" else (row.flag,)
        parser.add_argument(*flags, dest=dest, **row.settings)
    for flag in preset.exports:
        parser.add_argument(flag, metavar="PATH", help=_EXPORTS[flag].help)
    parser.set_defaults(**preset.defaults)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Characterizing Workload of Web "
                    "Applications on Virtualized Servers' (Wang et al., 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = _single_parser(sub, "run")
    run.add_argument("--list", action="store_true",
                     help="print the named scenario catalogue and exit")
    run.add_argument("--profile", metavar="FILE",
                     help="profile the run loop with cProfile and dump the "
                          "pstats data to FILE (inspect with `python -m "
                          "pstats FILE`)")
    run.add_argument("--columnar", action="store_true",
                     help="collect the full 518-metric registry as "
                          "per-metric arrays")
    run.add_argument("--no-report", action="store_true",
                     help="skip the characterization report")
    run.add_argument("--diagnose", action="store_true",
                     help="observe the run (annotation stream + SLO probe) "
                          "and print the run manifest, detected incidents "
                          "and ranked root-cause attribution")
    run.add_argument("--slo-ms", **_SLO_MS)
    run.add_argument("--fleet", metavar="NAME",
                     help="run a sharded fleet scenario instead of one "
                          "testbed ('list' prints the fleet catalogue); "
                          "reads only --seed/--shards/--quick-fleet/"
                          "--export-json and rejects every other flag")
    run.add_argument("--shards", type=int, metavar="N",
                     help="worker processes for --fleet (1 = inline; results "
                          "are bit-identical across shard counts)")
    run.add_argument("--quick-fleet", action="store_true",
                     help="shrink the datacenter fleet for smoke runs (fewer "
                          "pods, shorter horizon); only meaningful with "
                          "--fleet")

    sweep = sub.add_parser(
        "sweep", help="run a scenario grid across worker processes"
    )
    sweep.add_argument("--grid", choices=("paper", "quick"),
                       help="preset grid: 'paper' = the 4-run published "
                            "matrix, 'quick' = a 2-run CI smoke grid; omit "
                            "to build the grid from the axis flags below")
    sweep.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes (1 = inline, no subprocesses)")
    for row in _FIELDS:
        if row.on_sweep:
            sweep.add_argument(row.flag, **row.settings)
        if row.axis is not None:
            sweep.add_argument(row.axis, **row.axis_settings())
    sweep.add_argument("--figures", metavar="DIR",
                       help="render the aggregate ratio table as figures "
                            "into DIR (matplotlib PNGs, or text panels when "
                            "matplotlib is unavailable)")
    sweep.add_argument("--table", action="store_true",
                       help="print the aggregate ratio table (every run vs. "
                            "the first run) after the suite report")
    sweep.add_argument("--diagnose", action="store_true",
                       help="chaos sweep: run faulted cells observed, "
                            "diagnose each and print the policy ranking "
                            "table (recovery time, SLO-violation width, "
                            "$/kilorequest, attribution precision@1)")
    sweep.add_argument("--slo-ms", **_SLO_MS)
    sweep.add_argument("--json", metavar="PATH",
                       help="write the merged suite report as JSON")

    _single_parser(sub, "diagnose").add_argument("--slo-ms", **_SLO_MS)

    trace = _single_parser(sub, "trace")
    trace.add_argument("--tail", type=float, default=99.0, metavar="P",
                       help="tail percentile attributed against the median "
                            "(default 99)")
    trace.add_argument("--slowest", type=int, default=3, metavar="N",
                       help="print the N slowest sampled requests span by "
                            "span (default 3)")

    compare = sub.add_parser(
        "compare", help="reproduce the paper's cross-environment comparison"
    )
    compare.add_argument("--duration", type=float, default=240.0)
    compare.add_argument("--seed", type=int, default=42)

    sub.add_parser("table1", help="print the Table 1 metric sample")
    return parser


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
    given = [dest for dest, value in vars(args).items()
             if value != defaults[dest]]
    if args.command == "sweep":
        return _cmd_sweep(args, given)
    if args.command == "run":
        return _cmd_run(args, given)
    return _run_single(_PRESETS[args.command], args, given)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
