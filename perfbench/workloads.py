"""The four benchmark workloads and one timed pass over each.

Every workload has two variants that do the same simulated work: a
reference variant and an alternative one.  On the single-server
workloads they are the two request engines (classic and batched); on
the fleet they are the inline coordinator and two spawn shards.  A
pass runs both variants once and times them from the outside: set-up
is build and arm, up to the first simulated event; the rest is
simulate and collect.

Everything a pass reports about the simulation (requests, response
times, trace fingerprints, fidelity against the paper) is computed
after the pass's wall clock stops, so it costs the timed region
nothing.  ``NOTE.md`` says why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import signal
import statistics
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.ratios import (
    DEFAULT_WARMUP_S,
    tier_ratios,
    vm_to_hypervisor_ratios,
)
from repro.experiments import runner
from repro.experiments.compare import compare_with_paper, qualitative_checks
from repro.experiments.paper_values import PAPER_R1, PAPER_R2
from repro.experiments.scenarios import (
    autoscaled_flash_crowd_scenario,
    flash_crowd_window,
    scenario,
)
from repro.faults.spec import CAP_THEFT, FaultSchedule, FaultSpec
from repro.monitoring.export import trace_set_sha256
from repro.shard import coordinator, datacenter_fleet, run_fleet, worker

from perfbench.layers import STAMP_KEY, Patches, timed_worker_main

FULL = "full"
TINY = "tiny"
SIZES = (FULL, TINY)

#: Simulated horizon of every single-server run.  Q5 of the paper's
#: qualitative checks needs the full 240 s.
HORIZON_S = 240.0
#: Shard heartbeat deadline: a worker silent this long fails the run.
HEARTBEAT_S = 60.0
#: Hard cap on one sharded fleet run, for a hang the heartbeat misses
#: (a worker that never boots leaves the coordinator blocked in spawn).
FLEET_DEADLINE_S = 150.0

ENGINES = ("classic", "batched")

Span = Tuple[float, float]

PAPER_CELLS = (
    ("virtualized", "browsing"),
    ("virtualized", "bidding"),
    ("bare-metal", "browsing"),
    ("bare-metal", "bidding"),
)


@dataclass
class Variant:
    """One variant's outcome in one pass."""

    #: ``(start, end)`` perf-counter spans of build and arm.
    setup_spans: List[Span]
    #: Spans of simulate + collect (the throughput denominator).
    run_spans: List[Span]
    #: Host seconds inside the event loop, as seen from outside it.
    simulate_s: float
    requests: int
    #: p90 response time; on the fleet, whose pod summaries carry no
    #: p90, the median pod p95.
    p90_s: float
    fingerprint: str
    #: Multiplicative error ``max(m/p, p/m)`` of every paper ratio cell
    #: this variant's runs produce.
    paper_factors: List[float]
    #: Program-reported counts the per-layer account reads.
    facts: Counter
    #: Worker spawn + import seconds (sharded variant only).
    spawn_s: float = 0.0
    #: Host slowdown the shard workers sampled while they simulated
    #: (sharded variant only; others are sampled in this process).
    run_slowdown: Optional[float] = None


@dataclass
class Pass:
    """One run of every variant of a workload."""

    span: Span
    variants: Dict[str, Variant]
    errors: List[str]
    attempted: int
    analysis_s: float = 0.0
    checks_failed: int = 0

    @property
    def wall_s(self) -> float:
        return self.span[1] - self.span[0]

    @property
    def setup_spans(self) -> List[Span]:
        return [s for v in self.variants.values() for s in v.setup_spans]


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    #: (reference, alternative) variant names.
    variants: Tuple[str, str]
    run_pass: Callable[[int, str], Pass]
    #: One set-up of every variant without running it, or None when a
    #: variant cannot be set up without running (the spawn shards).
    setup_once: Optional[Callable[[int, str], List[Span]]] = None
    #: A pass of one variant alone, to repeat the alternative variant.
    run_variant: Optional[Callable[[int, str, str], Pass]] = None


# -- shared helpers -----------------------------------------------------------


def factor(a: float, b: float) -> float:
    """``max(a/b, b/a)``: 1 when equal, e^|ln(a/b)| in general."""
    return max(a, b) / min(a, b)


def _ratio_factors(reports) -> List[float]:
    return [factor(row[1], row[2]) for report in reports for row in report.rows()]


def _cell_factors(result, ratios, paper) -> List[float]:
    # Short fleet horizons keep half their samples after the warm-up.
    warmup_s = min(DEFAULT_WARMUP_S, result.scenario.duration_s / 2.0)
    measured = ratios(result.traces, warmup_s).as_dict()
    return [factor(measured[key], value) for key, value in paper.as_dict().items()]


def _r1_factors(result) -> List[float]:
    """R1, the web/db tier ratios: any virtualized browsing run has them."""
    return _cell_factors(result, tier_ratios, PAPER_R1)


def _r1_r2_factors(result) -> List[float]:
    """R1 and R2.  R2 (VMs over dom0) needs a dom0 serving only web + db."""
    return _r1_factors(result) + _cell_factors(
        result, vm_to_hypervisor_ratios, PAPER_R2
    )


def _facts(result) -> Counter:
    """Layer counts an :class:`ExperimentResult` reports."""
    facts = Counter(events=result.events_fired)
    facts["metric_values"] += sum(len(series) for _, series in result.traces.items())
    if result.columnar is not None:
        facts["metric_values"] += len(result.columnar) * (
            len(result.columnar.columns) - 1
        )
    report = result.traffic_report or {}
    for key in ("offered", "admitted", "shed", "retried"):
        facts[key] += report.get(key, 0)
    facts["spans"] += sum(len(t.spans) for t in result.request_traces or ())
    for report in (result.control_reports or {}).values():
        kind = report.get("kind")
        if kind == "faults":
            facts["injected"] += report["injected"]
        elif kind == "fleet":
            facts["migrations"] += report["num_actions"]
        elif "num_actions" in report:
            facts["actions"] += report["num_actions"]
    return facts


def _digest(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
    return digest.hexdigest()


def _error(label: str) -> str:
    return f"{label}: {traceback.format_exc(limit=4).strip()}"


@contextmanager
def deadline(seconds: float):
    """Raise ``TimeoutError`` in the main thread after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"run exceeded its {seconds:.0f} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- single-server workloads --------------------------------------------------


@dataclass
class _Cells:
    setup_spans: List[Span] = field(default_factory=list)
    run_spans: List[Span] = field(default_factory=list)
    simulate_s: float = 0.0
    results: list = field(default_factory=list)


def _run_cells(specs, options) -> _Cells:
    """``run_scenario``'s exact sequence, timed phase by phase."""
    cells = _Cells()
    for spec in specs:
        started = time.perf_counter()
        prepared = runner.prepare_run(spec, **options)
        prepared.start()
        armed = time.perf_counter()
        prepared.run_until(spec.duration_s)
        simulated = time.perf_counter()
        result = prepared.collect()
        collected = time.perf_counter()
        if result.requests_completed <= 0:
            raise RuntimeError(f"{spec.name}: completed no requests")
        cells.setup_spans.append((started, armed))
        cells.run_spans.append((armed, collected))
        cells.simulate_s += simulated - armed
        cells.results.append(result)
    return cells


def _variant(cells: _Cells, paper_factors) -> Variant:
    results = cells.results
    times = np.concatenate(
        [np.asarray(r.client_stats.response_times_s) for r in results]
    )
    facts = Counter()
    for result in results:
        facts.update(_facts(result))
    return Variant(
        setup_spans=cells.setup_spans,
        run_spans=cells.run_spans,
        simulate_s=cells.simulate_s,
        requests=sum(r.requests_completed for r in results),
        p90_s=float(np.percentile(times, 90.0)),
        fingerprint=_digest(trace_set_sha256(r.traces) for r in results),
        paper_factors=paper_factors,
        facts=facts,
    )


@dataclass(frozen=True)
class SingleServer:
    """A workload of ``run_scenario`` cells run once per engine."""

    #: (seed, size, engine) -> the scenarios one variant runs.
    cells: Callable[[int, str, str], list]
    options: dict
    #: Whether the variant's cells are the paper's four-run matrix.
    paper_matrix: bool = False

    def run_pass(self, seed: int, size: str) -> Pass:
        errors = []
        attempted = 0
        ran = {}
        analysis_s = 0.0
        checks_failed = 0
        reports = {}
        started = time.perf_counter()
        for engine in ENGINES:
            attempted += 1
            try:
                ran[engine] = _run_cells(
                    self.cells(seed, size, engine), self.options
                )
            except Exception:
                errors.append(_error(engine))
                continue
            if self.paper_matrix:
                attempted += 1
                begun = time.perf_counter()
                vb, vbid, bb, bbid = ran[engine].results
                reports[engine] = compare_with_paper(vb, bb)
                checks = qualitative_checks(vb, vbid, bb, bbid).as_dict()
                analysis_s += time.perf_counter() - begun
                failing = [name for name, ok in checks.items() if not ok]
                checks_failed += len(failing)
                if failing:
                    errors.append(f"{engine}: paper checks fail: {failing}")
        span = (started, time.perf_counter())
        variants = {
            engine: _variant(cells, self._paper_factors(cells, reports.get(engine)))
            for engine, cells in ran.items()
        }
        return Pass(
            span=span,
            variants=variants,
            errors=errors,
            attempted=attempted,
            analysis_s=analysis_s,
            checks_failed=checks_failed,
        )

    def _paper_factors(self, cells, reports=None) -> List[float]:
        if not self.paper_matrix:
            return _r1_r2_factors(cells.results[0])
        if reports is None:
            vb, _, bb, _ = cells.results
            reports = compare_with_paper(vb, bb)
        return _ratio_factors(reports)

    def run_variant(self, seed: int, size: str, engine: str) -> Pass:
        """One engine's cells alone: a pass of a single variant."""
        started = time.perf_counter()
        try:
            cells = _run_cells(self.cells(seed, size, engine), self.options)
        except Exception:
            span = (started, time.perf_counter())
            return Pass(span, {}, [_error(engine)], attempted=1)
        span = (started, time.perf_counter())
        variant = _variant(cells, self._paper_factors(cells))
        return Pass(span, {engine: variant}, [], attempted=1)

    def setup_once(self, seed: int, size: str) -> List[Span]:
        spans = []
        for engine in ENGINES:
            for spec in self.cells(seed, size, engine):
                started = time.perf_counter()
                runner.prepare_run(spec, **self.options).start()
                spans.append((started, time.perf_counter()))
        return spans


def _web_cells(seed: int, size: str, engine: str) -> list:
    clients = 5000 if size == FULL else 200
    spec = scenario(
        "virtualized", "browsing", duration_s=HORIZON_S, seed=seed,
        clients=clients,
    )
    return [replace(spec, engine=engine)]


def _flash_cells(seed: int, size: str, engine: str) -> list:
    spec = autoscaled_flash_crowd_scenario(
        duration_s=HORIZON_S, seed=seed,
        clients=None if size == FULL else 100,
    )
    surge_start, _ = flash_crowd_window(spec)
    theft = FaultSchedule(
        (FaultSpec(CAP_THEFT, at_s=surge_start, target="web-vm", magnitude=0.1),)
    )
    return [replace(spec, engine=engine, faults=theft, trace_sample=0.01)]


def _paper_cells(seed: int, size: str, engine: str) -> list:
    clients = None if size == FULL else 100
    return [
        replace(
            scenario(env, mix, duration_s=HORIZON_S, seed=seed, clients=clients),
            engine=engine,
        )
        for env, mix in PAPER_CELLS
    ]


# -- the datacenter fleet -----------------------------------------------------


def _fleet(seed: int, size: str):
    if size == FULL:
        return datacenter_fleet(seed=seed)
    return datacenter_fleet(seed=seed, pods=2, duration_s=20.0, clients=20)


def _fleet_inline(fleet, collected):
    """The inline run: stamp its first window, keep each pod's result.

    A pod otherwise reduces its result to a plain-data summary.
    """
    first = []
    advance = coordinator.PodGroup.advance_to
    collect = runner.PreparedRun.collect

    def stamped_advance(group, horizon_s):
        if not first:
            first.append(time.perf_counter())
        return advance(group, horizon_s)

    def kept_collect(prepared):
        result = collect(prepared)
        collected.append(result)
        return result

    with Patches() as patches:
        patches.set(coordinator.PodGroup, "advance_to", stamped_advance)
        patches.set(runner.PreparedRun, "collect", kept_collect)
        begun = time.perf_counter()
        result = run_fleet(fleet, shards=1, heartbeat_timeout_s=HEARTBEAT_S)
        ended = time.perf_counter()
    return result, begun, first[0], ended, 0.0, None


def _fleet_sharded(fleet, collected):
    """The 2-shard run, with set-up and speed stamps from the workers."""
    with Patches() as patches, deadline(FLEET_DEADLINE_S):
        patches.set(worker, "worker_main", timed_worker_main)
        begun = time.perf_counter()
        result = run_fleet(fleet, shards=2, heartbeat_timeout_s=HEARTBEAT_S)
        ended = time.perf_counter()
    stamps = [pod.pop(STAMP_KEY) for pod in result.pods.values()]
    armed = max(s["first_window"] for s in stamps)
    spawned = max(s["entered"] for s in stamps)
    slowdowns = [s["slowdown"] for s in stamps if s["slowdown"]]
    slowdown = statistics.fmean(slowdowns) if slowdowns else None
    return result, begun, armed, ended, spawned - begun, slowdown


_FLEET_RUNS = {"inline": _fleet_inline, "shards2": _fleet_sharded}


def _fleet_variants(seed: int, size: str, names) -> Pass:
    fleet = _fleet(seed, size)
    errors = []
    runs = {}
    collected = []
    started = time.perf_counter()
    for name in names:
        try:
            runs[name] = _FLEET_RUNS[name](fleet, collected)
        except Exception:
            errors.append(_error(name))
    span = (started, time.perf_counter())

    variants = {}
    # A pod's dom0 also serves its 38 co-tenant VMs, so only R1
    # compares with the paper's two-VM server.
    paper = [f for r in collected for f in _r1_factors(r)]
    for name, run in runs.items():
        result, begun, armed, ended, spawn_s, slowdown = run
        if result.requests_completed <= 0:
            errors.append(f"{name}: completed no requests")
            continue
        facts = Counter(events=result.events_fired)
        if name == "inline":
            facts = sum((_facts(r) for r in collected), Counter())
        variants[name] = Variant(
            setup_spans=[(begun, armed)],
            run_spans=[(armed, ended)],
            simulate_s=0.0,
            requests=result.requests_completed,
            p90_s=statistics.median(
                pod["p95_ms"] for pod in result.pods.values()
            ) / 1000.0,
            fingerprint=result.merged_sha256,
            # The shards run the inline pods bit for bit (checked just
            # below), so their ratio cells are the inline ones.
            paper_factors=paper,
            facts=facts,
            spawn_s=spawn_s,
            run_slowdown=slowdown,
        )
    if len(variants) == 2 and (
        variants["inline"].fingerprint != variants["shards2"].fingerprint
    ):
        errors.append("shards2: merged fingerprint differs from inline")
    return Pass(span, variants, errors, attempted=len(names))


def _fleet_pass(seed: int, size: str) -> Pass:
    return _fleet_variants(seed, size, tuple(_FLEET_RUNS))


def _fleet_variant(seed: int, size: str, name: str) -> Pass:
    return _fleet_variants(seed, size, (name,))


_WEB = SingleServer(
    _web_cells, {"collect_full_registry": True, "columnar_rows": True}
)
_FLASH = SingleServer(_flash_cells, {"observe": True})
_PAPER = SingleServer(_paper_cells, {}, paper_matrix=True)


def _single(name: str, seed: int, workload: SingleServer) -> Workload:
    return Workload(
        name, seed, ENGINES, workload.run_pass, workload.setup_once,
        workload.run_variant,
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        _single("web_million", 7, _WEB),
        _single("flash_crowd_theft", 42, _FLASH),
        Workload(
            "datacenter_fleet", 42, tuple(_FLEET_RUNS), _fleet_pass,
            run_variant=_fleet_variant,
        ),
        _single("paper_matrix", 42, _PAPER),
    )
}
