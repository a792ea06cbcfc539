"""Parallel experiment-suite orchestration.

The paper's figures come from a *matrix* of runs (environments x
compositions); the growth roadmap multiplies that by traffic kinds,
stress scales and tenant mixes.  This module runs such grids across
worker processes:

* :func:`suite_grid` expands declarative axes into
  :class:`SuiteRun`s — each a serializable
  :class:`~repro.config.ExperimentConfig` plus a stable run id;
* per-run seeds derive from the suite seed and the run id through
  SHA-256 (:func:`derive_run_seed`), so a run's random streams depend
  only on *which* run it is — never on worker count, scheduling order
  or process reuse (the multiprocess-determinism invariant);
* :func:`run_suite` executes the grid inline (``workers=1``) or on a
  process pool forked from the package's forkserver
  (:mod:`repro.processes`), returning one :class:`SuiteResult` whose
  merged per-run summaries and trace fingerprints are identical either
  way;
* interference axes: grids may add consolidated (multi-tenant) runs
  through ``tenant_mixes``, and :func:`interference_checks` verifies
  the qualitative consolidation findings (web p95 latency and CPU
  ready time strictly higher than the web-only baseline).

Workers communicate in plain data (config dicts in, summary dicts
out): results are mergeable, JSON-exportable and independent of any
in-process object graph.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import ExperimentConfig
from repro.errors import ConfigurationError
from repro.experiments.scenarios import default_duration_s
from repro.monitoring.export import trace_set_sha256
from repro.workloads.base import TenantSpec

#: Tenant-mix tokens the CLI grid axis accepts.
TENANT_MIXES: Dict[str, Tuple[TenantSpec, ...]] = {
    "none": (),
    "batch": (TenantSpec(),),
}


def derive_run_seed(base_seed: int, run_id: str) -> int:
    """Deterministic 63-bit per-run seed from the suite seed + run id.

    Stable across processes, platforms and Python hash randomization
    (SHA-256, not ``hash()``), and independent of how runs are
    distributed over workers — the property that makes a 4-worker
    sweep bit-identical to the same sweep run serially.
    """
    digest = hashlib.sha256(
        f"{int(base_seed)}:{run_id}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class SuiteRun:
    """One cell of a suite grid: a run id plus its full config."""

    run_id: str
    config: ExperimentConfig


@dataclass
class RunSummary:
    """Plain-data outcome of one suite run (picklable, mergeable)."""

    run_id: str
    scenario_name: str
    seed: int
    duration_s: float
    wall_clock_s: float
    requests_completed: int
    throughput_rps: float
    mean_response_time_s: float
    p95_response_time_s: float
    trace_sha256: str
    traffic_report: Optional[dict] = None
    tenant_reports: Optional[dict] = None
    cpu_ready_s: Optional[dict] = None
    control_reports: Optional[dict] = None
    #: Diagnosis summary of an observed (``diagnose=True``) faulted
    #: cell — incidents, ranked causes, precision@1 grade, recovery
    #: score and $-per-kilorequest (:func:`repro.obs.ranking.
    #: diagnosis_summary`); None for undiagnosed cells.
    diagnosis: Optional[dict] = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunSummary":
        return cls(**data)


@dataclass
class SuiteResult:
    """Merged outcome of a whole suite.

    The per-run seeds (derived by :func:`suite_grid` from the suite
    seed and each run id) are recorded on the individual
    :class:`RunSummary` entries.
    """

    summaries: Dict[str, RunSummary]
    workers: int
    wall_clock_s: float

    def merged_sha256(self) -> str:
        """Order-independent fingerprint over every run's traces."""
        digest = hashlib.sha256()
        for run_id in sorted(self.summaries):
            digest.update(run_id.encode("utf-8"))
            digest.update(self.summaries[run_id].trace_sha256.encode("utf-8"))
        return digest.hexdigest()

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "wall_clock_s": self.wall_clock_s,
            "merged_sha256": self.merged_sha256(),
            "runs": {
                run_id: summary.to_dict()
                for run_id, summary in self.summaries.items()
            },
        }

    def render(self) -> str:
        """Human-readable suite report table."""
        lines = [
            f"{'run':<44s} {'reqs':>8s} {'X req/s':>8s} "
            f"{'mean ms':>8s} {'p95 ms':>8s}  trace sha256",
        ]
        for run_id, s in self.summaries.items():
            lines.append(
                f"{run_id:<44s} {s.requests_completed:>8d} "
                f"{s.throughput_rps:>8.1f} "
                f"{s.mean_response_time_s * 1000:>8.1f} "
                f"{s.p95_response_time_s * 1000:>8.1f}  "
                f"{s.trace_sha256[:16]}"
            )
        lines.append(
            f"{len(self.summaries)} runs, {self.workers} worker(s), "
            f"{self.wall_clock_s:.1f}s wall clock; merged sha256 "
            f"{self.merged_sha256()[:16]}"
        )
        return "\n".join(lines)


# -- grid construction ----------------------------------------------------


def suite_grid(
    environments: Sequence[str] = ("virtualized",),
    compositions: Sequence[str] = ("browsing",),
    traffics: Sequence[Optional[str]] = (None,),
    scales: Sequence[float] = (1.0,),
    tenant_mixes: Sequence[Tuple[TenantSpec, ...]] = ((),),
    controllers: Sequence[Optional[str]] = (None,),
    servers: Sequence[int] = (1,),
    placement: Optional[str] = None,
    placements: Optional[Sequence[str]] = None,
    faults: Sequence[Optional[str]] = (None,),
    engines: Sequence[str] = ("classic",),
    duration_s: Optional[float] = None,
    seed: int = 42,
    clients: Optional[int] = None,
) -> List[SuiteRun]:
    """Expand grid axes into a list of suite runs.

    The run id encodes every axis value, and the per-run seed derives
    from it (:func:`derive_run_seed`).  Invalid cells — tenants,
    controllers, multi-server fleets or fault schedules on a bare-metal
    environment — are skipped, so mixed grids stay declarative.  The
    ``controllers`` axis takes policy tokens
    (``none``/``static``/``threshold``/``pid``/``predictive``), so one
    sweep can grid the same workload over scaling policies; the
    ``servers`` axis grids over fleet sizes (``placement`` selects the
    policy multi-server cells place with); the ``faults`` axis grids
    over fault-schedule tokens (``--faults`` syntax, ``none`` for the
    fault-free cell); the ``engines`` axis grids over request engines
    (``classic``/``batched``), letting one sweep compare the two
    engines cell by cell at matched seeds; the ``placements`` axis
    grids multi-server cells over placement policies (mutually
    exclusive with the scalar ``placement``) — single-server cells,
    which place nothing, are emitted once rather than per policy.
    """
    if placements is not None:
        if placement is not None:
            raise ConfigurationError(
                "placement and placements are mutually exclusive"
            )
        if not placements:
            raise ConfigurationError("placements axis must not be empty")
        placement_axis: Sequence[Optional[str]] = tuple(placements)
    else:
        placement_axis = (placement,)
    runs: List[SuiteRun] = []
    for (
        environment, composition, traffic, scale, tenants, controller,
        server_count, placement_token, fault_token, engine,
    ) in itertools.product(
        environments, compositions, traffics, scales, tenant_mixes,
        controllers, servers, placement_axis, faults, engines,
    ):
        tenants = tuple(tenants)
        if tenants and environment != "virtualized":
            continue  # consolidation needs a hypervisor
        if controller in ("none",):
            controller = None
        if controller is not None and environment != "virtualized":
            continue  # resizing is a hypervisor feature
        if server_count > 1 and environment != "virtualized":
            continue  # placement is a hypervisor-layer feature
        if fault_token in ("none",):
            fault_token = None
        if fault_token is not None and environment != "virtualized":
            continue  # injectors actuate hypervisor state
        if server_count == 1 and placement_token != placement_axis[0]:
            continue  # a single server places nothing: one cell only
        parts = [environment, composition]
        if traffic not in (None, "closed"):
            parts.append(str(traffic))
        if scale != 1.0:
            parts.append(f"x{scale:g}")
        if tenants:
            parts.append("+".join(t.name for t in tenants))
        # The per-run seed is derived *before* the controller,
        # fleet-size, placement-policy, fault and engine tokens are
        # appended: cells that differ only in scaling policy, server
        # count, placement, injected faults
        # or request engine change the *infrastructure* (or what
        # breaks it, or how the lifecycle executes), not the offered
        # workload, and must run the same seed (and therefore the same
        # arrival stream) — or the static-vs-policy, s2/s1,
        # faulted-vs-clean and batched-vs-classic ratios in the
        # aggregate table would compare across seed noise.
        seed_id = "/".join(parts)
        if server_count > 1:
            parts.append(f"s{server_count}")
            if placements is not None:
                parts.append(f"pl-{placement_token}")
        if controller is not None:
            parts.append(f"ctl-{controller}")
        if fault_token is not None:
            parts.append(f"!{fault_token}")
        if engine != "classic":
            parts.append(f"eng-{engine}")
        run_id = "/".join(parts)
        config = ExperimentConfig(
            environment=environment,
            composition=composition,
            duration_s=duration_s,
            seed=derive_run_seed(seed, seed_id),
            clients=clients,
            scale=scale,
            traffic=traffic,
            tenants=tenants,
            controller=controller,
            servers=server_count,
            placement=placement_token if server_count > 1 else None,
            faults=fault_token,
            engine=engine,
        )
        runs.append(SuiteRun(run_id=run_id, config=config))
    if not runs:
        raise ConfigurationError("suite grid expanded to zero valid runs")
    return runs


def paper_matrix_suite(
    duration_s: Optional[float] = None,
    seed: int = 42,
    clients: Optional[int] = None,
    engines: Sequence[str] = ("classic",),
) -> List[SuiteRun]:
    """The paper's published 4-run matrix (2 environments x 2 workloads).

    ``engines`` optionally grids the matrix over request engines (the
    input to the classic-vs-batched equivalence harness).
    """
    return suite_grid(
        environments=("virtualized", "bare-metal"),
        compositions=("browsing", "bidding"),
        engines=engines,
        duration_s=duration_s,
        seed=seed,
        clients=clients,
    )


# -- execution -------------------------------------------------------------


def execute_run(
    run: SuiteRun,
    diagnose: bool = False,
    slo_ms: float = 100.0,
) -> RunSummary:
    """Run one suite cell in this process and summarize it.

    With ``diagnose=True``, cells that *inject faults* run observed
    (annotation stream + ``obs`` probe) and carry a
    :func:`~repro.obs.ranking.diagnosis_summary`; fault-free cells
    stay unobserved, so their traces keep the pinned fingerprints.
    """
    from repro.experiments.runner import run_scenario

    scenario = run.config.to_scenario()
    observed = diagnose and scenario.faults is not None
    started = time.perf_counter()
    result = run_scenario(scenario, observe=observed)
    wall = time.perf_counter() - started
    diagnosis = None
    if observed:
        from repro.obs.ranking import diagnosis_summary

        diagnosis = diagnosis_summary(result, slo_ms=slo_ms)
    interference = result.interference or {}
    return RunSummary(
        run_id=run.run_id,
        scenario_name=scenario.name,
        seed=scenario.seed,
        duration_s=scenario.duration_s,
        wall_clock_s=wall,
        requests_completed=result.requests_completed,
        throughput_rps=result.throughput_rps,
        mean_response_time_s=result.mean_response_time_s,
        p95_response_time_s=result.p95_response_time_s,
        trace_sha256=trace_set_sha256(result.traces),
        traffic_report=result.traffic_report,
        tenant_reports=result.tenant_reports,
        cpu_ready_s=interference.get("cpu_ready_s"),
        control_reports=result.control_reports,
        diagnosis=diagnosis,
    )


def warm_worker() -> None:
    """Pre-pay a worker process's one-time warmup at pool start.

    A worker is forked with the stack already imported, but its first
    run would otherwise calibrate both environments lazily (see
    PERFORMANCE.md); running this as the pool initializer overlaps that
    cost with pool startup and guarantees every later run in the worker
    hits the memoized calibration and matrix caches.  Pure warmup: it
    draws no randomness and builds no simulator state, so results are
    bit-identical with or without it.
    """
    from repro.experiments.runner import run_scenario  # noqa: F401
    from repro.experiments.testbed import calibrated_environment
    from repro.rubis.transitions import bidding_matrix, browsing_matrix

    for environment in ("virtualized", "bare-metal"):
        calibrated_environment(environment)
    for matrix in (browsing_matrix(), bidding_matrix()):
        matrix.stationary_distribution()


def _execute_payload(payload: dict) -> dict:
    """Worker entry point: plain dict in, plain dict out."""
    run = SuiteRun(
        run_id=payload["run_id"],
        config=ExperimentConfig.from_dict(payload["config"]),
    )
    return execute_run(
        run,
        diagnose=payload.get("diagnose", False),
        slo_ms=payload.get("slo_ms", 100.0),
    ).to_dict()


def run_suite(
    runs: Iterable[SuiteRun],
    workers: int = 1,
    diagnose: bool = False,
    slo_ms: float = 100.0,
) -> SuiteResult:
    """Execute a suite grid and merge the per-run summaries.

    ``workers=1`` runs inline (no subprocesses).  With more workers the
    runs execute on a process pool: each worker is forked from a server
    that only imported the package (:mod:`repro.processes`), receives
    configs as plain dicts and returns summaries as plain dicts, so
    results cannot depend on inherited process state.  A worker reads
    no environment variable, so a config without a run length gets
    :func:`~repro.experiments.scenarios.default_duration_s` here,
    before it leaves.  Run ids, seeds and therefore traces are
    identical across worker counts; only wall clock changes.

    ``diagnose=True`` turns the sweep into a chaos sweep: faulted
    cells run observed and their summaries carry a diagnosis (graded
    against ``slo_ms``) — the input to the policy ranking table.
    Diagnoses, like traces, are identical across worker counts.
    """
    run_list = list(runs)
    if not run_list:
        raise ConfigurationError("run_suite needs at least one run")
    ids = [run.run_id for run in run_list]
    if len(set(ids)) != len(ids):
        raise ConfigurationError(f"duplicate run ids in suite: {ids}")
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    workers = min(workers, len(run_list))
    started = time.perf_counter()
    if workers == 1:
        summaries = [
            execute_run(run, diagnose=diagnose, slo_ms=slo_ms)
            for run in run_list
        ]
    else:
        from repro.processes import worker_context

        payloads = []
        for run in run_list:
            config = run.config.to_dict()
            if config["duration_s"] is None:
                config["duration_s"] = default_duration_s()
            payloads.append({
                "run_id": run.run_id,
                "config": config,
                "diagnose": diagnose,
                "slo_ms": slo_ms,
            })
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=worker_context(),
            initializer=warm_worker,
        ) as pool:
            summaries = [
                RunSummary.from_dict(out)
                for out in pool.map(_execute_payload, payloads)
            ]
    wall = time.perf_counter() - started
    return SuiteResult(
        summaries={s.run_id: s for s in summaries},
        workers=workers,
        wall_clock_s=wall,
    )


# -- aggregate analysis over merged suite results ---------------------------


def suite_ratio_data(
    suite: "SuiteResult", baseline_run_id: Optional[str] = None
) -> Dict[str, Dict[str, float]]:
    """Per-run metrics plus ratios against a baseline run.

    The paper's headline results are *ratio* tables (virtualized over
    bare metal); this is the suite-level generalization: every run's
    throughput, mean/p95 latency, shed fraction and control-action
    count, each paired with its ratio to the ``baseline_run_id`` run
    (default: the first run of the suite).  Plain data, so the table
    renders from a merged suite JSON as well as from a live result.
    """
    if not suite.summaries:
        raise ConfigurationError("suite has no runs to tabulate")
    run_ids = list(suite.summaries)
    baseline_id = baseline_run_id or run_ids[0]
    if baseline_id not in suite.summaries:
        raise ConfigurationError(
            f"unknown baseline run {baseline_id!r}; suite has {run_ids}"
        )

    def metrics(summary: RunSummary) -> Dict[str, float]:
        traffic = summary.traffic_report or {}
        controls = summary.control_reports or {}
        actions = sum(
            report.get("num_actions", 0) for report in controls.values()
        )
        return {
            "throughput_rps": summary.throughput_rps,
            "mean_ms": summary.mean_response_time_s * 1000.0,
            "p95_ms": summary.p95_response_time_s * 1000.0,
            "shed_fraction": float(traffic.get("shed_fraction", 0.0)),
            "control_actions": float(actions),
        }

    baseline = metrics(suite.summaries[baseline_id])
    table: Dict[str, Dict[str, float]] = {}
    for run_id in run_ids:
        row = metrics(suite.summaries[run_id])
        for name in list(row):
            base = baseline[name]
            row[f"{name}_ratio"] = (
                row[name] / base if base else float("nan")
            )
        table[run_id] = row
    return table


def render_suite_ratio_table(
    suite: "SuiteResult", baseline_run_id: Optional[str] = None
) -> str:
    """Human-readable aggregate ratio table for a whole sweep.

    One row per run; each metric prints as ``value (ratio x)`` against
    the baseline run, which is marked with ``*``.
    """
    data = suite_ratio_data(suite, baseline_run_id)
    baseline_id = baseline_run_id or next(iter(suite.summaries))
    columns = ("throughput_rps", "mean_ms", "p95_ms", "shed_fraction")
    header = f"{'run':<44s}" + "".join(
        f" {name:>22s}" for name in columns
    ) + f" {'actions':>8s}"
    lines = [header]
    for run_id, row in data.items():
        label = f"{run_id}{'*' if run_id == baseline_id else ''}"
        cells = []
        for name in columns:
            ratio = row[f"{name}_ratio"]
            ratio_text = f"{ratio:.2f}x" if ratio == ratio else "-"
            cells.append(f" {row[name]:>13.3g} ({ratio_text:>6s})")
        lines.append(
            f"{label:<44s}" + "".join(cells)
            + f" {row['control_actions']:>8.0f}"
        )
    lines.append(f"baseline (*): {baseline_id}")
    return "\n".join(lines)


# -- qualitative consolidation checks -------------------------------------


def interference_checks(
    web_only: "RunSummary", consolidated: "RunSummary"
) -> Dict[str, bool]:
    """The consolidation findings, as named pass/fail checks.

    Compares a web-only baseline against the same web workload running
    next to batch tenants: co-location must *strictly* raise the web
    tier's p95 latency and its domain's CPU ready (steal) time, and
    the batch tenant must have made real progress (the interference is
    caused by work, not by accounting).
    """
    ready = consolidated.cpu_ready_s or {}
    baseline_ready = (web_only.cpu_ready_s or {}).get("web-vm", 0.0)
    tenants = consolidated.tenant_reports or {}
    batch_progress = sum(
        report.get("tasks_completed", 0) for report in tenants.values()
    )
    return {
        "web p95 latency strictly above web-only baseline": (
            consolidated.p95_response_time_s > web_only.p95_response_time_s
        ),
        "web-vm CPU ready time strictly above baseline": (
            ready.get("web-vm", 0.0) > baseline_ready
        ),
        "batch tenant completed tasks": batch_progress > 0,
    }
