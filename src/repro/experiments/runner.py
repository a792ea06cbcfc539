"""End-to-end experiment runner.

``run_scenario`` builds the scenario's testbed through the
:class:`~repro.experiments.testbed.TestbedBuilder` (the paper's
single-tenant deployments, or a multi-tenant consolidated server when
the scenario carries tenant specs), arms every workload's driver,
samples traces at the 2 s period, runs the DES to the horizon and
returns an :class:`ExperimentResult` with the traces, the client
statistics, per-tenant reports and handles for deeper inspection.

``run_scenario_cached`` memoizes results by the scenario's full cache
fingerprint within the process: the benchmark suite regenerates several
figures from the same four underlying runs, exactly like the paper
extracts all its figures from one run matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.monitoring.registry import MetricRegistry
from repro.monitoring.sampler import TraceRecorder
from repro.monitoring.timeseries import TraceSet
from repro.rubis.client import SessionStats
from repro.rubis.deployment import Deployment
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.rubis.batched import BatchedOpenDriver
from repro.traffic.driver import OpenLoopDriver
from repro.traffic.trace import RateTrace
from repro.experiments.scenarios import Scenario
from repro.experiments.testbed import (  # noqa: F401  (compat re-exports)
    build_deployment,
    build_testbed,
    calibrated_environment,
)


@dataclass
class ExperimentResult:
    """Everything one run produced."""

    scenario: Scenario
    traces: TraceSet
    client_stats: SessionStats
    requests_completed: int
    mean_response_time_s: float
    deployment: Deployment = field(repr=False, default=None)
    #: The traffic driver: a ClientPopulation (closed loop) or an
    #: OpenLoopDriver (open loop).
    population: object = field(repr=False, default=None)
    full_rows: list = field(repr=False, default_factory=list)
    #: Full-registry samples as per-metric arrays (only populated when
    #: the run was made with ``columnar_rows=True``).
    columnar: object = field(repr=False, default=None)
    #: Per-interval offered request rate (open-loop runs always; closed
    #: loop only when run with ``meter_arrivals=True``).
    arrival_trace: Optional[RateTrace] = field(repr=False, default=None)
    #: Open-loop overload report (offered/admitted/shed counters).
    traffic_report: Optional[dict] = None
    #: Per-tenant summaries of consolidated runs ({tenant: summary}).
    tenant_reports: Optional[dict] = None
    #: Consolidation signals (per-domain CPU ready time); present for
    #: every virtualized run, zero-valued without co-tenants.
    interference: Optional[dict] = None
    #: Elastic-control summaries ({controller entity: report}); the
    #: control *series* land in ``traces`` under the same entity.
    control_reports: Optional[dict] = None
    #: Unified annotation stream of an ``observe=True`` run
    #: (:class:`~repro.obs.annotations.AnnotationStream`), else None.
    annotations: object = field(repr=False, default=None)
    #: Sampled request span trees of a ``trace_sample > 0`` run: a list
    #: of :class:`~repro.obs.tracing.RequestTrace`, else None.
    request_traces: object = field(repr=False, default=None)
    #: Events the DES fired over the run.
    events_fired: int = 0
    #: Wall-clock per phase: ``{"build", "simulate", "collect"}``, where
    #: ``simulate`` covers arming and the event loop's own windows.
    phases_s: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        return self.requests_completed / self.scenario.duration_s

    @property
    def open_loop(self) -> bool:
        """True when an open-loop driver (either engine) produced this."""
        return isinstance(
            self.population, (OpenLoopDriver, BatchedOpenDriver)
        )

    @property
    def p95_response_time_s(self) -> float:
        """95th-percentile response time (0 when nothing completed)."""
        times = self.client_stats.response_times_s
        if not times:
            return 0.0
        return float(np.percentile(np.asarray(times), 95.0))

    def cpu_ready_seconds(self, domain_name: str) -> float:
        """Cumulative ready time of one domain (0 for bare metal)."""
        if not self.interference:
            return 0.0
        return self.interference.get("cpu_ready_s", {}).get(domain_name, 0.0)


@dataclass
class PreparedRun:
    """A built-but-not-yet-run scenario: the windowed execution handle.

    ``run_scenario`` is ``prepare_run(...)`` + ``start()`` +
    ``sim.run_until(horizon)`` + ``collect()``.  Splitting the phases
    lets callers that need to interleave work between simulation
    windows — the sharded fleet engine advances every pod in lockstep
    windows and exchanges cross-pod traffic at the boundaries — reuse
    the exact same build/collect code path, which is what makes a
    single-pod sharded run bit-identical to a plain ``run_scenario``.
    """

    scenario: Scenario
    sim: Simulator
    streams: RandomStreams
    testbed: object
    recorder: TraceRecorder
    wall_start: float
    built_at: float
    #: Wall-clock spent inside :meth:`start` and :meth:`run_until`.
    #: Only this run's own calls count, so pods advanced in lockstep
    #: windows do not bill each other's windows as their simulate time.
    simulate_s: float = 0.0

    def start(self) -> None:
        """Arm every driver/controller (once, before the first window)."""
        started = time.perf_counter()
        self.testbed.start()
        self.simulate_s += time.perf_counter() - started

    def run_until(self, horizon_s: float) -> None:
        """Advance the event loop to ``horizon_s`` (monotonic windows)."""
        started = time.perf_counter()
        self.sim.run_until(horizon_s)
        self.simulate_s += time.perf_counter() - started

    def collect(self) -> ExperimentResult:
        """Stop recording, shut the testbed down, assemble the result."""
        simulated_at = time.perf_counter()
        self.recorder.stop()
        self.testbed.shutdown()

        # Elastic-control decisions are first-class telemetry: the
        # control series join the run's trace set (entity = the
        # controller's) and, for columnar runs, the per-metric table —
        # so they ride the same CSV/NPZ export paths as every sampled
        # metric.
        recorder = self.recorder
        testbed = self.testbed
        scenario = self.scenario
        web = testbed.web
        columnar = recorder.columnar
        for controller in testbed.controllers:
            for resource, series in controller.trace_series():
                recorder.traces.add(controller.entity, resource, series)
        if columnar is not None and testbed.controllers:
            columnar = _merge_control_columns(columnar, testbed.controllers)

        stats = web.stats
        meter = web.meter
        population = web.population
        collected_at = time.perf_counter()
        return ExperimentResult(
            scenario=scenario,
            traces=recorder.traces,
            client_stats=stats,
            requests_completed=stats.responses_received,
            mean_response_time_s=stats.mean_response_time_s,
            deployment=testbed.deployment,
            population=population,
            full_rows=recorder.full_rows,
            columnar=columnar,
            arrival_trace=(
                meter.to_rate_trace(scenario.duration_s)
                if meter is not None
                else None
            ),
            traffic_report=(
                population.summary()
                if isinstance(
                    population, (OpenLoopDriver, BatchedOpenDriver)
                )
                else None
            ),
            tenant_reports=testbed.tenant_reports(),
            interference=testbed.interference_report(),
            control_reports=testbed.control_reports(),
            annotations=(
                testbed.observer.stream
                if testbed.observer is not None
                else None
            ),
            request_traces=(
                web.tracer.traces
                if getattr(web, "tracer", None) is not None
                else None
            ),
            events_fired=self.sim.events_fired,
            phases_s={
                "build": self.built_at - self.wall_start,
                "simulate": self.simulate_s,
                "collect": collected_at - simulated_at,
            },
        )


def prepare_run(
    scenario: Scenario,
    collect_full_registry: bool = False,
    registry: Optional[MetricRegistry] = None,
    columnar_rows: bool = False,
    meter_arrivals: bool = False,
    observe: bool = False,
) -> PreparedRun:
    """Build a scenario's simulator/testbed/recorder without running it.

    The construction sequence (simulator, random streams, testbed,
    registry, recorder — in that order) is exactly ``run_scenario``'s,
    so a prepared run advanced to the horizon and collected produces
    bit-identical traces to the one-shot path.
    """
    wall_start = time.perf_counter()
    sim = Simulator()
    streams = RandomStreams(seed=scenario.seed)
    testbed = build_testbed(
        sim, streams, scenario, meter_arrivals=meter_arrivals,
        observe=observe,
    )

    if collect_full_registry and registry is None:
        from repro.monitoring.registry import build_registry

        registry = build_registry()
    recorder = TraceRecorder(
        sim,
        testbed.probes(),
        environment=scenario.environment,
        workload=scenario.mix.name,
        registry=registry,
        collect_full_registry=collect_full_registry,
        rng=streams.stream("monitoring-noise"),
        columnar_rows=columnar_rows,
    )

    built_at = time.perf_counter()
    return PreparedRun(
        scenario=scenario,
        sim=sim,
        streams=streams,
        testbed=testbed,
        recorder=recorder,
        wall_start=wall_start,
        built_at=built_at,
    )


def run_scenario(
    scenario: Scenario,
    collect_full_registry: bool = False,
    registry: Optional[MetricRegistry] = None,
    columnar_rows: bool = False,
    meter_arrivals: bool = False,
    observe: bool = False,
) -> ExperimentResult:
    """Run one scenario end to end and return its result.

    With ``columnar_rows=True`` (requires ``collect_full_registry``)
    the 518-metric samples are stored as per-metric float arrays
    (:class:`~repro.monitoring.columnar.ColumnarRows`) on
    ``result.columnar`` instead of one dict per tick in
    ``result.full_rows`` — the storage that scales to hour-long
    horizons.

    Open-loop scenarios (``scenario.traffic``) are driven by an
    :class:`~repro.traffic.driver.OpenLoopDriver` instead of the
    closed-loop client population and always produce
    ``result.arrival_trace`` and ``result.traffic_report``.  For
    closed-loop runs, ``meter_arrivals=True`` wraps the send path in an
    arrival counter so the run yields the same per-interval offered
    rate trace (the input to model fitting and open-loop replay); it
    draws no randomness and schedules no events, so traces are
    bit-identical with and without it.

    Consolidated scenarios (``scenario.tenants``) run every tenant
    workload on one shared hypervisor; their per-tenant summaries land
    on ``result.tenant_reports`` and the interference signals (CPU
    ready/steal time per domain) on ``result.interference``.

    ``observe=True`` attaches the :class:`~repro.obs.recorder.
    ObsRecorder` — the unified annotation stream plus an ``obs``
    probe-series entity — without perturbing the physics: every
    pre-existing series is bit-identical with and without it.  The
    stream lands on ``result.annotations``.
    """
    prepared = prepare_run(
        scenario,
        collect_full_registry=collect_full_registry,
        registry=registry,
        columnar_rows=columnar_rows,
        meter_arrivals=meter_arrivals,
        observe=observe,
    )
    prepared.start()
    prepared.run_until(scenario.duration_s)
    return prepared.collect()


def _merge_control_columns(columnar, controllers):
    """Append the controllers' per-tick columns to the columnar table.

    Controllers ticking on the sampling grid (the default) contribute
    one row per sample; a controller on a different cadence cannot be
    column-aligned and is skipped (its series stay in the trace set).
    The merged table is filled into one preallocated matrix and
    adopted without a defensive copy — full-registry tables reach
    multi-GB scale and must not be duplicated transiently.
    """
    from repro.monitoring.columnar import ColumnarRows

    rows = len(columnar)
    names = list(columnar.columns)
    blocks = []
    for controller in controllers:
        block_names, block = controller.columnar_block()
        if block.shape[0] != rows:
            continue
        names.extend(block_names)
        blocks.append(block)
    if not blocks:
        return columnar
    merged = np.empty((rows, len(names)))
    base_columns = len(columnar.columns)
    merged[:, :base_columns] = columnar.matrix()
    start = base_columns
    for block in blocks:
        merged[:, start:start + block.shape[1]] = block
        start += block.shape[1]
    return ColumnarRows.adopt_matrix(names, merged)


_result_cache: Dict[tuple, ExperimentResult] = {}


def run_scenario_cached(scenario: Scenario) -> ExperimentResult:
    """Memoized :func:`run_scenario` (per process, by fingerprint)."""
    key = scenario.cache_key
    if key not in _result_cache:
        _result_cache[key] = run_scenario(scenario)
    return _result_cache[key]


def clear_result_cache() -> None:
    """Drop memoized results (tests that need fresh runs)."""
    _result_cache.clear()
