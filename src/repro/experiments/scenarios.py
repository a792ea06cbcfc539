"""Experiment scenarios: the paper's runs as declarative objects.

A scenario = (environment, workload mix, duration, seed).  The paper's
matrix is two environments x five compositions, profiled for ~20
minutes.  Full-length runs are expensive for CI, so the default duration
is 240 s (120 samples); set ``REPRO_FULL_DURATION=1`` to use the paper's
1200 s.

Burst windows (the RAM-jump driver, see
:mod:`repro.rubis.memorymodel`) are expressed as fractions of the run
duration so short runs exhibit the same qualitative pattern:

* virtualized browsing: jumps in the middle/late run (Figure 2 left),
* virtualized bidding: no jumps — smooth curve (Figure 2 middle),
* bare-metal bidding: jumps *early* (Figure 6, "the jumps happen
  earlier in time than those in the virtualized system"),
* bare-metal browsing: jumps mid-run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.control.spec import STATIC, ControllerSpec
from repro.errors import ConfigurationError
from repro.faults.spec import (
    BOT_FLOOD,
    CAP_THEFT,
    CRASH,
    FLASH_CROWD,
    FaultSchedule,
    FaultSpec,
)
from repro.placement.spec import (
    FIRST_FIT,
    FleetSpec,
    validate_placement_policy,
)
from repro.rubis.workload import (
    PAPER_COMPOSITIONS,
    BurstSchedule,
    SessionType,
    WorkloadMix,
)
from repro.traffic.shapes import FlashCrowdShape, RateShape
from repro.traffic.spec import TrafficSpec
from repro.workloads.base import TenantSpec

VIRTUALIZED = "virtualized"
BARE_METAL = "bare-metal"
ENVIRONMENTS = (VIRTUALIZED, BARE_METAL)

CLASSIC_ENGINE = "classic"
BATCHED_ENGINE = "batched"
ENGINES = (CLASSIC_ENGINE, BATCHED_ENGINE)

#: CI-friendly default run length; the paper used ~1200 s.
SHORT_DURATION_S = 240.0
FULL_DURATION_S = 1200.0


def default_duration_s() -> float:
    """240 s by default; the paper's 1200 s with REPRO_FULL_DURATION=1."""
    if os.environ.get("REPRO_FULL_DURATION", "").strip() in ("1", "true", "yes"):
        return FULL_DURATION_S
    return SHORT_DURATION_S


@dataclass(frozen=True)
class Scenario:
    """One experiment run specification.

    ``traffic`` selects the traffic driver: None (or a closed-kind
    spec) keeps the paper's closed-loop client population; any
    open-loop :class:`~repro.traffic.spec.TrafficSpec` replaces it with
    an arrival-process-driven :class:`~repro.traffic.driver.
    OpenLoopDriver`.

    ``tenants`` adds co-resident VMs to the testbed: each
    :class:`~repro.workloads.base.TenantSpec` becomes one extra domain
    (e.g. a MapReduce batch VM) on the *same* hypervisor as the web
    tiers, sharing the credit scheduler and dom0 I/O backends.
    Consolidation requires the virtualized environment.

    ``scale`` records the stress multiplier the factory applied to
    horizon and clients, so two scenarios that differ only in how they
    were scaled never share a cache fingerprint.

    ``controller`` attaches an elastic controller
    (:class:`~repro.control.spec.ControllerSpec`) that observes live
    telemetry and resizes the web VMs mid-run (``kind="static"`` =
    same initial sizing, never resized — the autoscaling baseline).
    Controllers are a hypervisor feature, so they require the
    virtualized environment; a controller-bearing testbed also enables
    the hypervisor's intra-VM VCPU-contention refinement.
    """

    name: str
    environment: str
    mix: WorkloadMix
    duration_s: float
    seed: int = 42
    ramp_s: float = 10.0
    traffic: Optional[TrafficSpec] = None
    scale: float = 1.0
    tenants: Tuple[TenantSpec, ...] = ()
    controller: Optional[ControllerSpec] = None
    #: Physical servers in the fleet (1 = the paper's single host; >1
    #: builds a multi-server testbed through the placement engine).
    servers: int = 1
    #: Placement policy assigning VMs to servers (multi-server only).
    placement: str = FIRST_FIT
    #: Fleet controller spec: watches per-server signals and triggers
    #: rebalancing live migrations mid-run (requires ``servers >= 2``).
    fleet: Optional[FleetSpec] = None
    #: Deterministic fault schedule (:class:`~repro.faults.spec.
    #: FaultSchedule`): injected mid-run by a ``FaultController``
    #: riding the event loop.  None (the default) adds *nothing* to the
    #: run — fault-free scenarios keep bit-identical traces.
    faults: Optional[FaultSchedule] = None
    #: Request engine: ``"classic"`` (per-event lifecycles, the default,
    #: bit-identical to the pre-epoch-2 traces) or ``"batched"`` (array
    #: cohort lifecycles, equivalent in distribution; see
    #: :mod:`repro.rubis.batched`).
    engine: str = "classic"
    #: Request-trace sampling rate in [0, 1] (see
    #: :mod:`repro.obs.tracing`).  0 (the default) builds no tracing
    #: machinery and keeps bit-identical traces; a positive rate samples
    #: that fraction of requests deterministically (RNG-free, keyed on
    #: seed and request identity) on either engine.
    trace_sample: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ConfigurationError(
                f"trace_sample {self.trace_sample} outside [0, 1]"
            )
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; choose from {ENGINES}"
            )
        if self.environment not in ENVIRONMENTS:
            raise ConfigurationError(
                f"unknown environment {self.environment!r}; "
                f"choose from {ENVIRONMENTS}"
            )
        if self.duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        if self.scale <= 0:
            raise ConfigurationError("scale must be positive")
        if not isinstance(self.tenants, tuple):
            object.__setattr__(self, "tenants", tuple(self.tenants))
        if self.tenants:
            if self.environment != VIRTUALIZED:
                raise ConfigurationError(
                    "co-resident tenants require the virtualized "
                    "environment (consolidation is a hypervisor feature)"
                )
            names = [t.name for t in self.tenants]
            if len(set(names)) != len(names):
                raise ConfigurationError(
                    f"duplicate tenant names: {names}"
                )
        has_controller = self.controller is not None or any(
            t.controller is not None for t in self.tenants
        )
        if has_controller and self.environment != VIRTUALIZED:
            raise ConfigurationError(
                "elastic controllers require the virtualized environment "
                "(resizing is a hypervisor feature)"
            )
        if self.servers < 1:
            raise ConfigurationError("servers must be >= 1")
        validate_placement_policy(self.placement)
        if self.servers > 1 and self.environment != VIRTUALIZED:
            raise ConfigurationError(
                "multi-server fleets require the virtualized environment "
                "(placement is a hypervisor-layer feature)"
            )
        if self.fleet is not None and self.servers < 2:
            raise ConfigurationError(
                "a fleet controller needs at least two servers to "
                "migrate between"
            )
        if self.faults is not None:
            if self.environment != VIRTUALIZED:
                raise ConfigurationError(
                    "fault injection requires the virtualized environment "
                    "(injectors actuate hypervisor and fleet state)"
                )
            if any(f.kind == FLASH_CROWD for f in self.faults) and not (
                self.traffic is not None and self.traffic.open_loop
            ):
                raise ConfigurationError(
                    "a flash_crowd fault composes into an open-loop "
                    "traffic envelope; this scenario is closed-loop"
                )
            if self.engine == BATCHED_ENGINE and any(
                f.kind == BOT_FLOOD for f in self.faults
            ):
                # Bots send through the classic request path, while the
                # batched driver owns the web tier's worker gauge.
                raise ConfigurationError(
                    "a bot_flood fault is not supported on the batched "
                    "engine; run it on the classic engine"
                )

    @property
    def controlled(self) -> bool:
        """True when any elastic controller runs in this scenario."""
        return self.controller is not None or any(
            t.controller is not None for t in self.tenants
        )

    @property
    def open_loop(self) -> bool:
        """True when an open-loop traffic spec drives this scenario."""
        return self.traffic is not None and self.traffic.open_loop

    @property
    def consolidated(self) -> bool:
        """True when co-resident tenant VMs share the hypervisor."""
        return bool(self.tenants)

    @property
    def multi_server(self) -> bool:
        """True when the testbed spans more than one physical server."""
        return self.servers > 1

    @property
    def cache_key(self) -> tuple:
        """Full behavioural fingerprint of the run this describes.

        One entry per field, in declaration order, with the mix (whose
        burst schedules are a dict) reduced to its own hashable key —
        so memoized results can never be served across scenarios that
        would simulate differently, and a new field is covered the
        moment it is declared.
        """
        return tuple(
            self.mix.cache_key if spec_field.name == "mix"
            else getattr(self, spec_field.name)
            for spec_field in fields(self)
        )

    @property
    def batched(self) -> bool:
        """True when the array-native request engine drives this run."""
        return self.engine == BATCHED_ENGINE

    @property
    def faulted(self) -> bool:
        """True when a fault schedule is injected into this scenario."""
        return self.faults is not None


def with_engine(spec: Scenario, engine: str) -> Scenario:
    """``spec`` on the ``engine`` request engine, named ``<name>%<engine>``.

    Classic is the untagged default, so it returns ``spec`` unchanged.
    """
    if engine == CLASSIC_ENGINE:
        return spec
    return replace(spec, name=f"{spec.name}%{engine}", engine=engine)


def with_controller(spec: Scenario, kind: str) -> Scenario:
    """``spec`` under the ``kind`` elastic-control policy.

    A scenario that already carries a controller keeps its capacity
    bands and thresholds and swaps only the policy, renamed by the
    factories' ``_static`` convention, so a PID run never reports under
    a ``_static`` label.  Otherwise a default-band controller is
    attached and the name gains ``@<kind>``.
    """
    if spec.controller is None:
        return replace(
            spec,
            name=f"{spec.name}@{kind}",
            controller=ControllerSpec.from_kind(kind),
        )
    name = spec.name.removesuffix("_static")
    if kind == STATIC:
        name += "_static"
    return replace(
        spec, name=name, controller=replace(spec.controller, kind=kind)
    )


def _burst_schedules(
    environment: str, duration_s: float
) -> Dict[str, Dict[SessionType, BurstSchedule]]:
    """Burst windows per (environment, composition name)."""
    T = duration_s
    virt_browse = BurstSchedule(count=2, window_s=(0.35 * T, 0.80 * T),
                                fraction=0.85)
    bare_browse = BurstSchedule(count=2, window_s=(0.30 * T, 0.70 * T),
                                fraction=0.85)
    bare_bid = BurstSchedule(count=2, window_s=(0.10 * T, 0.30 * T),
                             fraction=0.85)
    if environment == VIRTUALIZED:
        return {
            "browsing": {SessionType.BROWSE: virt_browse},
            "bidding": {},  # smooth bid RAM in the virtualized env (Q2)
            "blend": {SessionType.BROWSE: virt_browse},
        }
    return {
        "browsing": {SessionType.BROWSE: bare_browse},
        "bidding": {SessionType.BID: bare_bid},
        "blend": {
            SessionType.BROWSE: bare_browse,
            SessionType.BID: bare_bid,
        },
    }


def scenario(
    environment: str,
    composition: str,
    duration_s: float = None,
    seed: int = 42,
    clients: int = None,
    scale: float = 1.0,
) -> Scenario:
    """Build a scenario for one of the paper's compositions.

    Args:
        environment: "virtualized" or "bare-metal".
        composition: a key of
            :data:`repro.rubis.workload.PAPER_COMPOSITIONS`.
        duration_s: run length (defaults to :func:`default_duration_s`).
        seed: root seed for all random streams.
        clients: override the 1000-client population (e.g. sweeps).
        scale: stress multiplier — stretches the horizon *and* the
            client population by this factor (million-event runs:
            ``scale=10`` is ~10x the events of the paper's setup).
            Applied after ``duration_s``/``clients`` overrides.
    """
    if composition not in PAPER_COMPOSITIONS:
        raise ConfigurationError(
            f"unknown composition {composition!r}; known: "
            f"{sorted(PAPER_COMPOSITIONS)}"
        )
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    duration = duration_s if duration_s is not None else default_duration_s()
    mix = PAPER_COMPOSITIONS[composition]
    if clients is not None:
        mix = WorkloadMix(
            name=mix.name,
            browse_fraction=mix.browse_fraction,
            think_time_s=mix.think_time_s,
            clients=clients,
        )
    if scale != 1.0:
        duration = duration * scale
        mix = WorkloadMix(
            name=mix.name,
            browse_fraction=mix.browse_fraction,
            think_time_s=mix.think_time_s,
            clients=max(1, round(mix.clients * scale)),
        )
    schedules = _burst_schedules(environment, duration)
    kind = composition if composition in ("browsing", "bidding") else "blend"
    mix = mix.with_bursts(schedules[kind])
    return Scenario(
        name=f"{environment}/{composition}",
        environment=environment,
        mix=mix,
        duration_s=duration,
        seed=seed,
        scale=scale,
    )


def open_loop_scenario(
    environment: str = VIRTUALIZED,
    composition: str = "browsing",
    kind: str = "poisson",
    rate_rps: float = None,
    duration_s: float = None,
    seed: int = 42,
    clients: int = None,
    scale: float = 1.0,
    shape: Optional[RateShape] = None,
    session_budget: int = None,
    traffic: Optional[TrafficSpec] = None,
) -> Scenario:
    """An open-loop variant of one of the paper's scenarios.

    The workload *content* (composition, demands, environment) is the
    paper's; only the traffic driver changes: ``kind`` selects the
    arrival process (``poisson``, ``mmpp``, ``bmodel`` or
    ``trace:<path>`` — the CLI token syntax), ``rate_rps`` its base
    intensity (default: the closed-loop long-run rate, so open-vs-
    closed runs are directly comparable), ``shape`` an optional
    deterministic envelope, and ``session_budget`` the overload
    shedding cap.  Pass a full ``traffic`` spec to override everything.
    """
    base = scenario(
        environment,
        composition,
        duration_s=duration_s,
        seed=seed,
        clients=clients,
        scale=scale,
    )
    if traffic is None:
        parsed = TrafficSpec.from_cli_string(
            kind, rate_rps=rate_rps, session_budget=session_budget
        )
        traffic = replace(parsed, shape=shape)
    if not traffic.open_loop:
        raise ConfigurationError(
            "open_loop_scenario needs an open-loop traffic kind"
        )
    # Closed-loop burst waves synchronize *thinking* clients; they are
    # meaningless without a think loop, so the open-loop mix drops them
    # (the shape schedule is the open-loop burst mechanism).
    mix = base.mix.with_bursts({})
    return replace(
        base,
        name=f"{base.name}/open-{traffic.kind}",
        mix=mix,
        traffic=traffic,
    )


def flash_crowd_scenario(
    environment: str = VIRTUALIZED,
    composition: str = "browsing",
    rate_rps: float = None,
    magnitude: float = 20.0,
    duration_s: float = None,
    seed: int = 42,
    clients: int = None,
    session_budget: int = 2000,
    requests_per_session: int = 5,
    kind: str = "poisson",
) -> Scenario:
    """An open-loop flash crowd: a ``magnitude``-times surge in visits.

    ``rate_rps`` is the baseline offered *request* rate (default: the
    closed-loop steady-state rate, ``clients / think_time``); arrivals
    are whole visits of ``requests_per_session`` think-separated
    requests, so the session-arrival rate is ``rate_rps /
    requests_per_session``.  The surge peaks at 40 % of the horizon
    after a rise of 8 % of the horizon and decays with a 25 %-of-
    horizon time constant — duration-relative like the closed-loop
    burst windows, so short CI runs and full-length runs show the same
    qualitative dynamics.  With the default magnitude the offered
    request rate averages >= 5x the closed-loop steady state over the
    horizon (~20x at the peak) — intensity a closed loop structurally
    cannot offer.  The ``session_budget`` is the front end's concurrent-
    visit cap (MaxClients): the surge piles up thinking sessions far
    beyond it, making overload shedding observable in the run report.
    """
    duration = duration_s if duration_s is not None else default_duration_s()
    shape = FlashCrowdShape(
        peak_time_s=0.40 * duration,
        magnitude=magnitude,
        rise_s=0.08 * duration,
        decay_s=0.25 * duration,
    )
    base = scenario(
        environment,
        composition,
        duration_s=duration,
        seed=seed,
        clients=clients,
    )
    request_rate = (
        rate_rps
        if rate_rps is not None
        else base.mix.clients / base.mix.think_time_s
    )
    traffic = TrafficSpec(
        kind=kind,
        rate_rps=request_rate / requests_per_session,
        shape=shape,
        session_budget=session_budget,
        requests_per_session=requests_per_session,
    )
    spec = open_loop_scenario(
        environment,
        composition,
        duration_s=duration,
        seed=seed,
        clients=clients,
        traffic=traffic,
    )
    return replace(spec, name=f"{environment}/{composition}/flash-crowd")


def consolidated_scenario(
    composition: str = "browsing",
    duration_s: float = None,
    seed: int = 42,
    clients: int = None,
    scale: float = 1.0,
    tenants: Optional[Sequence[TenantSpec]] = None,
    name: Optional[str] = None,
) -> Scenario:
    """A multi-tenant run: the web workload plus co-resident batch VMs.

    The web tiers keep the paper's closed-loop setup; every tenant spec
    adds one more VM on the *same* hypervisor, so batch CPU demand
    contends in the credit scheduler and batch I/O shares the dom0
    split drivers — the co-location interference that motivates
    characterizing workloads on virtualized servers in the first place.
    """
    base = scenario(
        VIRTUALIZED,
        composition,
        duration_s=duration_s,
        seed=seed,
        clients=clients,
        scale=scale,
    )
    tenant_tuple = tuple(tenants) if tenants is not None else (TenantSpec(),)
    if not tenant_tuple:
        raise ConfigurationError(
            "consolidated_scenario needs at least one tenant"
        )
    label = name or (
        f"{base.name}+{'+'.join(t.name for t in tenant_tuple)}"
    )
    return replace(base, name=label, tenants=tenant_tuple)


def consolidated_web_batch_scenario(
    duration_s: float = None, seed: int = 42, clients: int = None
) -> Scenario:
    """The canonical consolidation run: browsing web VM + sort batch VM."""
    return consolidated_scenario(
        "browsing",
        duration_s=duration_s,
        seed=seed,
        clients=clients,
        name="consolidated_web_batch",
    )


def autoscaled_flash_crowd_scenario(
    duration_s: float = None,
    seed: int = 42,
    clients: int = None,
    controller: str = "threshold",
    session_budget: int = None,
) -> Scenario:
    """The elasticity experiment: a flash crowd against a small web VM.

    The static provisioning is *rightsized for the calm load*: the web
    and db VMs start at a fractional-core CPU cap sized to ~1.2x the
    calm request rate (0.25 cores at the paper's 1000 clients, scaled
    with the client count) on one VCPU, with 1 GB of ballooned memory
    whose front-end session capacity (MaxClients) is
    ``session_budget`` concurrent visits.  Shed visits retry twice
    with exponential backoff before abandoning (the PR-2 follow-up
    semantics).

    When the flash crowd hits, the static sizing fails along both
    axes: the budget sheds most of the surge, and the visits it *does*
    admit exceed the capped CPU capacity, so latency collapses too.
    The ``controller`` policy (threshold / pid / predictive) grows the
    VMs out of both failure modes — CPU cap and VCPUs to 8x the calm
    sizing, memory to 3 GB with the session budget following at
    ``session_budget`` per GB — and shrinks them again after the
    surge.  ``controller="static"`` is the never-resized baseline
    every comparison runs against: same initial sizing, same seed,
    same offered arrival stream.
    """
    duration = duration_s if duration_s is not None else default_duration_s()
    base_clients = clients if clients is not None else 1000
    budget = session_budget
    if budget is None:
        budget = max(50, 2 * base_clients)
    base = flash_crowd_scenario(
        duration_s=duration,
        seed=seed,
        clients=clients,
        session_budget=budget,
    )
    traffic = replace(base.traffic, retry_max=2, retry_backoff_s=2.0)
    # Capacity bands scale with the client population so the
    # calm-load/surge-load geometry (and therefore the qualitative
    # static-vs-elastic outcome) is the same at CI scale and at the
    # paper's 1000 clients.
    load_scale = base_clients / 1000.0
    min_cap = 0.25 * load_scale
    max_cap = 2.0 * load_scale
    spec = ControllerSpec(
        kind=controller,
        domains=("web-vm", "db-vm"),
        min_cap_cores=min_cap,
        max_cap_cores=max_cap,
        step_cores=(max_cap - min_cap) / 7.0,
        min_vcpus=1,
        max_vcpus=2,
        balloon_min_mb=1024.0,
        balloon_max_mb=3072.0,
        balloon_step_mb=256.0,
        sessions_per_gb=float(budget),
        p95_high_ms=10.0,
        p95_low_ms=4.0,
        shed_high=0.02,
        p95_target_ms=6.0,
    )
    name = "autoscaled_flash_crowd"
    if controller == "static":
        name += "_static"
    return replace(
        base,
        name=name,
        traffic=traffic,
        controller=spec,
    )


def autoscaled_consolidated_scenario(
    duration_s: float = None,
    seed: int = 42,
    clients: int = None,
    controller: str = "threshold",
) -> Scenario:
    """Elastic web VMs on a consolidated server (closed-loop clients).

    The canonical consolidation run (browsing web tiers + a sort batch
    VM on one hypervisor) with the web VMs starting at a fractional
    CPU cap.  Under co-tenant contention the capped tiers inflate the
    web p95 by an order of magnitude; the controller restores it by
    growing the caps (and boosting the credit-scheduler weight) while
    the SLO is violated, then releases capacity once calm.
    """
    base = consolidated_web_batch_scenario(
        duration_s=duration_s, seed=seed, clients=clients
    )
    # Batch jobs arrive every ~20 s and each burst inflates the capped
    # web tiers within seconds, so the policy scales up in one step and
    # holds capacity across bursts (long calm hysteresis) instead of
    # thrashing between them.
    spec = ControllerSpec(
        kind=controller,
        domains=("web-vm", "db-vm"),
        min_cap_cores=0.25,
        max_cap_cores=2.0,
        step_cores=0.25,
        min_vcpus=1,
        max_vcpus=2,
        weight_boost=1.0,
        p95_high_ms=50.0,
        p95_low_ms=10.0,
        up_step=1.0,
        down_step=0.1,
        calm_windows=15,
        p95_target_ms=40.0,
    )
    name = "autoscaled_consolidated"
    if controller == "static":
        name += "_static"
    return replace(base, name=name, controller=spec)


def fleet_consolidation_scenario(
    duration_s: float = None,
    seed: int = 42,
    clients: int = None,
    servers: int = 2,
    placement: str = "priority",
) -> Scenario:
    """Fleet-level packing: the web pair plus two batch tenants on N servers.

    The canonical multi-server run: the placement engine builds one
    hypervisor per server and assigns the VMs by ``placement`` —
    ``priority`` (the default) spreads the latency-sensitive web pair
    away from the batch VMs, so the same workload that suffers
    order-of-magnitude p95 inflation when consolidated on one host
    runs interference-free on two.  Sweeping ``placement`` over
    firstfit/bestfit/balance/priority turns this into the packing-
    policy comparison the gray-box placement literature studies.
    """
    tenants = (
        TenantSpec(),
        TenantSpec(name="batch2", job="grep", input_mb=192.0, tasks=12),
    )
    base = consolidated_scenario(
        "browsing",
        duration_s=duration_s,
        seed=seed,
        clients=clients,
        tenants=tenants,
        name="fleet_consolidation",
    )
    return replace(base, servers=servers, placement=placement)


def migration_rebalance_scenario(
    duration_s: float = None,
    seed: int = 42,
    clients: int = None,
    fleet: bool = True,
) -> Scenario:
    """Controller-driven live migration relieving co-location interference.

    Two servers, first-fit placement: the web pair *and* the batch
    tenant pack onto server 1 (the bin-packing outcome a consolidating
    cloud would produce), leaving server 2 idle.  The batch bursts
    inflate the web tier's p95 and CPU-ready time; the fleet
    controller watches exactly those signals and live-migrates the
    batch VM to server 2 — pre-copy traffic on both NICs, a
    stop-and-copy downtime, and an interference-free web tier
    afterwards.  ``fleet=False`` is the no-migration baseline: same
    placement, same seed, a watch-only controller
    (``FleetSpec(active=False)``) that records the same windowed
    signal series but never acts — so before/after comparisons read
    directly off aligned traces.
    """
    base = consolidated_scenario(
        "browsing",
        duration_s=duration_s,
        seed=seed,
        clients=clients,
        name="migration_rebalance" if fleet else "migration_rebalance_static",
    )
    # The batch tenant's ~20 s job cadence inflates web p95 within a
    # couple of windows; two hot windows (4 s) of either signal
    # trigger the one rebalancing migration this scenario needs.
    spec = FleetSpec(
        active=fleet,
        p95_high_ms=50.0,
        ready_high_s=0.02,
        hot_windows=2,
        cooldown_s=30.0,
        max_migrations=2,
    )
    return replace(
        base,
        servers=2,
        placement="firstfit",
        fleet=spec,
    )


def detect_and_evacuate_scenario(
    duration_s: float = None,
    seed: int = 42,
    clients: int = None,
    crash_at_s: float = 60.0,
    fleet: bool = True,
) -> Scenario:
    """The canonical recovery drill: a server crash, detected and healed.

    Two servers, first-fit placement: the web pair *and* the batch
    tenant pack onto server 1, server 2 idles as the survivor.  At
    ``crash_at_s`` the fault scheduler collapses server 1's credit
    scheduler to a few percent of its cores (the crash model: the NIC
    stays up, so evacuation is possible — but every domain starves and
    CPU-ready time floods).  The fleet controller's failure detector
    (``fail_ready_s``) declares the server failed after two saturated
    windows and force-evacuates every guest — pinned web tiers
    included — to the survivor, serially over the migration wire.  Web
    p95 collapses at the crash and returns below the SLO once the web
    pair lands on server 2; :func:`repro.faults.scoring.score_run`
    reads detection/recovery times straight off the fleet's p95 series.

    ``fleet=False`` is the watch-only baseline: same crash, same seed,
    a passive fleet controller — the service never recovers, which is
    what gives the recovered run's billing delta its denominator.
    The voluntary-rebalance thresholds are set unreachably high and
    ``max_migrations=1``: the three forced evacuations exceeding that
    budget demonstrate that forced migrations are accounted outside it.
    """
    base = consolidated_scenario(
        "browsing",
        duration_s=duration_s,
        seed=seed,
        clients=clients,
        name="detect_and_evacuate" if fleet else "detect_and_evacuate_watch",
    )
    spec = FleetSpec(
        active=fleet,
        p95_high_ms=10_000.0,
        ready_high_s=1_000.0,
        hot_windows=2,
        cooldown_s=30.0,
        max_migrations=1,
        # Only a genuinely starved scheduler floods this much ready
        # time per window.  The survivor's post-evacuation drain
        # transient is structurally bounded near (guest vcpus + dom0
        # - cores) * window ≈ 4 core-s, so 6 keeps the healthy server
        # from being declared dead while it digests the backlog.
        fail_ready_s=6.0,
        fail_windows=2,
        # Evacuations run the wire at full line rate (1 Gbps) — a
        # recovery is not polite about guest bandwidth the way a
        # voluntary rebalance is.
        migration_bandwidth_bps=125e6,
    )
    # A 1 % residual: the scheduler is dark for real — demand exceeds
    # the remnant immediately, so ready time floods within a window or
    # two and throughput collapses until the evacuation lands.
    faults = FaultSchedule(
        (FaultSpec(kind=CRASH, at_s=crash_at_s, magnitude=0.01),)
    )
    return replace(
        base,
        servers=2,
        placement="firstfit",
        fleet=spec,
        faults=faults,
    )


def noisy_neighbor_theft_scenario(
    duration_s: float = None,
    seed: int = 42,
    clients: int = None,
    controller: str = "threshold",
    theft_at_s: float = 40.0,
) -> Scenario:
    """Cap theft on a consolidated server, healed by the elastic loop.

    The autoscaled consolidation run with a ``cap_theft`` fault: at
    ``theft_at_s`` a noisy neighbor steals the web VM's credit-
    scheduler cap down to 0.25 cores (permanently — the thief never
    gives it back).  An active controller re-actuates its level-mapped
    cap on the next decision tick, so the theft shows up as a one-to-
    two-window p95 spike; the ``static`` baseline never re-actuates,
    so the stolen cap — and the SLO violation — persist to the horizon.
    """
    base = autoscaled_consolidated_scenario(
        duration_s=duration_s, seed=seed, clients=clients,
        controller=controller,
    )
    # Steal down to 0.1 cores — *below* the controllers' 0.25-core
    # floor, so the static baseline (which never re-actuates) is left
    # genuinely under-provisioned, not just reset to its own minimum.
    faults = FaultSchedule(
        (
            FaultSpec(
                kind=CAP_THEFT,
                at_s=theft_at_s,
                target="web-vm",
                magnitude=0.1,
            ),
        )
    )
    name = "noisy_neighbor_theft"
    if controller == "static":
        name += "_static"
    return replace(base, name=name, faults=faults)


def flash_crowd_window(spec: Scenario) -> Tuple[float, float]:
    """The surge interval of a flash-crowd scenario, ``(start, end)``.

    From one rise before the peak to one decay constant after it —
    the window the autoscaling comparisons score p95 over.
    """
    shape = spec.traffic.shape if spec.traffic is not None else None
    if shape is None or not hasattr(shape, "peak_time_s"):
        raise ConfigurationError(
            f"scenario {spec.name!r} has no flash-crowd shape"
        )
    return (
        shape.peak_time_s - shape.rise_s,
        shape.peak_time_s + shape.decay_s,
    )


def paper_scenarios(duration_s: float = None, seed: int = 42) -> Dict[str, Scenario]:
    """The paper's full run matrix.

    Virtualized: all five compositions (Section 4.1 tested five and
    published browsing/bidding).  Bare metal: browsing and bidding
    (Section 4.2).
    """
    out = {}
    for composition in PAPER_COMPOSITIONS:
        out[f"virtualized/{composition}"] = scenario(
            VIRTUALIZED, composition, duration_s, seed
        )
    for composition in ("browsing", "bidding"):
        out[f"bare-metal/{composition}"] = scenario(
            BARE_METAL, composition, duration_s, seed
        )
    return out


def scenario_catalog(
    duration_s: float = None, seed: int = 42, clients: int = None
) -> Dict[str, Scenario]:
    """Every named scenario the CLI can run (``repro run --list``).

    The paper's seven-run matrix plus the extensions: the consolidated
    multi-tenant runs and the open-loop flash crowd.  ``clients``
    overrides the 1000-client population of every entry.
    """
    out = {}
    for name, spec in paper_scenarios(duration_s, seed).items():
        if clients is not None:
            environment, composition = name.split("/", 1)
            spec = scenario(
                environment, composition, duration_s, seed, clients=clients
            )
        out[name] = spec
    out["consolidated_web_batch"] = consolidated_web_batch_scenario(
        duration_s, seed, clients=clients
    )
    out["consolidated_bidding_batch"] = consolidated_scenario(
        "bidding",
        duration_s=duration_s,
        seed=seed,
        clients=clients,
        name="consolidated_bidding_batch",
    )
    flash = flash_crowd_scenario(
        duration_s=duration_s, seed=seed, clients=clients
    )
    out[flash.name] = flash
    for kind in ("threshold", "static"):
        auto_flash = autoscaled_flash_crowd_scenario(
            duration_s=duration_s, seed=seed, clients=clients,
            controller=kind,
        )
        out[auto_flash.name] = auto_flash
        auto_cons = autoscaled_consolidated_scenario(
            duration_s=duration_s, seed=seed, clients=clients,
            controller=kind,
        )
        out[auto_cons.name] = auto_cons
    out["fleet_consolidation"] = fleet_consolidation_scenario(
        duration_s=duration_s, seed=seed, clients=clients
    )
    for with_fleet in (True, False):
        rebalance = migration_rebalance_scenario(
            duration_s=duration_s, seed=seed, clients=clients,
            fleet=with_fleet,
        )
        out[rebalance.name] = rebalance
        drill = detect_and_evacuate_scenario(
            duration_s=duration_s, seed=seed, clients=clients,
            fleet=with_fleet,
        )
        out[drill.name] = drill
    for kind in ("threshold", "static"):
        theft = noisy_neighbor_theft_scenario(
            duration_s=duration_s, seed=seed, clients=clients,
            controller=kind,
        )
        out[theft.name] = theft
    return out
