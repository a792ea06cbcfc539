"""Testbed assembly: from a declarative scenario to live workloads.

The :class:`TestbedBuilder` is the consolidation layer between the
scenario vocabulary and the simulated hardware.  It has two build
paths:

* a **virtualized** scenario, on one server or many, places every VM
  through the :class:`~repro.placement.engine.PlacementEngine`, which
  builds every :class:`~repro.virt.hypervisor.Hypervisor` (one per
  server) and owns their lifecycles.  The builder attaches the web VMs
  to the web pair's hypervisor (the calibrated
  :class:`~repro.rubis.deployment.VirtualizedDeployment`), then creates
  one extra domain per :class:`~repro.workloads.base.TenantSpec` on
  the server the engine chose and wires the tenant's workload (e.g.
  MapReduce) into that VM's :class:`~repro.apps.tier.VirtualizedContext`.
  Co-resident tenants share the physical cores through the credit
  scheduler and the dom0 block/net backends — the two interference
  channels the consolidation scenarios measure.  One server with no
  tenants is exactly the paper's testbed, with bit-identical traces;
* a **bare-metal** scenario assembles the calibrated
  :class:`~repro.rubis.deployment.BareMetalDeployment` with its private
  servers.

The resulting :class:`Testbed` owns workload lifecycles and the probe
set (web/db, dom0, one namespace per tenant) the trace recorder
samples.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional

from repro.apps.tier import VirtualizedContext
from repro.control.controller import ElasticController
from repro.errors import ConfigurationError
from repro.faults.controller import FaultController, PlannedFault
from repro.faults.injectors import build_injector
from repro.faults.spec import CAP_THEFT, FLASH_CROWD, FaultSpec
from repro.monitoring.probes import Dom0Probe, Probe
from repro.obs.recorder import ObsRecorder
from repro.placement.engine import PlacementEngine
from repro.placement.fleet import FleetController
from repro.placement.spec import DEFAULT_VCPU_OVERCOMMIT, VmRequest
from repro.traffic.shapes import CompositeShape, FlashCrowdShape
from repro.rubis.deployment import (
    DEFAULT_VM_MEMORY_BYTES,
    DEFAULT_VM_VCPUS,
    BareMetalDeployment,
    Deployment,
    VirtualizedDeployment,
)
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.units import GB
from repro.virt.hypervisor import Hypervisor
from repro.workloads import Workload, build_tenant_workload
from repro.workloads.rubis import RubisWorkload
from repro.experiments.calibration import (
    CalibratedEnvironment,
    calibrate_bare_metal,
    calibrate_virtualized,
)
from repro.experiments.scenarios import BARE_METAL, VIRTUALIZED, Scenario

_calibration_cache: Dict[str, CalibratedEnvironment] = {}

#: Envelope geometry of a ``flash_crowd`` fault: the surge peaks one
#: rise after the resolved injection time and decays with this time
#: constant — absolute seconds (an *anomaly*, unlike the duration-
#: relative scheduled flash-crowd scenarios).
FLASH_FAULT_RISE_S = 10.0
FLASH_FAULT_DECAY_S = 30.0


def calibrated_environment(environment: str) -> CalibratedEnvironment:
    """Memoized calibration for one environment (pure derivation)."""
    if environment not in _calibration_cache:
        if environment == VIRTUALIZED:
            _calibration_cache[environment] = calibrate_virtualized()
        elif environment == BARE_METAL:
            _calibration_cache[environment] = calibrate_bare_metal()
        else:
            raise ConfigurationError(f"unknown environment {environment!r}")
    return _calibration_cache[environment]


class Testbed:
    """A live testbed: the web workload plus any co-resident tenants."""

    def __init__(
        self,
        scenario: Scenario,
        web: RubisWorkload,
        tenants: List[Workload],
        hypervisor: Optional[Hypervisor],
        controllers: Optional[List[ElasticController]] = None,
        engine: Optional[PlacementEngine] = None,
        observer: Optional[ObsRecorder] = None,
    ) -> None:
        self.scenario = scenario
        self.web = web
        self.tenants = tenants
        self.hypervisor = hypervisor
        self.controllers = list(controllers or [])
        #: Placement engine of a virtualized testbed, one server or
        #: many (None on bare metal only).
        self.engine = engine
        #: Observation recorder of an ``observe=True`` build (also in
        #: ``controllers``, so it starts/stops/merges like the rest).
        self.observer = observer

    @property
    def deployment(self) -> Deployment:
        return self.web.deployment

    def probes(self) -> List[Probe]:
        """Web/db first, then dom0, then one namespace per tenant.

        Multi-server fleets append one more dom0 probe per *extra*
        server (entity ``dom0.<server>``); the web server's dom0 keeps
        the plain ``dom0`` entity, so single-server trace layouts are
        untouched.
        """
        probes = self.web.probes()
        if self.hypervisor is not None:
            probes.append(Dom0Probe(self.hypervisor))
        for tenant in self.tenants:
            probes.extend(tenant.probes())
        if self.engine is not None:
            for name, hypervisor in self.engine.hypervisors.items():
                if hypervisor is self.hypervisor:
                    continue
                probes.append(Dom0Probe(hypervisor, entity=f"dom0.{name}"))
        return probes

    def start(self) -> None:
        # Controllers first: the initial (level-0) capacity must be in
        # place before any workload driver schedules its first event.
        for controller in self.controllers:
            controller.start()
        self.web.start()
        for tenant in self.tenants:
            tenant.start()

    def shutdown(self) -> None:
        for controller in self.controllers:
            controller.stop()
        for tenant in self.tenants:
            tenant.shutdown()
        self.web.shutdown()
        if self.engine is not None:
            # The engine built every hypervisor, so it stops them all.
            self.engine.shutdown()

    def tenant_reports(self) -> Optional[Dict[str, dict]]:
        """Per-tenant summaries, or None for single-tenant runs."""
        if not self.tenants:
            return None
        return {tenant.name: tenant.summary() for tenant in self.tenants}

    def interference_report(self) -> Optional[dict]:
        """Consolidation signals: per-domain CPU ready (steal) time.

        Fleets also report the per-server breakdown; a migrated
        domain's ready time sums across every server it lived on.
        """
        if self.hypervisor is None:
            return None
        if not self.scenario.multi_server:
            return {"cpu_ready_s": self.hypervisor.cpu_ready_report()}
        merged: Dict[str, float] = {}
        per_server: Dict[str, Dict[str, float]] = {}
        for name, hypervisor in self.engine.hypervisors.items():
            report = hypervisor.cpu_ready_report()
            per_server[name] = report
            for domain, ready_s in report.items():
                merged[domain] = merged.get(domain, 0.0) + ready_s
        return {"cpu_ready_s": merged, "per_server": per_server}

    def billing_report(self) -> dict:
        """Fleet-wide capacity bill: ``{domain: {core-s, GB-s}}``.

        Summed across hypervisors, so a migrated domain is billed on
        every server it occupied — exactly what a per-tenant invoice
        would show.
        """
        hypervisors = (
            self.engine.hypervisors if self.engine is not None else {}
        )
        merged: Dict[str, Dict[str, float]] = {}
        for hypervisor in hypervisors.values():
            for domain, bill in hypervisor.billing_report().items():
                into = merged.setdefault(
                    domain, {"capacity_core_s": 0.0, "memory_gb_s": 0.0}
                )
                into["capacity_core_s"] += bill["capacity_core_s"]
                into["memory_gb_s"] += bill["memory_gb_s"]
        return {"kind": "billing", "domains": merged}

    def control_reports(self) -> Optional[Dict[str, dict]]:
        """Per-controller action summaries, or None when uncontrolled.

        Controlled runs — and every multi-server run, controllers or
        not — also carry the fleet-wide capacity bill under the
        ``billing`` key: the $-side input :mod:`repro.planning.cost`
        scores against the SLA side.
        """
        if not self.controllers and not self.scenario.multi_server:
            return None
        reports = {
            controller.entity: controller.report()
            for controller in self.controllers
        }
        reports["billing"] = self.billing_report()
        return reports


class TestbedBuilder:
    """Assembles N-tenant testbeds from declarative scenarios."""

    def __init__(self, sim: Simulator, streams: RandomStreams) -> None:
        self.sim = sim
        self.streams = streams

    def build(
        self,
        scenario: Scenario,
        meter_arrivals: bool = False,
        observe: bool = False,
    ) -> Testbed:
        """Build the testbed a scenario describes (single- or multi-tenant)."""
        original = scenario
        resolved_faults = ()
        if scenario.faults is not None:
            # Resolve the schedule once (seed-derived jitter) and fold
            # any flash-crowd faults into the open-loop traffic
            # envelope — the surge must exist before the arrival
            # process is built, so it is declarative, not actuated.
            resolved_faults = scenario.faults.resolve(scenario.seed)
            scenario = self._compose_flash_crowds(scenario, resolved_faults)
        if scenario.environment == VIRTUALIZED:
            deployment, hypervisor, engine = self._build_virtualized(
                scenario
            )
        else:
            calibrated = calibrated_environment(BARE_METAL)
            deployment = BareMetalDeployment(
                self.sim,
                self.streams,
                config=calibrated.deployment_config,
                web_os_model=calibrated.web_os_model,
                db_os_model=calibrated.db_os_model,
            )
            hypervisor = engine = None
        web = RubisWorkload(
            self.sim,
            self.streams,
            scenario,
            deployment,
            meter_arrivals=meter_arrivals,
        )
        tenants: List[Workload] = []
        tenant_contexts: Dict[str, VirtualizedContext] = {}
        for spec in scenario.tenants:
            vm_name = f"{spec.name}-vm"
            host = engine.hypervisor_for(vm_name)
            domain = host.create_domain(
                vm_name,
                vcpu_count=spec.vcpus,
                memory_bytes=spec.memory_gb * GB,
                weight=spec.weight,
                cap_cores=spec.cap_cores,
            )
            context = VirtualizedContext(host, domain)
            tenant_contexts[vm_name] = context
            tenants.append(
                build_tenant_workload(
                    self.sim,
                    self.streams,
                    spec,
                    [context],
                    horizon_s=scenario.duration_s,
                )
            )
        controllers = self._build_controllers(
            scenario, web, hypervisor, engine
        )
        if scenario.fleet is not None:
            # Tenants with their own elastic controller are pinned:
            # the controller's tap resolves the domain on the
            # build-time hypervisor every tick, so migrating such a VM
            # would strand the controller (fleet-driven *resizing* of
            # migrated tenants is a ROADMAP follow-up).
            pinned = {
                f"{spec.name}-vm"
                for spec in scenario.tenants
                if spec.controller is not None
            }
            # Forced evacuation may move *any* guest — the web pair
            # included — so the fleet controller gets a rebind for
            # every domain, plus the in-flight rescale hook that makes
            # the stop-and-copy pause physically stall service.
            evacuable = {
                "web-vm": deployment.web_context.rebind,
                "db-vm": deployment.db_context.rebind,
            }
            rescalers = {
                "web-vm": deployment.web_context.rescale_in_flight,
                "db-vm": deployment.db_context.rescale_in_flight,
            }
            for name, context in tenant_contexts.items():
                evacuable[name] = context.rebind
                rescalers[name] = context.rescale_in_flight
            controllers.append(
                FleetController(
                    self.sim,
                    scenario.fleet,
                    engine,
                    web.stats,
                    movable={
                        name: context.rebind
                        for name, context in tenant_contexts.items()
                        if name not in pinned
                    },
                    driver=web.population if web.open_loop else None,
                    evacuable=evacuable,
                    rescalers=rescalers,
                )
            )
        if resolved_faults:
            controllers.append(
                self._build_fault_controller(
                    resolved_faults, deployment, hypervisor, engine
                )
            )
        observer = None
        if observe:
            # Hook every hypervisor in the testbed; bare metal has
            # none, but the recorder's SLO probe still applies.
            observer = ObsRecorder(
                self.sim,
                web.stats,
                dict(engine.hypervisors) if engine is not None else {},
                driver=web.population if web.open_loop else None,
            )
            controllers.append(observer)
        return Testbed(
            original,
            web,
            tenants,
            hypervisor,
            controllers,
            engine=engine,
            observer=observer,
        )

    def _compose_flash_crowds(self, scenario, resolved_faults):
        """Fold flash-crowd faults into the open-loop rate envelope."""
        crowds = [
            fault
            for fault in resolved_faults
            if fault.spec.kind == FLASH_CROWD
        ]
        if not crowds:
            return scenario
        traffic = scenario.traffic  # open-loop, per Scenario validation
        shapes = [traffic.shape] if traffic.shape is not None else []
        for fault in crowds:
            shapes.append(
                FlashCrowdShape(
                    peak_time_s=fault.inject_at_s + FLASH_FAULT_RISE_S,
                    magnitude=fault.spec.effective_magnitude,
                    rise_s=FLASH_FAULT_RISE_S,
                    decay_s=FLASH_FAULT_DECAY_S,
                )
            )
        shape = (
            shapes[0] if len(shapes) == 1 else CompositeShape(tuple(shapes))
        )
        return replace(scenario, traffic=replace(traffic, shape=shape))

    def _fault_hypervisor(
        self,
        spec: FaultSpec,
        hypervisor: Hypervisor,
        engine: PlacementEngine,
    ) -> Hypervisor:
        """Resolve which hypervisor a fault actuates.

        Server-target kinds accept a server name (``cloud-2``), a VM
        name (fault lands on its host) or nothing (the web server).
        ``cap_theft`` targets the victim *domain*'s host.
        """
        if spec.server_target:
            target = spec.target
            if target and target in engine.hypervisors:
                return engine.hypervisors[target]
            return engine.hypervisor_for(target or "web-vm")
        if spec.kind == CAP_THEFT:
            return engine.hypervisor_for(spec.target or "web-vm")
        return hypervisor

    def _build_fault_controller(
        self,
        resolved_faults,
        deployment,
        hypervisor: Hypervisor,
        engine: PlacementEngine,
    ) -> FaultController:
        """Plan every resolved fault against its target and injector."""
        plan = []
        for fault in resolved_faults:
            target_hv = self._fault_hypervisor(fault.spec, hypervisor, engine)
            injector = build_injector(
                fault.spec, target_hv, deployment, self.streams.stream
            )
            plan.append(PlannedFault(fault, injector, target_hv))
        return FaultController(self.sim, plan)

    def _build_controllers(
        self,
        scenario: Scenario,
        web: RubisWorkload,
        hypervisor: Optional[Hypervisor],
        engine: Optional[PlacementEngine],
    ) -> List[ElasticController]:
        """The scenario's elastic controllers, wired to live telemetry.

        The scenario-level controller resizes the web VMs; per-tenant
        controllers (``TenantSpec.controller``) are retargeted at the
        tenant's own VM.  All of them observe the web workload's
        latency/shed signals — the testbed-level SLO is what drives
        resizing, including the priority-aware (``invert=True``)
        throttling of antagonist tenants.
        """
        controllers: List[ElasticController] = []
        driver = web.population if web.open_loop else None
        if scenario.controller is not None:
            controllers.append(
                ElasticController(
                    self.sim,
                    scenario.controller,
                    hypervisor,
                    web.stats,
                    driver=driver,
                )
            )
        for spec in scenario.tenants:
            if spec.controller is None:
                continue
            vm_name = f"{spec.name}-vm"
            controllers.append(
                ElasticController(
                    self.sim,
                    spec.controller.for_domain(vm_name),
                    engine.hypervisor_for(vm_name),
                    web.stats,
                    driver=driver,
                    entity=f"control.{spec.name}",
                )
            )
        return controllers

    def _build_virtualized(self, scenario: Scenario):
        """One or more physical servers, VMs assigned by the policy.

        The web pair is one affinity group (the tiers talk over the
        software bridge) and is pinned (not movable); tenant VMs are
        movable batch requests.  Placement happens *before* any domain
        is created, so the engine's assignment decides which hypervisor
        each VM materializes on.  A lone server's guests may
        oversubscribe its cores without bound; see
        :data:`~repro.placement.spec.DEFAULT_VCPU_OVERCOMMIT`.
        """
        calibrated = calibrated_environment(VIRTUALIZED)
        engine = PlacementEngine(
            self.sim,
            scenario.servers,
            policy=scenario.placement,
            overhead=calibrated.overhead,
            vcpu_contention=scenario.controlled,
            vcpu_overcommit=(
                DEFAULT_VCPU_OVERCOMMIT if scenario.multi_server else math.inf
            ),
        )
        requests = [
            VmRequest(
                name,
                vcpus=DEFAULT_VM_VCPUS,
                memory_bytes=DEFAULT_VM_MEMORY_BYTES,
                priority=1,
                group="web",
                movable=False,
            )
            for name in ("web-vm", "db-vm")
        ]
        for spec in scenario.tenants:
            requests.append(
                VmRequest(
                    f"{spec.name}-vm",
                    vcpus=spec.vcpus,
                    memory_bytes=spec.memory_gb * GB,
                    priority=0,
                    movable=True,
                )
            )
        engine.place(requests)
        hypervisor = engine.hypervisor_for("web-vm")
        deployment = VirtualizedDeployment(
            self.sim,
            self.streams,
            hypervisor,
            engine.cluster,
            config=calibrated.deployment_config,
        )
        return deployment, hypervisor, engine


def build_testbed(
    sim: Simulator,
    streams: RandomStreams,
    scenario: Scenario,
    meter_arrivals: bool = False,
    observe: bool = False,
) -> Testbed:
    """Convenience wrapper over :class:`TestbedBuilder`."""
    return TestbedBuilder(sim, streams).build(
        scenario, meter_arrivals=meter_arrivals, observe=observe
    )
