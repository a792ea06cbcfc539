"""Declarative experiment configuration.

:class:`ExperimentConfig` is the serializable description of one run —
what the CLI, suites and shard pods consume.  Round-trips through plain
dicts (and therefore JSON).

It is a front end, not a second spec: its fields are the CLI's tokens
(``"poisson"``, ``"crash@60"``, ``"pid"``), and :meth:`to_scenario`
parses them into the :class:`~repro.experiments.scenarios.Scenario`
that validates the run.  Construction builds that scenario once, so a
bad config fails at construction with the scenario's own message.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.spec import FaultSchedule
from repro.experiments.scenarios import (
    Scenario,
    open_loop_scenario,
    scenario,
    with_controller,
    with_engine,
)
from repro.placement.spec import FleetSpec
from repro.plaindata import from_plain_dict
from repro.traffic.spec import TrafficSpec
from repro.workloads.base import TenantSpec


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run, fully described by plain data."""

    environment: str = "virtualized"
    composition: str = "browsing"
    duration_s: Optional[float] = None
    seed: int = 42
    clients: Optional[int] = None
    #: Stress multiplier on horizon and clients (see ``scenario(scale=)``).
    scale: float = 1.0
    #: Traffic driver token: "closed" (default), "poisson", "mmpp",
    #: "bmodel" or "trace:<path>" — the CLI ``--traffic`` syntax.
    traffic: Optional[str] = None
    #: Base offered rate for open-loop traffic (req/s; default: matched
    #: to the closed-loop long-run rate).
    rate_rps: Optional[float] = None
    #: Concurrent-session cap for open-loop traffic (overload shedding).
    session_budget: Optional[int] = None
    #: Co-resident tenant VMs (consolidation); each entry is a
    #: :class:`~repro.workloads.base.TenantSpec` (or its dict form).
    tenants: Tuple[TenantSpec, ...] = ()
    #: Elastic-controller policy token: None/"none" (no controller) or
    #: "static"/"threshold"/"pid"/"predictive" — the CLI
    #: ``--controller`` syntax, expanded to a default-band
    #: :class:`~repro.control.spec.ControllerSpec`.
    controller: Optional[str] = None
    #: Physical servers in the fleet (>1 builds the multi-server
    #: testbed through the placement engine).
    servers: int = 1
    #: Placement policy token (``firstfit``/``bestfit``/``balance``/
    #: ``priority``); None keeps the scenario default (first-fit).
    placement: Optional[str] = None
    #: Fleet-controller spec (:class:`~repro.placement.spec.FleetSpec`
    #: or its dict form); requires ``servers > 1``.  None (the
    #: default) runs without a fleet controller.
    fleet: Optional[FleetSpec] = None
    #: Fault-schedule token: ``"+"``-joined
    #: ``kind@at[:duration[:magnitude]][/target]`` entries (the CLI
    #: ``--faults`` syntax, see :mod:`repro.faults.spec`); None or
    #: ``"none"`` runs fault-free.
    faults: Optional[str] = None
    #: Request-engine selector: ``"classic"`` (event-per-hop, the
    #: bit-stable default) or ``"batched"`` (array-native cohort
    #: engine; equivalent in distribution, not bitwise — see
    #: PERFORMANCE.md "Epoch 2").
    engine: str = "classic"
    #: Request-trace sampling rate in [0, 1]; 0 disables tracing (and
    #: keeps bit-identical traces — see :mod:`repro.obs.tracing`).
    trace_sample: float = 0.0

    def __post_init__(self) -> None:
        # Deserialized tenants and fleet specs arrive as plain dicts;
        # normalize to the hashable specs so equality and round-trips
        # hold.
        coerced = tuple(
            entry if isinstance(entry, TenantSpec) else TenantSpec.from_dict(entry)
            for entry in self.tenants
        )
        object.__setattr__(self, "tenants", coerced)
        if self.fleet is not None and not isinstance(self.fleet, FleetSpec):
            object.__setattr__(self, "fleet", FleetSpec.from_dict(self.fleet))
        if self.traffic_spec() is None:
            # Closed loop: reject open-loop-only knobs instead of
            # silently running at a different offered load.  A
            # closed-loop scenario has no traffic spec to carry them,
            # so only the config can tell.
            if self.rate_rps is not None:
                raise ConfigurationError(
                    "rate_rps requires an open-loop --traffic kind "
                    "(poisson, mmpp, bmodel or trace:<path>)"
                )
            if self.session_budget is not None:
                raise ConfigurationError(
                    "session_budget requires an open-loop --traffic kind"
                )
        # Every other check belongs to the scenario and the specs it is
        # built from, so a bad config fails here, not at run time.
        self.to_scenario()

    # -- scenario construction ------------------------------------------

    def fault_schedule(self):
        """The parsed :class:`~repro.faults.spec.FaultSchedule`, or None."""
        if self.faults is None or self.faults == "none":
            return None
        return FaultSchedule.from_cli_string(self.faults)

    def traffic_spec(self) -> Optional[TrafficSpec]:
        """The parsed traffic spec, or None for the closed loop."""
        if self.traffic is None:
            return None
        spec = TrafficSpec.from_cli_string(
            self.traffic,
            rate_rps=self.rate_rps,
            session_budget=self.session_budget,
        )
        return spec if spec.open_loop else None

    def to_scenario(self) -> Scenario:
        """The runnable scenario this configuration describes."""
        traffic = self.traffic_spec()
        if traffic is not None:
            spec = open_loop_scenario(
                self.environment,
                self.composition,
                duration_s=self.duration_s,
                seed=self.seed,
                clients=self.clients,
                scale=self.scale,
                traffic=traffic,
            )
        else:
            spec = scenario(
                self.environment,
                self.composition,
                duration_s=self.duration_s,
                seed=self.seed,
                clients=self.clients,
                scale=self.scale,
            )
        if self.tenants:
            names = "+".join(t.name for t in self.tenants)
            spec = replace(
                spec, name=f"{spec.name}+{names}", tenants=self.tenants
            )
        if self.controller not in (None, "none"):
            spec = with_controller(spec, self.controller)
        if self.servers != 1:  # a bad count reaches the scenario's check
            spec = replace(
                spec,
                name=f"{spec.name}/s{self.servers}",
                servers=self.servers,
                placement=self.placement or spec.placement,
            )
        elif self.placement is not None:
            spec = replace(spec, placement=self.placement)
        if self.fleet is not None:
            # The fleet spec is infrastructure, not workload shape, so
            # the name stays unsuffixed — the cache key still covers it.
            spec = replace(spec, fleet=self.fleet)
        schedule = self.fault_schedule()
        if schedule is not None:
            spec = replace(
                spec,
                name=f"{spec.name}!{schedule.as_cli_string()}",
                faults=schedule,
            )
        spec = with_engine(spec, self.engine)
        if self.trace_sample:
            # Tracing never changes the physics, so the name is kept
            # unsuffixed — but the cache key includes the rate, and an
            # out-of-range rate reaches the scenario's check.
            spec = replace(spec, trace_sample=self.trace_sample)
        return spec

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return from_plain_dict(cls, data, "configuration")
