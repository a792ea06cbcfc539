"""The workload abstraction: what a tenant runs inside the testbed.

The paper characterizes *two* application classes on the same
virtualized servers — an interactive web application (RUBiS) and batch
big-data jobs (the Section 5 MapReduce future work).  A
:class:`Workload` packages everything one tenant contributes to an
experiment run:

* a *driver* (``start()``) that offers load once the simulation runs,
* *probes* under the tenant's own metric namespace (the probe entity
  is the tenant name, so traces and the 518-metric registry columns
  are per-tenant),
* a plain-data ``summary()`` for suite reports,
* ``shutdown()`` to disarm periodic processes at the horizon.

:class:`TenantSpec` is the declarative, hashable description of one
*extra* tenant VM (the web workload is described by the scenario
itself); the :class:`~repro.experiments.testbed.TestbedBuilder` turns a
scenario plus its tenant specs into a live multi-tenant testbed on one
hypervisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.control.spec import ControllerSpec
from repro.errors import ConfigurationError
from repro.monitoring.probes import Probe
from repro.plaindata import from_plain_dict

#: Workload kinds a TenantSpec may name.
RUBIS = "rubis"
MAPREDUCE = "mapreduce"
#: A capacity-reservation VM: holds CPU/memory bookings but offers no
#: load (see :mod:`repro.workloads.ballast`) — the fill that makes
#: datacenter-density fleets simulable, and the only species a
#: cross-fleet evacuation may ship (no in-flight driver state).
BALLAST = "ballast"
WORKLOAD_KINDS = (RUBIS, MAPREDUCE, BALLAST)

#: Probe entities owned by the web workload and the hypervisor; tenant
#: names must not collide with them.
RESERVED_ENTITIES = ("web", "db", "dom0")

#: MapReduce job templates a TenantSpec may name (see
#: :mod:`repro.mapreduce.workload`).
JOB_TEMPLATES = ("sort", "grep")


class Workload:
    """Interface every tenant workload implements.

    A workload is *attached* to the simulator and testbed at
    construction time (tiers built, domains wired); ``start()`` only
    arms its load driver, mirroring how the closed-loop client
    population separates construction from the first request.
    """

    #: Tenant name; doubles as the metric namespace of the probes.
    name: str = ""

    def probes(self) -> Sequence[Probe]:
        """Monitoring probes under this workload's namespace."""
        raise NotImplementedError

    def start(self) -> None:
        """Arm the load driver (clients, arrival stream, job mix)."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Disarm periodic processes at the end of the run."""
        raise NotImplementedError

    def summary(self) -> dict:
        """Plain-data per-tenant report merged into suite results."""
        raise NotImplementedError


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one co-resident tenant VM.

    Hashable plain data so it can ride inside a scenario's cache key
    and serialize through :class:`~repro.config.ExperimentConfig`.
    The default is a shuffle-heavy batch VM sized like a noisy
    neighbour: eight VCPUs worth of map slots on the shared cores plus
    sort-scale I/O through the shared dom0 backends.

    Attributes:
        name: tenant name; the probe entity namespace (``batch``).
        workload: workload kind (currently ``mapreduce``; the web
            workload is described by the scenario itself).
        vcpus: VCPUs of the tenant VM (CPU demand ceiling).
        memory_gb: VM memory reservation in GB.
        weight: credit-scheduler weight (Xen default 256).
        cap_cores: hard CPU cap in cores (0 = uncapped).
        job: MapReduce job template (``sort`` or ``grep``).
        input_mb: input volume per job in MB.
        tasks: map-task count per job.
        arrival_rate_per_s: Poisson job-arrival intensity.
        map_slots / reduce_slots: concurrent task slots in the VM.
        controller: optional per-tenant elastic controller — the
            testbed attaches it to this tenant's own VM (the spec's
            ``domains`` field is replaced with ``<name>-vm``).  With
            ``invert=True`` it becomes a priority-aware throttle: the
            tenant is capped down while the web SLO degrades.
    """

    name: str = "batch"
    workload: str = MAPREDUCE
    vcpus: int = 8
    memory_gb: float = 4.0
    weight: float = 256.0
    cap_cores: float = 0.0
    job: str = "sort"
    input_mb: float = 256.0
    tasks: int = 16
    arrival_rate_per_s: float = 0.05
    map_slots: int = 8
    reduce_slots: int = 4
    controller: Optional[ControllerSpec] = None

    def __post_init__(self) -> None:
        if self.controller is not None and not isinstance(
            self.controller, ControllerSpec
        ):
            object.__setattr__(
                self, "controller", ControllerSpec.from_dict(self.controller)
            )
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if self.name in RESERVED_ENTITIES:
            raise ConfigurationError(
                f"tenant name {self.name!r} collides with a reserved "
                f"probe entity {RESERVED_ENTITIES}"
            )
        if self.workload not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.workload!r}; "
                f"choose from {WORKLOAD_KINDS}"
            )
        if self.workload == RUBIS:
            raise ConfigurationError(
                "rubis tenants are described by the scenario itself; "
                "TenantSpec currently models batch co-tenants"
            )
        if self.vcpus < 1:
            raise ConfigurationError("vcpus must be >= 1")
        if self.memory_gb <= 0:
            raise ConfigurationError("memory_gb must be positive")
        if self.weight <= 0:
            raise ConfigurationError("weight must be positive")
        if self.cap_cores < 0:
            raise ConfigurationError("cap_cores must be >= 0")
        if self.job not in JOB_TEMPLATES:
            raise ConfigurationError(
                f"unknown job template {self.job!r}; "
                f"choose from {JOB_TEMPLATES}"
            )
        if self.input_mb <= 0:
            raise ConfigurationError("input_mb must be positive")
        if self.tasks < 1:
            raise ConfigurationError("tasks must be >= 1")
        if self.arrival_rate_per_s <= 0:
            raise ConfigurationError("arrival_rate_per_s must be positive")
        if self.map_slots < 1 or self.reduce_slots < 1:
            raise ConfigurationError("slots must be >= 1")

    @property
    def stream_prefix(self) -> str:
        """Base name of the RNG streams this tenant draws from."""
        return f"tenant.{self.name}"

    @classmethod
    def from_dict(cls, data: dict) -> "TenantSpec":
        """Reconstruct from a plain dict (config deserialization)."""
        return from_plain_dict(cls, data, "tenant spec")
