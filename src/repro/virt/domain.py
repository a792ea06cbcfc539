"""Xen domains: dom0 (the privileged control domain) and guest domUs."""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

from repro.errors import ConfigurationError
from repro.units import GB
from repro.virt.vcpu import Vcpu


class DomainKind(enum.Enum):
    """Domain privilege class."""

    DOM0 = "dom0"
    GUEST = "guest"


class Domain:
    """A Xen domain: VCPUs, a memory reservation, scheduler parameters.

    Attributes:
        weight: credit-scheduler weight (proportional share).
        cap_cores: hard cap in physical cores (0 disables the cap, like
            Xen's ``cap=0``).
        on_wake: called with no argument whenever the worker gauge rises
            from zero (or below) to above zero; the hypervisor hosting
            the domain installs it to wake a sleeping scheduler epoch.

    The worker gauge (:attr:`active_workers`) is the domain's demand
    signal: the scheduler reads it to know how many cores the domain
    could use right now.  Only this class writes it -- through
    :meth:`worker_started`, :meth:`worker_finished` or the property's
    setter -- so every rise from idle reaches ``on_wake``.
    """

    def __init__(
        self,
        name: str,
        kind: DomainKind = DomainKind.GUEST,
        vcpu_count: int = 2,
        memory_bytes: float = 2 * GB,
        weight: float = 256.0,
        cap_cores: float = 0.0,
    ) -> None:
        if vcpu_count < 1:
            raise ConfigurationError("a domain needs at least one VCPU")
        if memory_bytes <= 0:
            raise ConfigurationError("memory_bytes must be positive")
        if weight <= 0:
            raise ConfigurationError("weight must be positive")
        if cap_cores < 0:
            raise ConfigurationError("cap_cores must be >= 0 (0 = uncapped)")
        self.name = name
        self.kind = kind
        self.vcpus: List[Vcpu] = [Vcpu(i) for i in range(vcpu_count)]
        self.memory_bytes = float(memory_bytes)
        self.weight = float(weight)
        self.cap_cores = float(cap_cores)
        self._active = 0
        self.on_wake: Optional[Callable[[], None]] = None
        #: Ledger owner key used by hardware accounting.  A plain
        #: attribute (name and kind are fixed at construction) because
        #: every I/O and CPU charge reads it.
        self.owner = "dom0" if kind is DomainKind.DOM0 else f"vm:{name}"

    @property
    def active_workers(self) -> int:
        """Workers runnable in the domain right now (the demand gauge).

        Maintained by the queueing stations running inside the domain
        (:meth:`worker_started` / :meth:`worker_finished`), published
        wholesale by the batched engine's drains, and raised by faults
        that park work on dom0.
        """
        return self._active

    @active_workers.setter
    def active_workers(self, count: int) -> None:
        was = self._active
        self._active = count
        if was <= 0 < count and self.on_wake is not None:
            self.on_wake()

    @property
    def online_vcpus(self) -> int:
        return sum(1 for vcpu in self.vcpus if vcpu.online)

    def set_online_vcpus(self, count: int) -> None:
        """Hotplug/unplug: bring exactly ``count`` VCPUs online.

        Grows the VCPU list when ``count`` exceeds the assigned VCPUs
        (Xen hotplugs against ``maxvcpus``); surplus VCPUs go offline.
        In-flight services are not re-scaled — like the scheduler
        allocation, the VCPU count is sampled at service start.
        """
        if count < 1:
            raise ConfigurationError("a domain needs at least one online VCPU")
        while len(self.vcpus) < count:
            self.vcpus.append(Vcpu(len(self.vcpus), online=False))
        for i, vcpu in enumerate(self.vcpus):
            vcpu.online = i < count

    def demand_cores(self) -> float:
        """Cores this domain could use right now.

        Bounded by its online VCPUs (a 2-VCPU domain can never use more
        than 2 cores) and by its current active workers.  An idle domain
        returns before counting its VCPUs.
        """
        active = self._active
        if active <= 0:
            return 0.0
        return float(min(self.online_vcpus, active))

    def worker_started(self) -> None:
        """A station began serving a job inside this domain."""
        active = self._active
        self._active = active + 1
        if active <= 0 and self.on_wake is not None:
            self.on_wake()

    def worker_finished(self) -> None:
        """A station finished serving a job inside this domain."""
        active = self._active
        if active <= 0:
            raise ConfigurationError(
                f"worker_finished with no active workers in {self.name!r}"
            )
        self._active = active - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Domain {self.name} {self.kind.value} vcpus={len(self.vcpus)} "
            f"mem={self.memory_bytes / GB:.1f}GB w={self.weight:g}>"
        )
