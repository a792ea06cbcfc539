"""Credit scheduler: weighted proportional-share allocation of cores.

Implements the allocation semantics of Xen's credit scheduler at epoch
granularity: each domain demands up to ``min(online VCPUs, runnable
workers)`` cores; cores are divided in proportion to weights, subject to
per-domain caps, with unused share redistributed (progressive filling).
The result is work-conserving: if aggregate demand fits in the machine,
every domain receives its full demand.

The simulator recomputes the allocation every scheduler epoch and the
queueing stations sample the resulting per-domain speed fraction at
service start (documented approximation: in-flight services are not
re-scaled mid-service; at the paper's operating point — far from CPU
saturation — allocations are almost always demand-limited anyway).

The allocation is a pure function of its input, and consolidated
servers mostly run idle guests whose input does not change between
epochs, so an epoch that sees the previous epoch's exact input reuses
the previous decision.  A host whose every domain is idle skips even
that: an all-idle decision grants every domain a speed fraction of 1.0
whatever its caps, weights, cores or domain set, so the hypervisor
stops calling :meth:`CreditScheduler.allocate` until a worker gauge
rises, and does not call it at a woken tick whose gauges are all idle
again (see :meth:`repro.virt.hypervisor.Hypervisor._run_epoch`).
:attr:`CreditScheduler.epochs` counts only the allocations evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.virt.domain import Domain

#: Iterations of progressive filling; enough for float convergence with
#: any realistic domain count.
_MAX_FILL_ROUNDS = 64


@dataclass
class SchedulerDecision:
    """Outcome of one allocation epoch."""

    granted_cores: Dict[str, float] = field(default_factory=dict)
    demand_cores: Dict[str, float] = field(default_factory=dict)
    total_cores: float = 0.0

    def speed_fraction(self, domain_name: str) -> float:
        """Fraction of demanded speed the domain received (1.0 when idle).

        A domain that got everything it asked for runs at full speed; one
        that got half its demand runs each worker at half speed.
        """
        demand = self.demand_cores.get(domain_name, 0.0)
        if demand <= 0:
            return 1.0
        granted = self.granted_cores.get(domain_name, 0.0)
        return max(min(granted / demand, 1.0), 1e-9)

    @cached_property
    def runnable(self) -> int:
        """Domains with a positive demand."""
        return sum(1 for demand in self.demand_cores.values() if demand > 0)

    @cached_property
    def total_demand(self) -> float:
        """Cores demanded by all domains together."""
        return sum(self.demand_cores.values())


class CreditScheduler:
    """Weighted, capped, work-conserving proportional share."""

    def __init__(self, total_cores: float) -> None:
        if total_cores <= 0:
            raise ConfigurationError("total_cores must be positive")
        self.total_cores = float(total_cores)
        self.last_decision = SchedulerDecision(total_cores=self.total_cores)
        #: Allocations evaluated (the epochs an idle host sleeps through
        #: or skips at a woken tick are not).
        self.epochs = 0
        # name -> speed fraction of the last epoch; fractions only change
        # at epoch boundaries but are read at every service start.
        self._fractions: Dict[str, float] = {}
        # The input that produced ``last_decision``: total cores (None
        # before the first epoch) and each domain's (name, demand, cap,
        # weight).
        self._last_total: Optional[float] = None
        self._last_inputs: List[Tuple[str, float, float, float]] = []

    def allocate(self, domains: Iterable[Domain]) -> SchedulerDecision:
        """Allocate cores to ``domains`` for the next epoch.

        The decision depends only on ``total_cores`` and each domain's
        (name, demand, cap, weight) in iteration order.  When all of it
        equals the previous epoch's, the previous decision is returned.
        The input is read afresh on every call rather than tracked by a
        dirty flag, because caps, weights and ``total_cores`` are
        written directly by controllers, fault injectors and live
        migration.  Worker gauges are written only through
        :class:`~repro.virt.domain.Domain`, so every rise from idle
        reaches the hypervisor; that is what lets a host whose gauges
        are all idle skip this call (an all-idle decision depends on
        the gauges alone).
        """
        total_cores = self.total_cores
        inputs = [
            (d.name, d.demand_cores(), d.cap_cores, d.weight) for d in domains
        ]
        self.epochs += 1
        if total_cores == self._last_total and inputs == self._last_inputs:
            return self.last_decision
        self._last_total = total_cores
        self._last_inputs = inputs

        demands = {name: demand for name, demand, _, _ in inputs}
        limits = {
            name: min(demand, cap if cap > 0 else total_cores)
            for name, demand, cap, _ in inputs
        }
        weights = {name: weight for name, _, _, weight in inputs}
        granted = {name: 0.0 for name, _, _, _ in inputs}

        remaining = total_cores
        unsatisfied = {name for name, lim in limits.items() if lim > 0}
        for _ in range(_MAX_FILL_ROUNDS):
            if remaining <= 1e-12 or not unsatisfied:
                break
            weight_sum = sum(weights[name] for name in unsatisfied)
            if weight_sum <= 0:
                break
            progressed = False
            share_unit = remaining / weight_sum
            for name in sorted(unsatisfied):
                head_room = limits[name] - granted[name]
                give = min(head_room, share_unit * weights[name])
                if give > 0:
                    granted[name] += give
                    remaining -= give
                    progressed = True
            unsatisfied = {
                name
                for name in unsatisfied
                if limits[name] - granted[name] > 1e-12
            }
            if not progressed:
                break

        decision = SchedulerDecision(
            granted_cores=granted,
            demand_cores=demands,
            total_cores=total_cores,
        )
        self.last_decision = decision
        self._fractions = {
            name: decision.speed_fraction(name) for name in demands
        }
        return decision

    def speed_fraction(self, domain_name: str) -> float:
        """Speed fraction from the most recent epoch."""
        fraction = self._fractions.get(domain_name)
        if fraction is None:
            return self.last_decision.speed_fraction(domain_name)
        return fraction
