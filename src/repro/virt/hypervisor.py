"""The hypervisor facade: domains, scheduling epochs, I/O, memory.

One :class:`Hypervisor` runs per virtualized physical server.  It owns

* the domain table (dom0 is created automatically),
* the credit scheduler, re-run every epoch by a periodic process that
  sleeps while every domain is idle (see :meth:`Hypervisor._run_epoch`),
* the block/net backends in dom0,
* dom0's own housekeeping (base CPU burn and log writes, once a second),
* dom0's memory model, which follows every change of a guest's memory
  (:meth:`Hypervisor.set_vm_memory`, :meth:`Hypervisor.detach_domain`),

and exposes the execution interface the application tiers use:
``cpu_time`` / ``charge_vm_cycles`` / ``disk_read`` / ``disk_write`` /
``net_receive`` / ``net_transmit`` / ``set_vm_memory``.

It also exposes the *runtime actuators* the elastic-control subsystem
(:mod:`repro.control`) drives mid-run: VCPU hotplug/unplug
(:meth:`set_vcpus`), credit-scheduler cap and weight adjustment
(:meth:`set_cap_cores` / :meth:`set_weight`) and memory ballooning
(:meth:`balloon`).  Every effective actuation charges dom0 the
toolstack cost and emits a control-action event to the registered
hooks, so resizing decisions are first-class observable events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.hardware.server import PhysicalServer
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.units import GB
from repro.virt.domain import Domain, DomainKind
from repro.virt.io_backend import DOM0_OWNER, BlockBackend, NetBackend
from repro.virt.overhead import OverheadModel
from repro.virt.scheduler import CreditScheduler

#: Xen's credit scheduler runs accounting every 30 ms; we use a coarser
#: epoch because allocations only change with station occupancy.  The
#: calibration solves dom0's scheduling cost from this period.
DEFAULT_EPOCH_S = 0.1

#: Dom0's VCPUs, memory reservation and credit-scheduler weight.
DOM0_VCPUS = 2
DOM0_MEMORY_BYTES = 4 * GB
DOM0_WEIGHT = 512.0

#: Dom0 housekeeping cadence (base CPU burn, sysstat cron, log flush).
#: Dom0's memory is not refreshed here: it changes only where guest
#: memory does.
HOUSEKEEPING_INTERVAL_S = 1.0


@dataclass
class DomainState:
    """Serialized domain state carried across a live migration.

    The :class:`~repro.virt.domain.Domain` object itself migrates (its
    VCPUs, reservation, scheduler parameters and worker gauge travel
    with it); this record carries the *accounting* the destination
    hypervisor must restore so guest-visible counters stay monotonic —
    exactly like a real migration preserves ``/proc`` counters because
    the whole kernel image moves.
    """

    domain: Domain
    cpu_cycles: float
    mem_used_bytes: float
    disk_read_bytes: float
    disk_write_bytes: float
    net_rx_bytes: float
    net_tx_bytes: float


class Hypervisor:
    """Xen-like hypervisor bound to one physical server.

    The credit-scheduler epoch runs every :data:`DEFAULT_EPOCH_S` while
    any domain on the host has runnable workers and sleeps while none
    has: every domain the hypervisor hosts, dom0 included, carries the
    epoch process's ``wake`` as its ``on_wake`` hook.
    """

    def __init__(
        self,
        sim: Simulator,
        server: PhysicalServer,
        overhead: Optional[OverheadModel] = None,
        vcpu_contention: bool = False,
    ) -> None:
        self.sim = sim
        self.server = server
        self.overhead = overhead or OverheadModel()
        #: Model refinement used by elasticity experiments: when True,
        #: workers runnable beyond a domain's online VCPUs time-share
        #: them (service slows by ``online_vcpus / active_workers``).
        #: Off by default — the paper-calibrated baseline never
        #: materially exceeds its VCPUs, and enabling it globally would
        #: perturb the figure fingerprints (it needs a deliberate
        #: re-baselining, like the PR-1 batching ideas).
        self.vcpu_contention = bool(vcpu_contention)
        #: Control-action hooks (see :meth:`add_control_hook`) and the
        #: total count of effective actuations.
        self._control_hooks: List[Callable[[dict], None]] = []
        self.control_actions = 0
        self.scheduler = CreditScheduler(server.spec.cores)
        #: Per-domain CPU ready (steal) time in core-seconds — see
        #: :meth:`cpu_ready_seconds`.
        self._cpu_ready_s: Dict[str, float] = {}
        #: Per-domain billed capacity (core-seconds of *reserved* CPU
        #: and GB-seconds of reserved memory) — see :meth:`billing_report`.
        #: Reservations are piecewise-constant between control actions,
        #: so the bill integrates lazily at actuation boundaries and at
        #: report time (O(actions), nothing on the epoch hot path).
        self._billed_core_s: Dict[str, float] = {}
        self._billed_gb_s: Dict[str, float] = {}
        self._bill_marks: Dict[str, float] = {}
        self._domains: Dict[str, Domain] = {}
        self.dom0 = Domain(
            "Domain-0",
            kind=DomainKind.DOM0,
            vcpu_count=DOM0_VCPUS,
            memory_bytes=DOM0_MEMORY_BYTES,
            weight=DOM0_WEIGHT,
        )
        self._domains[self.dom0.name] = self.dom0
        self.block_backend = BlockBackend(
            sim, server.disk, server.cpu, self.overhead
        )
        self.net_backend = NetBackend(sim, server.nic, server.cpu, self.overhead)
        self.requests_accounted = 0
        #: True when the last epoch put the epoch process to sleep, so
        #: the next epoch is a tick a gauge rise armed (see _run_epoch).
        self._epoch_slept = False
        self._epoch_process = PeriodicProcess(
            sim, DEFAULT_EPOCH_S, self._run_epoch, name="credit-epoch"
        ).start()
        self.dom0.on_wake = self._epoch_process.wake
        self._housekeeping = PeriodicProcess(
            sim, HOUSEKEEPING_INTERVAL_S, self._run_housekeeping,
            name="dom0-housekeeping",
        ).start()
        self._update_dom0_memory()

    # -- domain management ---------------------------------------------------

    def create_domain(
        self,
        name: str,
        vcpu_count: int = 2,
        memory_bytes: float = 2 * GB,
        weight: float = 256.0,
        cap_cores: float = 0.0,
    ) -> Domain:
        """Create a guest domain (a VM)."""
        if name in self._domains:
            raise ConfigurationError(f"duplicate domain name {name!r}")
        domain = Domain(
            name,
            kind=DomainKind.GUEST,
            vcpu_count=vcpu_count,
            memory_bytes=memory_bytes,
            weight=weight,
            cap_cores=cap_cores,
        )
        domain.on_wake = self._epoch_process.wake
        self._domains[name] = domain
        self._bill_marks[name] = self.sim.now
        return domain

    def domain(self, name: str) -> Domain:
        if name not in self._domains:
            raise ConfigurationError(f"unknown domain {name!r}")
        return self._domains[name]

    def has_domain(self, name: str) -> bool:
        return name in self._domains

    def detach_domain(self, name: str) -> DomainState:
        """Remove a guest from this hypervisor, serializing its state.

        The final step of a live migration's stop-and-copy phase: the
        domain leaves the domain table (the credit scheduler stops
        granting it cores at the next epoch), its memory reservation is
        released on this server, and its cumulative guest-visible
        counters are captured so :meth:`attach_domain` can restore them
        on the destination.  Dom0 is not detachable.
        """
        domain = self.domain(name)
        if domain.kind is DomainKind.DOM0:
            raise ConfigurationError("dom0 cannot be detached")
        owner = domain.owner
        state = DomainState(
            domain=domain,
            cpu_cycles=self.server.cpu.ledger.total(owner),
            mem_used_bytes=self.server.memory.usage(owner),
            disk_read_bytes=self.block_backend.vm_bytes_read(owner),
            disk_write_bytes=self.block_backend.vm_bytes_written(owner),
            net_rx_bytes=self.net_backend.vm_bytes_received(owner),
            net_tx_bytes=self.net_backend.vm_bytes_transmitted(owner),
        )
        self._accrue_billing(domain)
        domain.on_wake = None
        del self._domains[name]
        del self._bill_marks[name]
        self.server.memory.set_usage(owner, 0.0)
        self._update_dom0_memory()
        return state

    def attach_domain(self, state: DomainState) -> Domain:
        """Adopt a migrated guest, restoring its serialized accounting.

        Counter baselines are seeded (not zeroed) so the monitoring
        probes — which first-difference monotonic counters — observe a
        continuous series across the migration, like sysstat inside the
        guest would.  A guest that arrives with runnable workers wakes
        a sleeping scheduler epoch at once.
        """
        domain = state.domain
        if domain.name in self._domains:
            raise ConfigurationError(
                f"duplicate domain name {domain.name!r}"
            )
        domain.on_wake = self._epoch_process.wake
        self._domains[domain.name] = domain
        self._bill_marks[domain.name] = self.sim.now
        owner = domain.owner
        ledger = self.server.cpu.ledger
        already = ledger.total(owner)
        if state.cpu_cycles > already:
            ledger.charge(owner, state.cpu_cycles - already)
        self.block_backend.seed_counters(
            owner, state.disk_read_bytes, state.disk_write_bytes
        )
        self.net_backend.seed_counters(
            owner, state.net_rx_bytes, state.net_tx_bytes
        )
        self.set_vm_memory(domain, state.mem_used_bytes)
        if domain.active_workers > 0:
            self._epoch_process.wake()
        return domain

    def domains(self):
        return list(self._domains.values())

    def guest_domains(self):
        return [d for d in self._domains.values() if d.kind is DomainKind.GUEST]

    # -- CPU execution interface ----------------------------------------------

    def cpu_time(self, domain: Domain, cycles: float) -> float:
        """Wall time for ``cycles`` of guest work at the current allocation."""
        fraction = self.scheduler.speed_fraction(domain.name)
        return self.server.cpu.service_time(cycles, fraction)

    def charge_vm_cycles(self, domain: Domain, cycles: float) -> None:
        """Account guest-visible cycles to the domain's ledger owner."""
        self.server.cpu.charge(domain.owner, cycles)

    def account_request(self, domain: Domain, hypercall_scale: float = 1.0) -> None:
        """Charge dom0 for the event channels/hypercalls of one request."""
        self.requests_accounted += 1
        self.server.cpu.charge(
            DOM0_OWNER,
            self.overhead.hypercall_cycles_per_request * hypercall_scale,
        )

    def account_commit(self, domain: Domain) -> None:
        """Charge dom0 for one guest database commit (barrier + fsync)."""
        self.server.cpu.charge(DOM0_OWNER, self.overhead.commit_cycles)

    # -- I/O interface ----------------------------------------------------------

    def disk_read(self, domain: Domain, size_bytes: float) -> float:
        """Synchronous guest read; returns completion time."""
        return self.block_backend.read(self.sim.now, domain.owner, size_bytes)

    def disk_write(self, domain: Domain, size_bytes: float) -> float:
        """Guest write (batched by the backend); returns completion time."""
        return self.block_backend.write(self.sim.now, domain.owner, size_bytes)

    def net_receive(self, domain: Domain, size_bytes: float) -> float:
        return self.net_backend.receive(self.sim.now, domain.owner, size_bytes)

    def net_transmit(self, domain: Domain, size_bytes: float) -> float:
        return self.net_backend.transmit(self.sim.now, domain.owner, size_bytes)

    # -- memory interface ---------------------------------------------------------

    def set_vm_memory(self, domain: Domain, used_bytes: float) -> None:
        """Set a guest's used-memory level (as its own sysstat would see)."""
        if used_bytes > domain.memory_bytes:
            used_bytes = domain.memory_bytes  # guest cannot exceed its VM size
        self.server.memory.set_usage(domain.owner, used_bytes)
        self._update_dom0_memory()

    def vm_memory_used(self, domain: Domain) -> float:
        return self.server.memory.usage(domain.owner)

    def dom0_memory_used(self) -> float:
        return self.server.memory.usage(DOM0_OWNER)

    def _update_dom0_memory(self) -> None:
        guest_used = sum(
            self.server.memory.usage(d.owner) for d in self.guest_domains()
        )
        dom0_used = (
            self.overhead.dom0_base_memory_bytes
            + self.overhead.dom0_memory_per_vm_byte * guest_used
        )
        self.server.memory.set_usage(DOM0_OWNER, dom0_used)

    # -- runtime control actuators -------------------------------------------

    def add_control_hook(self, hook: Callable[[dict], None]) -> None:
        """Register a callback invoked with every control-action event.

        The event is a plain dict (``time_s``, ``domain``, ``kind``,
        ``old``, ``new``) so consumers need no import of this layer.
        """
        self._control_hooks.append(hook)

    def emit_event(self, event: dict) -> None:
        """Broadcast an externally-built event to the control hooks.

        Used by actuators that live outside this class (e.g. the live
        migration model) whose events carry richer payloads than the
        ``old``/``new`` pair of the built-in actuators.  No dom0 cost
        is charged here — such actuators account their own costs.
        """
        if self._control_hooks:
            for hook in self._control_hooks:
                hook(event)

    def _emit_control(
        self, domain: Domain, kind: str, old: float, new: float
    ) -> None:
        self.control_actions += 1
        self.server.cpu.charge(
            DOM0_OWNER, self.overhead.control_action_cycles
        )
        if self._control_hooks:
            event = {
                "time_s": self.sim.now,
                "domain": domain.name,
                "kind": kind,
                "old": float(old),
                "new": float(new),
            }
            for hook in self._control_hooks:
                hook(event)

    def set_vcpus(self, domain: Domain, count: int) -> None:
        """Hotplug/unplug VCPUs so exactly ``count`` are online.

        No-op (no event, no dom0 charge) when the domain already runs
        ``count`` VCPUs.  The new count takes effect at the next service
        start / scheduler epoch, like every other allocation change.
        """
        old = domain.online_vcpus
        if count == old:
            return
        self._accrue_billing(domain)
        domain.set_online_vcpus(count)
        self._emit_control(domain, "set_vcpus", old, count)

    def set_cap_cores(self, domain: Domain, cap_cores: float) -> None:
        """Adjust the credit-scheduler cap (0 = uncapped, like Xen)."""
        if cap_cores < 0:
            raise ConfigurationError("cap_cores must be >= 0 (0 = uncapped)")
        old = domain.cap_cores
        if cap_cores == old:
            return
        self._accrue_billing(domain)
        domain.cap_cores = float(cap_cores)
        self._emit_control(domain, "set_cap", old, cap_cores)

    def set_weight(self, domain: Domain, weight: float) -> None:
        """Adjust the credit-scheduler proportional-share weight."""
        if weight <= 0:
            raise ConfigurationError("weight must be positive")
        old = domain.weight
        if weight == old:
            return
        domain.weight = float(weight)
        self._emit_control(domain, "set_weight", old, weight)

    def balloon(self, domain: Domain, memory_bytes: float) -> None:
        """Balloon a guest's memory reservation up or down.

        Ballooning below the current used level forces the guest to
        release pages: usage is clamped to the new reservation (and
        dom0's per-VM bookkeeping follows).
        """
        if memory_bytes <= 0:
            raise ConfigurationError("memory_bytes must be positive")
        old = domain.memory_bytes
        if memory_bytes == old:
            return
        self._accrue_billing(domain)
        domain.memory_bytes = float(memory_bytes)
        used = self.server.memory.usage(domain.owner)
        if used > domain.memory_bytes:
            self.set_vm_memory(domain, domain.memory_bytes)
        self._emit_control(domain, "balloon", old, memory_bytes)

    # -- CPU ready / steal accounting ---------------------------------------

    def cpu_ready_seconds(self, domain_name: str) -> float:
        """Cumulative CPU ready (steal) time of a domain, core-seconds.

        Epoch-level processor-sharing model of Xen's per-VCPU ready
        time: when the aggregate runnable demand exceeds the physical
        cores, runnable VCPUs rotate over the cores and each spends
        ``1 - cores/total_demand`` of the epoch waiting for a
        timeslice, so a domain accrues ``epoch * demand * (1 -
        cores/total_demand)``.  Summed over domains this equals the
        epoch's total unserved demand ``(total_demand - cores) *
        epoch`` — each wait is counted exactly once.  Zero whenever
        the machine is not overcommitted, which makes the metric a
        direct consolidation-interference signal: a single-tenant run
        never accrues it.
        """
        return self._cpu_ready_s.get(domain_name, 0.0)

    def cpu_ready_report(self) -> Dict[str, float]:
        """Per-domain cumulative ready time (plain data, for reports)."""
        return dict(self._cpu_ready_s)

    # -- capacity billing ----------------------------------------------------

    def _accrue_billing(self, domain: Domain) -> None:
        """Integrate the domain's reservation up to now (lazy billing).

        Called at every boundary where the reservation changes — VCPU
        hotplug, cap adjustment, balloon, attach/detach — and at report
        time, so the bill is exact for a piecewise-constant reservation
        without any per-epoch work on the hot path.
        """
        if domain.kind is DomainKind.DOM0:
            return
        name = domain.name
        now = self.sim.now
        last = self._bill_marks.get(name, 0.0)
        self._bill_marks[name] = now
        dt = now - last
        if dt <= 0:
            return
        reserved = float(domain.online_vcpus)
        if 0 < domain.cap_cores < reserved:
            reserved = domain.cap_cores
        self._billed_core_s[name] = (
            self._billed_core_s.get(name, 0.0) + reserved * dt
        )
        self._billed_gb_s[name] = (
            self._billed_gb_s.get(name, 0.0) + domain.memory_bytes / GB * dt
        )

    def billing_report(self) -> Dict[str, Dict[str, float]]:
        """Per-domain billed capacity: what a cloud invoice would show.

        Billing follows the *reservation*, not the usage — a guest pays
        for ``min(online VCPUs, cap)`` cores and its memory reservation
        for every second it exists on this server, exactly the quantity
        elastic controllers shrink to save money.
        """
        for domain in self._domains.values():
            self._accrue_billing(domain)
        return {
            name: {
                "capacity_core_s": core_s,
                "memory_gb_s": self._billed_gb_s.get(name, 0.0),
            }
            for name, core_s in sorted(self._billed_core_s.items())
        }

    # -- periodic work ----------------------------------------------------------

    def _run_epoch(self, tick_time: float) -> None:
        """Re-run the credit scheduler; sleep once every domain is idle.

        An all-idle decision grants every domain a speed fraction of
        1.0, charges dom0 nothing and accrues no ready time, whatever
        the caps, weights, cores or domain set.  Every epoch until a
        worker gauge on this host rises again would repeat it, so the
        epoch process sleeps after it and each domain's ``on_wake``
        resumes it on the same grid.

        A woken tick whose gauges are all idle again (a worker started
        and finished between two ticks) would repeat it too, so it
        sleeps again without calling ``allocate``.  The skip is gated
        on the last sleep having taken effect (``asleep`` read right
        after it): a process whose ``sleep`` does nothing never skips.
        """
        process = self._epoch_process
        if self._epoch_slept:
            for domain in self._domains.values():
                if domain.active_workers > 0:
                    break
            else:
                process.sleep()
                return
        decision = self.scheduler.allocate(self._domains.values())
        runnable = decision.runnable
        if runnable:
            self._epoch_slept = False
            self.server.cpu.charge(
                DOM0_OWNER,
                self.overhead.sched_cycles_per_epoch_per_domain * runnable,
            )
            total_demand = decision.total_demand
            if total_demand > self.scheduler.total_cores + 1e-12:
                wait_fraction = 1.0 - self.scheduler.total_cores / total_demand
                ready = self._cpu_ready_s
                accrual = DEFAULT_EPOCH_S * wait_fraction
                for name, demand in decision.demand_cores.items():
                    if demand <= 0:
                        continue
                    ready[name] = ready.get(name, 0.0) + accrual * demand
        else:
            process.sleep()
            self._epoch_slept = process.asleep

    def _run_housekeeping(self, tick_time: float) -> None:
        self.server.cpu.charge(
            DOM0_OWNER,
            self.overhead.dom0_base_cycles_per_s * HOUSEKEEPING_INTERVAL_S,
        )
        log_bytes = self.overhead.dom0_log_bytes_per_s * HOUSEKEEPING_INTERVAL_S
        if log_bytes > 0:
            self.block_backend.dom0_write(tick_time, log_bytes)

    def shutdown(self) -> None:
        """Disarm periodic processes (end of an experiment).

        A sleeping epoch process stops too, so no later gauge rise
        re-arms it.
        """
        self._epoch_process.stop()
        self._housekeeping.stop()
        self.block_backend.stop()
