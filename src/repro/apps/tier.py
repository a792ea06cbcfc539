"""Execution contexts: where a tier's resource operations actually land.

A tier (PHP or MySQL model) performs abstract operations — "burn N
cycles", "read K bytes from disk", "send B bytes to the client".  The
*context* decides what that means physically:

* :class:`VirtualizedContext` routes everything through a
  :class:`~repro.virt.hypervisor.Hypervisor` domain: cycles are charged
  to the VM's ledger, I/O goes through dom0's split drivers, the credit
  scheduler sets the CPU speed.
* :class:`BareMetalContext` charges a physical server directly, with a
  small host-OS activity model (:class:`OsActivityModel`) providing the
  background load a real sysstat would see.

Running identical tier code over the two contexts is the in-silico
analogue of the paper deploying the same RUBiS binaries on VMs and on
bare metal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.errors import CapacityError, ConfigurationError
from repro.hardware.server import PhysicalServer
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.units import MB
from repro.virt.domain import Domain
from repro.virt.hypervisor import Hypervisor
from repro.virt.io_backend import DOM0_OWNER


class ExecutionContext:
    """Interface the tiers program against."""

    #: Ledger owner key; monitoring reads counters by this key.
    owner: str = ""

    # -- CPU ---------------------------------------------------------------
    def cpu_time(self, cycles: float) -> float:
        raise NotImplementedError

    def pure_cpu_time(self, cycles: float) -> float:
        """Service time on an uncontended dedicated core.

        The tracing layer's reference point: the gap between
        :meth:`cpu_time` and this is the virtualization slowdown
        (ready/steal/cap-throttle inflation) of one service.
        """
        raise NotImplementedError

    def charge_cpu(self, cycles: float) -> None:
        raise NotImplementedError

    def begin_service(self, cycles: float, scale: float) -> float:
        """Start one service of ``cycles``; return its :meth:`cpu_time`.

        Charges the per-request kernel/hypervisor fixed cost (scaled by
        ``scale``), then ``cycles`` to this context's owner, in one
        call: the tiers make it at every service start.
        """
        raise NotImplementedError

    def account_commit(self) -> None:
        """Per-database-commit fixed cost hook (fsync/journal barrier)."""
        raise NotImplementedError

    # -- devices -------------------------------------------------------------
    def disk_read(self, size_bytes: float) -> float:
        raise NotImplementedError

    def disk_write(self, size_bytes: float) -> float:
        raise NotImplementedError

    def net_receive(self, size_bytes: float) -> float:
        raise NotImplementedError

    def net_transmit(self, size_bytes: float) -> float:
        raise NotImplementedError

    # -- memory ----------------------------------------------------------------
    def set_memory(self, used_bytes: float) -> None:
        raise NotImplementedError

    def memory_used(self) -> float:
        raise NotImplementedError

    # -- counters the samplers read ---------------------------------------------
    def cpu_cycles_total(self) -> float:
        raise NotImplementedError

    def disk_bytes_total(self) -> float:
        raise NotImplementedError

    def net_bytes_total(self) -> float:
        raise NotImplementedError

    # -- scheduling gauge ---------------------------------------------------------
    def worker_started(self) -> None:
        """A station worker began serving inside this context."""

    def worker_finished(self) -> None:
        """A station worker finished serving inside this context."""

    # -- station registry ----------------------------------------------------------
    def register_station(self, station) -> None:
        """Register a queueing station executing inside this context.

        The tiers register their stations so capacity-change actuators
        (the live-migration pause) can reach every in-flight job via
        :meth:`rescale_in_flight`.
        """
        stations = getattr(self, "stations", None)
        if stations is None:
            stations = []
            self.stations = stations
        stations.append(station)

    def rescale_in_flight(self, factor: float) -> int:
        """Re-scale remaining service of in-flight jobs on all stations."""
        rescaled = 0
        for station in getattr(self, "stations", ()):
            rescaled += station.rescale_in_flight(factor)
        return rescaled

    # -- lifecycle -----------------------------------------------------------------
    def shutdown(self) -> None:
        """Disarm periodic processes owned by this context (if any)."""


class VirtualizedContext(ExecutionContext):
    """Execution inside a guest domain under a hypervisor."""

    def __init__(self, hypervisor: Hypervisor, domain: Domain) -> None:
        self.domain = domain
        self.owner = domain.owner
        # The gauge hooks go straight to the domain, which travels with
        # a migrating guest, so they need no rebinding.
        self.worker_started = domain.worker_started
        self.worker_finished = domain.worker_finished
        self._bind(hypervisor)

    def _bind(self, hypervisor: Hypervisor) -> None:
        """Prebind the request path to ``hypervisor``, one frame a call.

        The bound callables cache identities and model constants only.
        The scheduler fraction (which every ``allocate`` replaces), the
        worker gauge and the device parameters and busy times are read
        at each call, because epochs, faults and controllers change
        them mid-run.
        """
        self.hypervisor = hypervisor
        domain = self.domain
        owner = domain.owner
        cpu = hypervisor.server.cpu
        self.charge_cpu = partial(cpu.ledger.charge, owner)
        self.disk_read, self.disk_write = hypervisor.block_backend.hops(owner)
        self.net_receive, self.net_transmit = (
            hypervisor.net_backend.hops(owner)
        )
        scheduler = hypervisor.scheduler
        speed_fraction = scheduler.speed_fraction
        service_time = cpu.service_time
        domain_name = domain.name
        # Elasticity-experiment refinement: workers runnable beyond the
        # online VCPUs time-share them, so each runs at ``online /
        # workers`` of the scheduler-granted speed.  Sampled at service
        # start like the scheduler fraction.
        contention = hypervisor.vcpu_contention

        def cpu_time(cycles: float) -> float:
            fraction = speed_fraction(domain_name)
            if contention:
                workers = domain.active_workers
                # A single worker can never exceed its VCPU (>= 1), so
                # the online count — a sum over the VCPU list — is only
                # computed when contention is possible at all.
                if workers > 1:
                    online = domain.online_vcpus
                    if workers > online:
                        fraction *= online / workers
            return service_time(cycles, fraction)

        self.cpu_time = cpu_time
        # Uncontended reference (speed fraction 1.0) for the tracing
        # layer; prebound so a traced service costs one extra call.
        self.pure_cpu_time = service_time
        ledger = cpu.ledger._cycles
        request_cycles = hypervisor.overhead.hypercall_cycles_per_request

        def begin_service(cycles: float, scale: float) -> float:
            # Hypercalls and event channels land in dom0; the service
            # time is cpu_time's, with CycleLedger.charge and
            # CpuPackage.service_time inlined.
            dom0_cycles = request_cycles * scale
            if dom0_cycles < 0:
                raise CapacityError(
                    f"negative cycle charge {dom0_cycles} for {DOM0_OWNER!r}"
                )
            if cycles < 0:
                raise CapacityError(
                    f"negative cycle charge {cycles} for {owner!r}"
                )
            hypervisor.requests_accounted += 1
            try:
                ledger[DOM0_OWNER] += dom0_cycles
            except KeyError:
                ledger[DOM0_OWNER] = dom0_cycles
            try:
                ledger[owner] += cycles
            except KeyError:
                ledger[owner] = cycles
            try:
                fraction = scheduler._fractions[domain_name]
            except KeyError:
                fraction = speed_fraction(domain_name)
            if contention:
                workers = domain.active_workers
                if workers > 1:
                    online = domain.online_vcpus
                    if workers > online:
                        fraction *= online / workers
            cores = cpu.cores
            if not 0 < fraction <= cores:
                raise CapacityError(
                    f"speed_fraction {fraction} outside (0, {cores}]"
                )
            return cycles / (cpu.frequency_hz * fraction)

        self.begin_service = begin_service

    def rebind(self, hypervisor: Hypervisor) -> None:
        """Re-target the prebound fast paths at a new hypervisor.

        The last step of a live migration: the domain object has been
        attached to the destination hypervisor, and every subsequent
        CPU charge, I/O and memory update from the tier must land on
        the destination server's scheduler, backends and ledgers.
        In-flight services keep the *accounting* they opened against
        the source (their charges landed when service started); their
        remaining durations are handled separately by the migration's
        ``rescale`` hook through :meth:`rescale_in_flight`.
        """
        self._bind(hypervisor)

    def account_commit(self) -> None:
        self.hypervisor.account_commit(self.domain)

    def set_memory(self, used_bytes: float) -> None:
        self.hypervisor.set_vm_memory(self.domain, used_bytes)

    def memory_used(self) -> float:
        return self.hypervisor.vm_memory_used(self.domain)

    def cpu_cycles_total(self) -> float:
        return self.hypervisor.server.cpu.ledger.total(self.owner)

    def disk_bytes_total(self) -> float:
        return self.hypervisor.block_backend.vm_total_bytes(self.owner)

    def net_bytes_total(self) -> float:
        return self.hypervisor.net_backend.vm_total_bytes(self.owner)


@dataclass
class OsActivityModel:
    """Background activity of a bare-metal host OS.

    Keeps the non-virtualized sysstat series honest: a real host never
    shows zero cycles or zero disk traffic even when the application is
    idle (cron, journald, kernel threads).
    """

    base_cycles_per_s: float = 3.0e6
    syscall_cycles_per_request: float = 2_000.0
    #: Host cycles per database commit (direct fsync, no hypervisor hop).
    commit_cycles: float = 60_000.0
    log_bytes_per_s: float = 8_000.0
    os_base_memory_bytes: float = 450.0 * MB
    #: Host-visible disk bytes per logical byte (journal + metadata show
    #: up in the host's own sysstat on bare metal; in the virtualized
    #: environment they land in dom0 instead of the guest counters).
    disk_accounting_factor: float = 1.55
    #: Host-visible network bytes per logical byte (frame overheads).
    net_accounting_factor: float = 1.04

    def __post_init__(self) -> None:
        if self.disk_accounting_factor < 1.0 or self.net_accounting_factor < 1.0:
            raise ConfigurationError("accounting factors must be >= 1")
        for name in (
            "base_cycles_per_s",
            "syscall_cycles_per_request",
            "commit_cycles",
            "log_bytes_per_s",
            "os_base_memory_bytes",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


class BareMetalContext(ExecutionContext):
    """Execution directly on a physical server (the non-virt environment).

    Writes are *not* batched: each logical write hits the device
    individually, which is the mechanism behind the higher disk variance
    the paper reports for bare metal (finding Q4).
    """

    HOUSEKEEPING_INTERVAL_S = 1.0

    def __init__(
        self,
        sim: Simulator,
        server: PhysicalServer,
        owner: str,
        os_model: OsActivityModel = None,
    ) -> None:
        self.sim = sim
        self.server = server
        self.owner = owner
        self.os_model = os_model or OsActivityModel()
        # Same prebound fast path as VirtualizedContext.charge_cpu.
        self.charge_cpu = partial(server.cpu.ledger.charge, owner)
        self._bind()
        self._housekeeping = PeriodicProcess(
            sim,
            self.HOUSEKEEPING_INTERVAL_S,
            self._run_housekeeping,
            name=f"os-housekeeping:{owner}",
        ).start()

    def _bind(self) -> None:
        """Prebind the request path, one frame a call.

        The host OS scales the logical bytes by its accounting factors
        and queues them on the server's own devices under this
        context's owner: :meth:`Disk.submit
        <repro.hardware.disk.Disk.submit>`, :meth:`NetworkInterface.receive
        <repro.hardware.network.NetworkInterface.receive>` / ``transmit``
        and :meth:`CycleLedger.charge
        <repro.hardware.cpu.CycleLedger.charge>` inlined.  Like the
        virtualized hops, only identities and model constants are
        bound; device parameters and busy times are read at each call.
        """
        sim = self.sim
        owner = self.owner
        cpu, disk, nic = self.server.cpu, self.server.disk, self.server.nic
        os_model = self.os_model
        ledger = cpu.ledger._cycles
        request_cycles = os_model.syscall_cycles_per_request

        def begin_service(cycles: float, scale: float) -> float:
            syscall_cycles = request_cycles * scale
            if syscall_cycles < 0:
                raise CapacityError(
                    f"negative cycle charge {syscall_cycles} for {owner!r}"
                )
            if cycles < 0:
                raise CapacityError(
                    f"negative cycle charge {cycles} for {owner!r}"
                )
            try:
                ledger[owner] += syscall_cycles
            except KeyError:
                ledger[owner] = syscall_cycles
            ledger[owner] += cycles
            # No hypervisor: bare-metal service runs at a whole core.
            return cycles / cpu.frequency_hz

        disk_factor = os_model.disk_accounting_factor
        bytes_read, bytes_written = disk._bytes_read, disk._bytes_written

        def disk_read(size_bytes: float) -> float:
            if size_bytes < 0:
                raise CapacityError("I/O size must be non-negative")
            physical = size_bytes * disk_factor
            now = sim.now
            busy = disk._busy_until
            start = now if now > busy else busy
            completion = start + (
                disk.access_latency_s + physical / disk.read_bandwidth_bps
            )
            disk._busy_until = completion
            disk.requests_served += 1
            try:
                bytes_read[owner] += physical
            except KeyError:
                bytes_read[owner] = physical
            return completion

        def disk_write(size_bytes: float) -> float:
            # Not batched: each logical write hits the device.
            if size_bytes < 0:
                raise CapacityError("I/O size must be non-negative")
            physical = size_bytes * disk_factor
            now = sim.now
            busy = disk._busy_until
            start = now if now > busy else busy
            completion = start + (
                disk.access_latency_s + physical / disk.write_bandwidth_bps
            )
            disk._busy_until = completion
            disk.requests_served += 1
            try:
                bytes_written[owner] += physical
            except KeyError:
                bytes_written[owner] = physical
            return completion

        net_factor = os_model.net_accounting_factor
        rx_bytes, tx_bytes = nic._rx_bytes, nic._tx_bytes
        packets = nic.packets

        def net_receive(size_bytes: float) -> float:
            if size_bytes < 0:
                raise CapacityError("transfer size must be non-negative")
            physical = size_bytes * net_factor
            now = sim.now
            busy = nic._rx_busy_until
            start = now if now > busy else busy
            completion = start + physical / nic.bandwidth_bps
            nic._rx_busy_until = completion
            try:
                rx_bytes[owner] += physical
            except KeyError:
                rx_bytes[owner] = physical
            packets["rx"] += 1
            return completion

        def net_transmit(size_bytes: float) -> float:
            if size_bytes < 0:
                raise CapacityError("transfer size must be non-negative")
            physical = size_bytes * net_factor
            now = sim.now
            busy = nic._tx_busy_until
            start = now if now > busy else busy
            completion = start + physical / nic.bandwidth_bps
            nic._tx_busy_until = completion
            try:
                tx_bytes[owner] += physical
            except KeyError:
                tx_bytes[owner] = physical
            packets["tx"] += 1
            return completion

        self.begin_service = begin_service
        self.disk_read, self.disk_write = disk_read, disk_write
        self.net_receive, self.net_transmit = net_receive, net_transmit

    def cpu_time(self, cycles: float) -> float:
        return self.server.cpu.service_time(cycles)

    def pure_cpu_time(self, cycles: float) -> float:
        # No hypervisor: bare-metal service already runs uncontended.
        return self.server.cpu.service_time(cycles)

    def account_commit(self) -> None:
        self.server.cpu.charge(self.owner, self.os_model.commit_cycles)

    def set_memory(self, used_bytes: float) -> None:
        self.server.memory.set_usage(self.owner, used_bytes)

    def memory_used(self) -> float:
        return self.server.memory.usage(self.owner)

    def cpu_cycles_total(self) -> float:
        return self.server.cpu.ledger.total(self.owner)

    def disk_bytes_total(self) -> float:
        return self.server.disk.total_bytes(self.owner)

    def net_bytes_total(self) -> float:
        return self.server.nic.total_bytes(self.owner)

    def _run_housekeeping(self, tick_time: float) -> None:
        self.server.cpu.charge(
            self.owner,
            self.os_model.base_cycles_per_s * self.HOUSEKEEPING_INTERVAL_S,
        )
        log_bytes = self.os_model.log_bytes_per_s * self.HOUSEKEEPING_INTERVAL_S
        if log_bytes > 0:
            self.disk_write(log_bytes)

    def shutdown(self) -> None:
        self._housekeeping.stop()
