"""Split-driver I/O backends living in dom0.

In Xen's driver model a guest's block/network I/O traverses a frontend
driver in the guest and a backend driver in dom0, which performs the real
device access.  Two measurement-relevant consequences, both modelled:

* the *guest-visible* counters (what sysstat inside the VM reports, the
  left/middle panels of Figures 3-4) record the logical traffic, while
  the *physical* counters (dom0 panels) record amplified and, for disk
  writes, batched traffic;
* dom0 burns CPU per byte moved, which is the dominant contributor to
  the dom0 CPU series of Figure 1.

A guest reaches a backend through per-owner *hops* (:meth:`BlockBackend.hops`,
:meth:`NetBackend.hops`): one call counts the guest bytes, amplifies
them, charges dom0 and serializes the physical bytes on the device, the
arithmetic of :meth:`CycleLedger.charge <repro.hardware.cpu.CycleLedger.charge>`,
:meth:`Disk.submit <repro.hardware.disk.Disk.submit>` and
:meth:`NetworkInterface.receive <repro.hardware.network.NetworkInterface.receive>`
/ ``transmit`` inlined, because every request crosses several of them.
A hop binds identities (the device, the counter dicts) and the
backend's constants only; device bandwidths, latency and busy times are
read at each call, because faults change them mid-run.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import CapacityError, ConfigurationError
from repro.hardware.cpu import CpuPackage
from repro.hardware.disk import Disk, DiskRequest
from repro.hardware.network import NetworkInterface
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.virt.overhead import OverheadModel

DOM0_OWNER = "dom0"

#: A guest's (inbound, outbound) hops: each takes the logical size in
#: bytes and returns the completion time.
Hops = Tuple[Callable[[float], float], Callable[[float], float]]


class BlockBackend:
    """Dom0 block backend: batching, amplification, CPU accounting.

    Guest-visible byte counters are kept here per guest owner; physical
    bytes land on the :class:`~repro.hardware.disk.Disk` under the dom0
    owner because dom0 performs the actual access.
    """

    def __init__(
        self,
        sim: Simulator,
        disk: Disk,
        cpu: CpuPackage,
        overhead: OverheadModel,
    ) -> None:
        self.sim = sim
        self.disk = disk
        self.cpu = cpu
        self.overhead = overhead
        # Read by the hops and by the batched engine's drains.
        self._amplification = overhead.disk_amplification
        self._cycles_per_byte = overhead.disk_cycles_per_byte
        self._charge = cpu.ledger.charge
        self._vm_read: Dict[str, float] = {}
        self._vm_written: Dict[str, float] = {}
        self._pending_write_bytes = 0.0
        self._flusher: Optional[PeriodicProcess] = None
        if overhead.batch_writes:
            self._flusher = PeriodicProcess(
                sim,
                overhead.flush_interval_s,
                self._flush,
                name="blkback-flush",
            ).start()

    # -- guest-visible counters ---------------------------------------------

    def vm_bytes_read(self, owner: str) -> float:
        return self._vm_read.get(owner, 0.0)

    def vm_bytes_written(self, owner: str) -> float:
        return self._vm_written.get(owner, 0.0)

    def vm_total_bytes(self, owner: str) -> float:
        return self.vm_bytes_read(owner) + self.vm_bytes_written(owner)

    def seed_counters(
        self, owner: str, read_bytes: float, written_bytes: float
    ) -> None:
        """Raise the guest-visible counter baselines (domain migration).

        Counters are monotonic; seeding never lowers them, so a domain
        returning to a server it lived on before keeps the larger of
        the carried and resident values.
        """
        if read_bytes > self._vm_read.get(owner, 0.0):
            self._vm_read[owner] = float(read_bytes)
        if written_bytes > self._vm_written.get(owner, 0.0):
            self._vm_written[owner] = float(written_bytes)

    # -- I/O path ------------------------------------------------------------

    def hops(self, owner: str) -> Hops:
        """``owner``'s (read, write) hops; see the module docstring.

        Reads cannot be deferred (the guest blocks on the data), so a
        read goes to the physical disk at once, amplified by metadata
        reads, and returns its completion.  With batching enabled a
        write completes as soon as the backend buffers it (like a
        page-cache write) and reaches the disk at the next flush;
        without batching (ablation A2) it is queued on the disk at once.
        """
        sim = self.sim
        disk = self.disk
        dom0 = self.cpu.ledger._cycles
        amplification = self._amplification
        cycles_per_byte = self._cycles_per_byte
        guest_read, guest_written = self._vm_read, self._vm_written
        disk_read, disk_written = disk._bytes_read, disk._bytes_written

        def read(size_bytes: float) -> float:
            if size_bytes < 0:
                raise CapacityError("I/O size must be non-negative")
            try:
                guest_read[owner] += size_bytes
            except KeyError:
                guest_read[owner] = size_bytes
            physical = size_bytes * amplification
            cycles = physical * cycles_per_byte
            try:
                dom0[DOM0_OWNER] += cycles
            except KeyError:
                dom0[DOM0_OWNER] = cycles
            now = sim.now
            busy = disk._busy_until
            start = now if now > busy else busy
            completion = start + (
                disk.access_latency_s + physical / disk.read_bandwidth_bps
            )
            disk._busy_until = completion
            disk.requests_served += 1
            try:
                disk_read[DOM0_OWNER] += physical
            except KeyError:
                disk_read[DOM0_OWNER] = physical
            return completion

        batch_writes = self.overhead.batch_writes
        backend = self

        def write(size_bytes: float) -> float:
            if size_bytes < 0:
                raise CapacityError("I/O size must be non-negative")
            try:
                guest_written[owner] += size_bytes
            except KeyError:
                guest_written[owner] = size_bytes
            physical = size_bytes * amplification
            cycles = physical * cycles_per_byte
            try:
                dom0[DOM0_OWNER] += cycles
            except KeyError:
                dom0[DOM0_OWNER] = cycles
            now = sim.now
            if batch_writes:
                backend._pending_write_bytes += physical
                return now
            busy = disk._busy_until
            start = now if now > busy else busy
            completion = start + (
                disk.access_latency_s + physical / disk.write_bandwidth_bps
            )
            disk._busy_until = completion
            disk.requests_served += 1
            try:
                disk_written[DOM0_OWNER] += physical
            except KeyError:
                disk_written[DOM0_OWNER] = physical
            return completion

        return read, write

    def dom0_write(self, now: float, size_bytes: float) -> float:
        """Dom0's own writes (its logs); never batched with guest I/O."""
        request = DiskRequest(DOM0_OWNER, "write", size_bytes)
        return self.disk.submit(now, request)

    def _flush(self, tick_time: float) -> None:
        if self._pending_write_bytes <= 0:
            return
        request = DiskRequest(DOM0_OWNER, "write", self._pending_write_bytes)
        self.disk.submit(tick_time, request)
        self._pending_write_bytes = 0.0

    def stop(self) -> None:
        """Disarm the flusher (end of simulation)."""
        if self._flusher is not None:
            self._flusher.stop()


class NetBackend:
    """Dom0 network backend: bridging, amplification, CPU accounting."""

    def __init__(
        self,
        sim: Simulator,
        nic: NetworkInterface,
        cpu: CpuPackage,
        overhead: OverheadModel,
    ) -> None:
        self.sim = sim
        self.nic = nic
        self.cpu = cpu
        self.overhead = overhead
        # Read by the hops and by the batched engine's drains.
        self._amplification = overhead.net_amplification
        self._cycles_per_byte = overhead.net_cycles_per_byte
        self._charge = cpu.ledger.charge
        self._vm_rx: Dict[str, float] = {}
        self._vm_tx: Dict[str, float] = {}

    # -- guest-visible counters ---------------------------------------------

    def vm_bytes_received(self, owner: str) -> float:
        return self._vm_rx.get(owner, 0.0)

    def vm_bytes_transmitted(self, owner: str) -> float:
        return self._vm_tx.get(owner, 0.0)

    def vm_total_bytes(self, owner: str) -> float:
        return self.vm_bytes_received(owner) + self.vm_bytes_transmitted(owner)

    def seed_counters(
        self, owner: str, rx_bytes: float, tx_bytes: float
    ) -> None:
        """Raise the guest-visible counter baselines (domain migration)."""
        if rx_bytes > self._vm_rx.get(owner, 0.0):
            self._vm_rx[owner] = float(rx_bytes)
        if tx_bytes > self._vm_tx.get(owner, 0.0):
            self._vm_tx[owner] = float(tx_bytes)

    # -- transfer path --------------------------------------------------------

    def hops(self, owner: str) -> Hops:
        """``owner``'s (receive, transmit) hops through the bridge.

        See the module docstring; each returns the NIC completion time.
        """
        sim = self.sim
        nic = self.nic
        dom0 = self.cpu.ledger._cycles
        amplification = self._amplification
        cycles_per_byte = self._cycles_per_byte
        guest_rx, guest_tx = self._vm_rx, self._vm_tx
        nic_rx, nic_tx = nic._rx_bytes, nic._tx_bytes
        packets = nic.packets

        def receive(size_bytes: float) -> float:
            if size_bytes < 0:
                raise ConfigurationError("transfer size must be non-negative")
            try:
                guest_rx[owner] += size_bytes
            except KeyError:
                guest_rx[owner] = size_bytes
            physical = size_bytes * amplification
            cycles = physical * cycles_per_byte
            try:
                dom0[DOM0_OWNER] += cycles
            except KeyError:
                dom0[DOM0_OWNER] = cycles
            now = sim.now
            busy = nic._rx_busy_until
            start = now if now > busy else busy
            completion = start + physical / nic.bandwidth_bps
            nic._rx_busy_until = completion
            try:
                nic_rx[DOM0_OWNER] += physical
            except KeyError:
                nic_rx[DOM0_OWNER] = physical
            packets["rx"] += 1
            return completion

        def transmit(size_bytes: float) -> float:
            if size_bytes < 0:
                raise ConfigurationError("transfer size must be non-negative")
            try:
                guest_tx[owner] += size_bytes
            except KeyError:
                guest_tx[owner] = size_bytes
            physical = size_bytes * amplification
            cycles = physical * cycles_per_byte
            try:
                dom0[DOM0_OWNER] += cycles
            except KeyError:
                dom0[DOM0_OWNER] = cycles
            now = sim.now
            busy = nic._tx_busy_until
            start = now if now > busy else busy
            completion = start + physical / nic.bandwidth_bps
            nic._tx_busy_until = completion
            try:
                nic_tx[DOM0_OWNER] += physical
            except KeyError:
                nic_tx[DOM0_OWNER] = physical
            packets["tx"] += 1
            return completion

        return receive, transmit
