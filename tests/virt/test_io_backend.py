"""Unit tests for the split-driver I/O backends."""

import pytest

from repro.hardware.cpu import CpuPackage
from repro.hardware.disk import Disk
from repro.hardware.network import NetworkInterface
from repro.sim.engine import Simulator
from repro.virt.io_backend import DOM0_OWNER, BlockBackend, NetBackend
from repro.virt.overhead import OverheadModel


@pytest.fixture
def parts():
    sim = Simulator()
    disk = Disk()
    nic = NetworkInterface()
    cpu = CpuPackage()
    return sim, disk, nic, cpu


class TestBlockBackend:
    def test_guest_counters_record_logical_bytes(self, parts):
        sim, disk, _, cpu = parts
        overhead = OverheadModel(disk_amplification=2.0)
        backend = BlockBackend(sim, disk, cpu, overhead)
        read, write = backend.hops("vm:web")
        read(1000.0)
        write(500.0)
        assert backend.vm_bytes_read("vm:web") == 1000.0
        assert backend.vm_bytes_written("vm:web") == 500.0
        assert backend.vm_total_bytes("vm:web") == 1500.0

    def test_physical_reads_amplified_under_dom0(self, parts):
        sim, disk, _, cpu = parts
        overhead = OverheadModel(disk_amplification=2.0)
        backend = BlockBackend(sim, disk, cpu, overhead)
        read, _ = backend.hops("vm:web")
        read(1000.0)
        assert disk.bytes_read(DOM0_OWNER) == 2000.0
        assert disk.bytes_read("vm:web") == 0.0

    def test_batched_writes_deferred_until_flush(self, parts):
        sim, disk, _, cpu = parts
        overhead = OverheadModel(disk_amplification=2.0, flush_interval_s=1.0)
        backend = BlockBackend(sim, disk, cpu, overhead)
        _, write = backend.hops("vm:web")
        write(1000.0)
        assert disk.bytes_written(DOM0_OWNER) == 0.0
        sim.run_until(1.5)
        assert disk.bytes_written(DOM0_OWNER) == 2000.0

    def test_batching_coalesces_multiple_writes(self, parts):
        sim, disk, _, cpu = parts
        overhead = OverheadModel(disk_amplification=1.0, flush_interval_s=1.0)
        backend = BlockBackend(sim, disk, cpu, overhead)
        served_before = disk.requests_served
        _, write = backend.hops("vm:web")
        for _ in range(10):
            write(100.0)
        sim.run_until(1.5)
        # One physical request for ten guest writes.
        assert disk.requests_served == served_before + 1
        assert disk.bytes_written(DOM0_OWNER) == 1000.0

    def test_unbatched_mode_forwards_immediately(self, parts):
        sim, disk, _, cpu = parts
        overhead = OverheadModel(
            disk_amplification=1.0, batch_writes=False
        )
        backend = BlockBackend(sim, disk, cpu, overhead)
        _, write = backend.hops("vm:web")
        write(100.0)
        assert disk.bytes_written(DOM0_OWNER) == 100.0

    def test_write_completion_immediate_when_batched(self, parts):
        sim, disk, _, cpu = parts
        backend = BlockBackend(sim, disk, cpu, OverheadModel())
        sim.run_until(5.0)
        _, write = backend.hops("vm:web")
        assert write(100.0) == 5.0

    def test_dom0_cpu_charged_per_byte(self, parts):
        sim, disk, _, cpu = parts
        overhead = OverheadModel(
            disk_amplification=2.0, disk_cycles_per_byte=10.0
        )
        backend = BlockBackend(sim, disk, cpu, overhead)
        read, _ = backend.hops("vm:web")
        read(100.0)
        assert cpu.ledger.total(DOM0_OWNER) == pytest.approx(2000.0)

    def test_dom0_own_writes_not_amplified(self, parts):
        sim, disk, _, cpu = parts
        backend = BlockBackend(sim, disk, cpu, OverheadModel())
        backend.dom0_write(0.0, 500.0)
        assert disk.bytes_written(DOM0_OWNER) == 500.0


class TestNetBackend:
    def test_guest_counters_logical(self, parts):
        sim, _, nic, cpu = parts
        backend = NetBackend(sim, nic, cpu, OverheadModel())
        receive, transmit = backend.hops("vm:web")
        receive(1000.0)
        transmit(2000.0)
        assert backend.vm_bytes_received("vm:web") == 1000.0
        assert backend.vm_bytes_transmitted("vm:web") == 2000.0
        assert backend.vm_total_bytes("vm:web") == 3000.0

    def test_physical_bytes_amplified_under_dom0(self, parts):
        sim, _, nic, cpu = parts
        overhead = OverheadModel(net_amplification=1.05)
        backend = NetBackend(sim, nic, cpu, overhead)
        receive, _ = backend.hops("vm:web")
        receive(1000.0)
        assert nic.bytes_received(DOM0_OWNER) == pytest.approx(1050.0)

    def test_dom0_cpu_charged_per_byte(self, parts):
        sim, _, nic, cpu = parts
        overhead = OverheadModel(
            net_amplification=1.0, net_cycles_per_byte=3.0
        )
        backend = NetBackend(sim, nic, cpu, overhead)
        _, transmit = backend.hops("vm:web")
        transmit(100.0)
        assert cpu.ledger.total(DOM0_OWNER) == pytest.approx(300.0)

    def test_multiple_guests_kept_separate(self, parts):
        sim, _, nic, cpu = parts
        backend = NetBackend(sim, nic, cpu, OverheadModel())
        backend.hops("vm:web")[0](100.0)
        backend.hops("vm:db")[0](200.0)
        assert backend.vm_bytes_received("vm:web") == 100.0
        assert backend.vm_bytes_received("vm:db") == 200.0
