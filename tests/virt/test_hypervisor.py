"""Unit tests for the hypervisor facade."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.server import PhysicalServer
from repro.sim.engine import Simulator
from repro.units import GB, MB
from repro.virt.hypervisor import Hypervisor
from repro.virt.overhead import OverheadModel


@pytest.fixture
def hv():
    sim = Simulator()
    server = PhysicalServer("cloud-1")
    return sim, server, Hypervisor(sim, server)


class TestDomainManagement:
    def test_dom0_exists_at_boot(self, hv):
        _, _, hypervisor = hv
        assert hypervisor.dom0.name == "Domain-0"
        assert hypervisor.domain("Domain-0") is hypervisor.dom0

    def test_create_guest(self, hv):
        _, _, hypervisor = hv
        domain = hypervisor.create_domain("web-vm", memory_bytes=2 * GB)
        assert domain in hypervisor.guest_domains()
        assert hypervisor.domain("web-vm") is domain

    def test_duplicate_name_rejected(self, hv):
        _, _, hypervisor = hv
        hypervisor.create_domain("web-vm")
        with pytest.raises(ConfigurationError):
            hypervisor.create_domain("web-vm")

    def test_unknown_domain_rejected(self, hv):
        _, _, hypervisor = hv
        with pytest.raises(ConfigurationError):
            hypervisor.domain("ghost")

    def test_dom0_not_in_guests(self, hv):
        _, _, hypervisor = hv
        assert hypervisor.dom0 not in hypervisor.guest_domains()


class TestCpuPath:
    def test_cpu_time_at_full_speed(self, hv):
        _, server, hypervisor = hv
        domain = hypervisor.create_domain("web-vm")
        cycles = server.spec.frequency_hz  # one core-second of work
        assert hypervisor.cpu_time(domain, cycles) == pytest.approx(1.0)

    def test_charge_vm_cycles_goes_to_vm_owner(self, hv):
        _, server, hypervisor = hv
        domain = hypervisor.create_domain("web-vm")
        hypervisor.charge_vm_cycles(domain, 1e6)
        assert server.cpu.ledger.total("vm:web-vm") == 1e6
        assert server.cpu.ledger.total("dom0") == 0.0

    def test_account_request_charges_dom0(self, hv):
        _, server, hypervisor = hv
        domain = hypervisor.create_domain("web-vm")
        hypervisor.account_request(domain)
        expected = hypervisor.overhead.hypercall_cycles_per_request
        assert server.cpu.ledger.total("dom0") == expected
        assert hypervisor.requests_accounted == 1

    def test_account_commit_charges_dom0(self, hv):
        _, server, hypervisor = hv
        domain = hypervisor.create_domain("db-vm")
        hypervisor.account_commit(domain)
        assert (
            server.cpu.ledger.total("dom0")
            == hypervisor.overhead.commit_cycles
        )


class TestMemoryPath:
    def test_vm_memory_recorded_per_owner(self, hv):
        _, server, hypervisor = hv
        domain = hypervisor.create_domain("web-vm", memory_bytes=2 * GB)
        hypervisor.set_vm_memory(domain, 500 * MB)
        assert hypervisor.vm_memory_used(domain) == 500 * MB

    def test_vm_memory_clamped_to_vm_size(self, hv):
        _, _, hypervisor = hv
        domain = hypervisor.create_domain("web-vm", memory_bytes=1 * GB)
        hypervisor.set_vm_memory(domain, 5 * GB)
        assert hypervisor.vm_memory_used(domain) == 1 * GB

    def test_dom0_memory_follows_every_guest_memory_change(self):
        # Housekeeping stopped: each change must update dom0 itself.
        sim = Simulator()
        source = Hypervisor(sim, PhysicalServer("a"))
        dest = Hypervisor(sim, PhysicalServer("b"))
        overhead = source.overhead

        def assert_dom0_follows(hypervisor):
            guest_used = sum(
                hypervisor.vm_memory_used(d)
                for d in hypervisor.guest_domains()
            )
            assert hypervisor.dom0_memory_used() == (
                overhead.dom0_base_memory_bytes
                + overhead.dom0_memory_per_vm_byte * guest_used
            )

        for hypervisor in (source, dest):
            hypervisor._housekeeping.stop()
            hypervisor.set_vm_memory(
                hypervisor.create_domain("db-vm", memory_bytes=2 * GB),
                700 * MB,
            )
        web = source.create_domain("web-vm", memory_bytes=2 * GB)
        assert_dom0_follows(source)
        sim.run_until(1.5)
        source.set_vm_memory(web, 1500 * MB)
        assert_dom0_follows(source)
        sim.run_until(3.5)
        source.balloon(web, 1 * GB)
        assert source.vm_memory_used(web) == 1 * GB
        assert_dom0_follows(source)
        sim.run_until(5.5)
        state = source.detach_domain("web-vm")
        assert_dom0_follows(source)
        sim.run_until(7.5)
        dest.attach_domain(state)
        assert dest.vm_memory_used(web) == 1 * GB
        assert_dom0_follows(dest)
        assert_dom0_follows(source)

    def test_dom0_memory_tracks_guest_usage(self, hv):
        _, _, hypervisor = hv
        overhead = hypervisor.overhead
        domain = hypervisor.create_domain("web-vm", memory_bytes=2 * GB)
        base = overhead.dom0_base_memory_bytes
        hypervisor.set_vm_memory(domain, 1 * GB)
        expected = base + overhead.dom0_memory_per_vm_byte * 1 * GB
        assert hypervisor.dom0_memory_used() == pytest.approx(expected)


class TestPeriodicWork:
    def test_epochs_charge_scheduler_overhead(self):
        sim = Simulator()
        server = PhysicalServer("s")
        hypervisor = Hypervisor(sim, server, OverheadModel())
        domain = hypervisor.create_domain("web-vm")
        domain.active_workers = 1
        baseline = server.cpu.ledger.total("dom0")
        sim.run_until(1.0)
        assert server.cpu.ledger.total("dom0") > baseline

    def test_housekeeping_writes_dom0_logs(self):
        sim = Simulator()
        server = PhysicalServer("s")
        Hypervisor(sim, server, OverheadModel(dom0_log_bytes_per_s=1000.0))
        sim.run_until(3.0)
        assert server.disk.bytes_written("dom0") >= 2000.0

    def test_shutdown_stops_periodic_work(self):
        sim = Simulator()
        server = PhysicalServer("s")
        hypervisor = Hypervisor(sim, server)
        sim.run_until(1.0)
        hypervisor.shutdown()
        cycles_at_shutdown = server.cpu.ledger.total("dom0")
        sim.run_until(10.0)
        assert server.cpu.ledger.total("dom0") == cycles_at_shutdown

    def test_scheduler_decision_updates_every_epoch(self):
        sim = Simulator()
        server = PhysicalServer("s")
        hypervisor = Hypervisor(sim, server)
        hypervisor.create_domain("web-vm").active_workers = 1
        sim.run_until(1.0)
        assert hypervisor.scheduler.epochs == 10

    def test_idle_host_evaluates_one_epoch_then_sleeps(self):
        sim = Simulator()
        server = PhysicalServer("s")
        hypervisor = Hypervisor(sim, server)
        hypervisor.create_domain("web-vm")
        sim.run_until(0.1)
        assert hypervisor.scheduler.epochs == 1
        fired = sim.events_fired
        # Housekeeping and the block flush are next due at 1.0 s.
        sim.run_until(0.95)
        assert sim.events_fired == fired
        sim.run_until(10.0)
        assert hypervisor.scheduler.epochs == 1

    def test_gauge_rise_wakes_the_epoch_on_its_grid(self):
        sim = Simulator()
        server = PhysicalServer("s")
        hypervisor = Hypervisor(sim, server)
        domain = hypervisor.create_domain("web-vm")
        sim.schedule_at(2.05, domain.worker_started)
        sim.run_until(2.55)
        # One idle epoch, then ticks near 2.1, 2.2, 2.3, 2.4 and 2.5.
        assert hypervisor.scheduler.epochs == 6
        sim.schedule_at(2.58, domain.worker_finished)
        sim.run_until(5.0)
        # The tick near 2.6 sees the host idle again, and sleeps.
        assert hypervisor.scheduler.epochs == 7
        assert hypervisor.scheduler.speed_fraction("web-vm") == 1.0

    def test_busy_domain_attached_wakes_a_sleeping_host(self):
        sim = Simulator()
        source = Hypervisor(sim, PhysicalServer("a"))
        dest = Hypervisor(sim, PhysicalServer("b"))
        domain = source.create_domain("web-vm")
        domain.active_workers = 1
        sim.run_until(1.05)
        assert dest.scheduler.epochs == 1
        state = source.detach_domain("web-vm")
        assert domain.on_wake is None
        dest.attach_domain(state)
        sim.run_until(1.55)
        assert dest.scheduler.epochs == 6
        # The guest's gauge now wakes the destination, not the source.
        domain.active_workers = 0
        sim.run_until(3.05)
        epochs = (source.scheduler.epochs, dest.scheduler.epochs)
        domain.active_workers = 2
        sim.run_until(3.25)
        assert source.scheduler.epochs == epochs[0]
        assert dest.scheduler.epochs == epochs[1] + 2

    def test_dom0_gauge_wakes_the_epoch(self):
        sim = Simulator()
        server = PhysicalServer("s")
        hypervisor = Hypervisor(sim, server)

        def park():
            hypervisor.dom0.active_workers += 8

        sim.schedule_at(1.05, park)
        sim.run_until(1.55)
        assert hypervisor.scheduler.epochs == 6

    def test_idle_woken_tick_sleeps_without_allocating(self):
        sim = Simulator()
        server = PhysicalServer("s")
        hypervisor = Hypervisor(sim, server)
        domain = hypervisor.create_domain("web-vm")
        process = hypervisor._epoch_process
        sim.run_until(1.05)
        assert (hypervisor.scheduler.epochs, process.ticks) == (1, 1)
        # A worker starts and finishes between the ticks near 2.0 and
        # 2.1: the start wakes the host, and the woken tick finds every
        # gauge idle again.
        sim.schedule_at(2.03, domain.worker_started)
        sim.schedule_at(2.07, domain.worker_finished)
        sim.run_until(2.15)
        assert process.ticks == 2
        assert hypervisor.scheduler.epochs == 1
        assert process.asleep
        sim.run_until(10.0)
        assert process.ticks == 2
        assert hypervisor.scheduler.speed_fraction("web-vm") == 1.0

    def test_busy_woken_tick_allocates_and_charges_dom0(self):
        sim = Simulator()
        server = PhysicalServer("s")
        hypervisor = Hypervisor(sim, server)
        domain = hypervisor.create_domain("web-vm", cap_cores=0.5)
        sim.run_until(1.05)
        # An idle repeat first, so the busy tick below follows a skip.
        sim.schedule_at(1.23, domain.worker_started)
        sim.schedule_at(1.27, domain.worker_finished)
        sim.schedule_at(2.03, domain.worker_started)
        sim.run_until(2.05)
        assert hypervisor.scheduler.epochs == 1
        assert hypervisor.scheduler.speed_fraction("web-vm") == 1.0
        dom0_cycles = server.cpu.ledger.total("dom0")
        sim.run_until(2.15)
        # The worker still runs at the woken tick near 2.1: it gets its
        # capped allocation, and dom0 pays for one runnable domain.
        assert hypervisor.scheduler.epochs == 2
        assert hypervisor.scheduler.speed_fraction("web-vm") == 0.5
        charge = hypervisor.overhead.sched_cycles_per_epoch_per_domain
        assert server.cpu.ledger.total("dom0") - dom0_cycles == (
            pytest.approx(charge)
        )

    def test_shutdown_stops_a_sleeping_epoch(self):
        sim = Simulator()
        server = PhysicalServer("s")
        hypervisor = Hypervisor(sim, server)
        domain = hypervisor.create_domain("web-vm")
        sim.run_until(1.0)
        hypervisor.shutdown()
        domain.worker_started()
        sim.run_until(5.0)
        assert hypervisor.scheduler.epochs == 1
        assert sim.pending_events == 0
