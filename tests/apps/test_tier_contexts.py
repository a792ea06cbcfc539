"""Unit tests for execution contexts (virtualized and bare-metal)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.tier import BareMetalContext, OsActivityModel, VirtualizedContext
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.disk import DiskRequest
from repro.hardware.server import PhysicalServer
from repro.sim.engine import Simulator
from repro.units import MB
from repro.virt.hypervisor import Hypervisor
from repro.virt.io_backend import DOM0_OWNER
from repro.virt.overhead import OverheadModel


@pytest.fixture
def virt_parts():
    sim = Simulator()
    server = PhysicalServer("cloud-1")
    hypervisor = Hypervisor(sim, server)
    domain = hypervisor.create_domain("web-vm")
    context = VirtualizedContext(hypervisor, domain)
    return sim, server, hypervisor, domain, context


@pytest.fixture
def bare_parts():
    sim = Simulator()
    server = PhysicalServer("web-pm")
    os_model = OsActivityModel(
        disk_accounting_factor=2.0, net_accounting_factor=1.5
    )
    context = BareMetalContext(sim, server, "pm:web", os_model)
    return sim, server, context


class TestVirtualizedContext:
    def test_owner_matches_domain(self, virt_parts):
        _, _, _, domain, context = virt_parts
        assert context.owner == domain.owner == "vm:web-vm"

    def test_cpu_charge_and_counters(self, virt_parts):
        _, _, _, _, context = virt_parts
        context.charge_cpu(1e6)
        assert context.cpu_cycles_total() == 1e6

    def test_disk_counters_are_guest_visible(self, virt_parts):
        _, server, hypervisor, _, context = virt_parts
        context.disk_read(1000.0)
        assert context.disk_bytes_total() == 1000.0
        # The physical device saw amplified traffic under dom0.
        physical = server.disk.bytes_read("dom0")
        assert physical == pytest.approx(
            1000.0 * hypervisor.overhead.disk_amplification
        )

    def test_net_counters_are_guest_visible(self, virt_parts):
        _, _, _, _, context = virt_parts
        context.net_receive(100.0)
        context.net_transmit(200.0)
        assert context.net_bytes_total() == 300.0

    def test_memory_round_trip(self, virt_parts):
        _, _, _, _, context = virt_parts
        context.set_memory(500 * MB)
        assert context.memory_used() == 500 * MB

    def test_worker_gauge_updates_domain(self, virt_parts):
        _, _, _, domain, context = virt_parts
        context.worker_started()
        assert domain.active_workers == 1
        context.worker_finished()
        assert domain.active_workers == 0


class TestBareMetalContext:
    def test_cpu_charge_to_owner(self, bare_parts):
        _, server, context = bare_parts
        context.charge_cpu(5e6)
        assert server.cpu.ledger.total("pm:web") == 5e6

    def test_disk_accounting_factor_applied(self, bare_parts):
        _, server, context = bare_parts
        context.disk_write(1000.0)
        assert server.disk.bytes_written("pm:web") == pytest.approx(2000.0)

    def test_net_accounting_factor_applied(self, bare_parts):
        _, server, context = bare_parts
        context.net_transmit(1000.0)
        assert server.nic.bytes_transmitted("pm:web") == pytest.approx(1500.0)

    def test_begin_service_charges_request_cost_to_owner(self, bare_parts):
        _, server, context = bare_parts
        before = server.cpu.ledger.total("pm:web")
        assert context.begin_service(0.0, 1.0) == 0.0
        delta = server.cpu.ledger.total("pm:web") - before
        assert delta == context.os_model.syscall_cycles_per_request

    def test_account_commit_charges_owner(self, bare_parts):
        _, server, context = bare_parts
        before = server.cpu.ledger.total("pm:web")
        context.account_commit()
        delta = server.cpu.ledger.total("pm:web") - before
        assert delta == context.os_model.commit_cycles

    def test_housekeeping_burns_base_cycles(self, bare_parts):
        sim, server, context = bare_parts
        sim.run_until(5.0)
        cycles = server.cpu.ledger.total("pm:web")
        assert cycles >= 5 * context.os_model.base_cycles_per_s

    def test_housekeeping_writes_logs(self, bare_parts):
        sim, server, context = bare_parts
        sim.run_until(5.0)
        assert server.disk.bytes_written("pm:web") > 0

    def test_shutdown_stops_housekeeping(self, bare_parts):
        sim, server, context = bare_parts
        sim.run_until(2.0)
        context.shutdown()
        cycles = server.cpu.ledger.total("pm:web")
        sim.run_until(10.0)
        assert server.cpu.ledger.total("pm:web") == cycles

    def test_cpu_time_full_core(self, bare_parts):
        _, server, context = bare_parts
        cycles = server.spec.frequency_hz
        assert context.cpu_time(cycles) == pytest.approx(1.0)


class TestOsActivityModel:
    def test_accounting_factor_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            OsActivityModel(disk_accounting_factor=0.5)

    def test_negative_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            OsActivityModel(base_cycles_per_s=-1.0)


# -- one-call hops against the layered chain they inline -----------------------


def _bump(counters, owner, amount):
    try:
        counters[owner] += amount
    except KeyError:
        counters[owner] = amount


class LayeredVirtualized:
    """The per-call chain the virtualized hops replaced: the reference.

    The backends' arithmetic (count the guest bytes, amplify, charge
    dom0) followed by the device and ledger methods, and the request
    accounting followed by the scheduler fraction and
    ``CpuPackage.service_time``.  Everything is resolved through the
    context's current hypervisor, so it follows a ``rebind``.
    """

    def __init__(self, context):
        self.context = context

    def _net(self, counters_name, nic_method, size_bytes):
        hypervisor = self.context.hypervisor
        backend = hypervisor.net_backend
        if size_bytes < 0:
            raise ConfigurationError("transfer size must be non-negative")
        _bump(getattr(backend, counters_name), self.context.owner, size_bytes)
        physical = size_bytes * backend._amplification
        hypervisor.server.cpu.ledger.charge(
            DOM0_OWNER, physical * backend._cycles_per_byte
        )
        nic = hypervisor.server.nic
        return getattr(nic, nic_method)(hypervisor.sim.now, DOM0_OWNER, physical)

    def net_receive(self, size_bytes):
        return self._net("_vm_rx", "receive", size_bytes)

    def net_transmit(self, size_bytes):
        return self._net("_vm_tx", "transmit", size_bytes)

    def _disk(self, counters_name, kind, size_bytes):
        hypervisor = self.context.hypervisor
        backend = hypervisor.block_backend
        _bump(getattr(backend, counters_name), self.context.owner, size_bytes)
        physical = size_bytes * backend._amplification
        hypervisor.server.cpu.ledger.charge(
            DOM0_OWNER, physical * backend._cycles_per_byte
        )
        now = hypervisor.sim.now
        if kind == "write" and backend.overhead.batch_writes:
            backend._pending_write_bytes += physical
            return now
        return backend.disk.submit(now, DiskRequest(DOM0_OWNER, kind, physical))

    def disk_read(self, size_bytes):
        return self._disk("_vm_read", "read", size_bytes)

    def disk_write(self, size_bytes):
        return self._disk("_vm_written", "write", size_bytes)

    def begin_service(self, cycles, scale):
        hypervisor = self.context.hypervisor
        domain = self.context.domain
        ledger = hypervisor.server.cpu.ledger
        hypervisor.requests_accounted += 1
        ledger.charge(
            DOM0_OWNER, hypervisor.overhead.hypercall_cycles_per_request * scale
        )
        ledger.charge(domain.owner, cycles)
        fraction = hypervisor.scheduler.speed_fraction(domain.name)
        if hypervisor.vcpu_contention:
            workers = domain.active_workers
            online = domain.online_vcpus
            if workers > online:
                fraction *= online / workers
        return hypervisor.server.cpu.service_time(cycles, fraction)


class LayeredBareMetal:
    """The per-call chain the bare-metal hops replaced: the reference."""

    def __init__(self, context):
        self.context = context
        self.server = context.server
        self.os_model = context.os_model

    def _disk(self, kind, size_bytes):
        physical = size_bytes * self.os_model.disk_accounting_factor
        return self.server.disk.submit(
            self.context.sim.now, DiskRequest(self.context.owner, kind, physical)
        )

    def disk_read(self, size_bytes):
        return self._disk("read", size_bytes)

    def disk_write(self, size_bytes):
        return self._disk("write", size_bytes)

    def _net(self, method, size_bytes):
        physical = size_bytes * self.os_model.net_accounting_factor
        return getattr(self.server.nic, method)(
            self.context.sim.now, self.context.owner, physical
        )

    def net_receive(self, size_bytes):
        return self._net("receive", size_bytes)

    def net_transmit(self, size_bytes):
        return self._net("transmit", size_bytes)

    def begin_service(self, cycles, scale):
        cpu = self.server.cpu
        cpu.charge(
            self.context.owner, self.os_model.syscall_cycles_per_request * scale
        )
        cpu.ledger.charge(self.context.owner, cycles)
        return cpu.service_time(cycles)


def _server_state(server):
    nic, disk = server.nic, server.disk
    return (
        server.cpu.ledger.snapshot(),
        nic.snapshot(), dict(nic.packets),
        nic._rx_busy_until, nic._tx_busy_until,
        disk.snapshot(), disk._busy_until, disk.requests_served,
    )


def _hypervisor_state(hypervisor):
    block, net = hypervisor.block_backend, hypervisor.net_backend
    return _server_state(hypervisor.server) + (
        dict(block._vm_read), dict(block._vm_written),
        block._pending_write_bytes,
        dict(net._vm_rx), dict(net._vm_tx),
        hypervisor.requests_accounted,
    )


class VirtualizedWorld:
    """Two hosts and one capped guest that a ``rebind`` moves between them."""

    def __init__(self, batch_writes, vcpu_contention):
        self.sim = Simulator()
        self.hosts = [
            Hypervisor(
                self.sim,
                PhysicalServer(name),
                OverheadModel(batch_writes=batch_writes),
                vcpu_contention=vcpu_contention,
            )
            for name in ("cloud-1", "cloud-2")
        ]
        # The cap makes the granted fraction of a busy domain < 1.
        self.domain = self.hosts[0].create_domain("web-vm", cap_cores=0.5)
        self.context = VirtualizedContext(self.hosts[0], self.domain)

    def migrate(self):
        source = self.context.hypervisor
        dest = self.hosts[1] if source is self.hosts[0] else self.hosts[0]
        dest.attach_domain(source.detach_domain(self.domain.name))
        self.context.rebind(dest)

    def degrade(self, factor):
        for host in self.hosts:
            server = host.server
            server.nic.bandwidth_bps /= factor
            server.disk.read_bandwidth_bps /= factor
            server.disk.write_bandwidth_bps /= factor
            server.disk.access_latency_s *= factor

    def state(self):
        return tuple(_hypervisor_state(host) for host in self.hosts)


class BareMetalWorld:
    def __init__(self):
        self.sim = Simulator()
        self.server = PhysicalServer("web-pm")
        self.domain = None
        self.context = BareMetalContext(self.sim, self.server, "pm:web")

    def degrade(self, factor):
        self.server.nic.bandwidth_bps /= factor
        self.server.disk.read_bandwidth_bps /= factor
        self.server.disk.write_bandwidth_bps /= factor
        self.server.disk.access_latency_s *= factor

    def state(self):
        return _server_state(self.server)


_SIZES = st.floats(min_value=0.0, max_value=5e6)
_HOP_NAMES = ("net_receive", "net_transmit", "disk_read", "disk_write")
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(_HOP_NAMES), _SIZES),
        st.tuples(
            st.just("begin_service"),
            st.floats(min_value=0.0, max_value=5e9),
            st.floats(min_value=0.0, max_value=4.0),
        ),
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=0.3)),
        st.tuples(st.just("workers"), st.integers(min_value=0, max_value=5)),
        st.tuples(st.just("degrade"), st.floats(min_value=0.25, max_value=8.0)),
        st.tuples(st.just("migrate")),
    ),
    min_size=1,
    max_size=40,
)


def _drive(make_world, reference_type, steps):
    """Run ``steps`` on a hop world and a reference world; compare all."""
    hops, layered = make_world(), make_world()
    reference = reference_type(layered.context)
    for step in steps:
        name = step[0]
        if name == "advance":
            for world in (hops, layered):
                world.sim.run_until(world.sim.now + step[1])
        elif name == "workers":
            if hops.domain is not None:
                hops.domain.active_workers = step[1]
                layered.domain.active_workers = step[1]
        elif name == "degrade":
            hops.degrade(step[1])
            layered.degrade(step[1])
        elif name == "migrate":
            if hops.domain is not None:
                hops.migrate()
                layered.migrate()
        else:
            got = getattr(hops.context, name)(*step[1:])
            assert got == getattr(reference, name)(*step[1:]), step
        assert hops.state() == layered.state(), step


class TestOneCallHops:
    """Each hop and ``begin_service`` equals the layered chain it inlines."""

    @pytest.mark.parametrize("batch_writes", [True, False])
    @pytest.mark.parametrize("vcpu_contention", [False, True])
    @given(steps=_STEPS)
    @settings(max_examples=40, deadline=None)
    def test_virtualized_matches_layered_chain(
        self, batch_writes, vcpu_contention, steps
    ):
        _drive(
            lambda: VirtualizedWorld(batch_writes, vcpu_contention),
            LayeredVirtualized,
            steps,
        )

    @given(steps=_STEPS)
    @settings(max_examples=40, deadline=None)
    def test_bare_metal_matches_layered_chain(self, steps):
        _drive(BareMetalWorld, LayeredBareMetal, steps)

    def test_fraction_is_read_at_each_call(self):
        # The scheduler replaces its fraction table at every allocate,
        # so a context bound after one epoch must still see the next.
        world = VirtualizedWorld(batch_writes=True, vcpu_contention=True)
        cycles = world.hosts[0].server.spec.frequency_hz
        assert world.context.begin_service(cycles, 1.0) == 1.0
        world.domain.active_workers = 4
        world.sim.run_until(0.15)
        world.context.rebind(world.hosts[0])
        # Demand 2 VCPUs, cap 0.5 cores: a quarter speed, halved again
        # by 4 workers time-sharing 2 VCPUs.
        assert world.context.begin_service(cycles, 1.0) == 8.0
        world.domain.active_workers = 1
        world.sim.run_until(0.25)
        # One worker demands 1 core of the 0.5 cap: half speed.
        assert world.context.begin_service(cycles, 1.0) == 2.0
        world.migrate()
        # The destination has not allocated for the guest yet.
        assert world.context.begin_service(cycles, 1.0) == 1.0

    @pytest.mark.parametrize("make_world", [
        lambda: VirtualizedWorld(batch_writes=True, vcpu_contention=False),
        lambda: VirtualizedWorld(batch_writes=False, vcpu_contention=True),
        BareMetalWorld,
    ])
    def test_negative_sizes_and_cycles_raise(self, make_world):
        context = make_world().context
        for name in _HOP_NAMES:
            with pytest.raises((CapacityError, ConfigurationError)):
                getattr(context, name)(-1.0)
        with pytest.raises(CapacityError):
            context.begin_service(-1.0, 1.0)
        with pytest.raises(CapacityError):
            context.begin_service(1.0, -1.0)
