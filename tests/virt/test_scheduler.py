"""Unit and property tests for the credit scheduler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.faults.injectors import ServerCrashInjector
from repro.hardware.server import PhysicalServer
from repro.sim.engine import Simulator
from repro.virt.domain import Domain
from repro.virt.hypervisor import Hypervisor
from repro.virt.scheduler import CreditScheduler


def make_domain(name, workers, vcpus=2, weight=256.0, cap=0.0):
    domain = Domain(
        name, vcpu_count=vcpus, weight=weight, cap_cores=cap
    )
    domain.active_workers = workers
    return domain


class TestWorkConservation:
    def test_under_light_load_everyone_gets_demand(self):
        scheduler = CreditScheduler(total_cores=8)
        domains = [make_domain("a", 2), make_domain("b", 1)]
        decision = scheduler.allocate(domains)
        assert decision.granted_cores["a"] == pytest.approx(2.0)
        assert decision.granted_cores["b"] == pytest.approx(1.0)

    def test_idle_domain_gets_nothing(self):
        scheduler = CreditScheduler(total_cores=8)
        domains = [make_domain("a", 0), make_domain("b", 2)]
        decision = scheduler.allocate(domains)
        assert decision.granted_cores["a"] == 0.0

    def test_total_never_exceeds_capacity(self):
        scheduler = CreditScheduler(total_cores=2)
        domains = [make_domain(f"d{i}", 2) for i in range(4)]
        decision = scheduler.allocate(domains)
        assert sum(decision.granted_cores.values()) <= 2.0 + 1e-9


class TestProportionalShare:
    def test_weights_divide_contended_capacity(self):
        scheduler = CreditScheduler(total_cores=2)
        domains = [
            make_domain("heavy", 2, weight=512.0),
            make_domain("light", 2, weight=256.0),
        ]
        decision = scheduler.allocate(domains)
        ratio = (
            decision.granted_cores["heavy"] / decision.granted_cores["light"]
        )
        assert ratio == pytest.approx(2.0, rel=1e-6)

    def test_unused_share_redistributed(self):
        # "small" only wants 0.5 core; its leftover share must flow to
        # "big" instead of being wasted (work conservation).
        scheduler = CreditScheduler(total_cores=2)
        small = make_domain("small", 1, vcpus=1, weight=256.0)
        small.active_workers = 1
        small.vcpus = small.vcpus[:1]
        big = make_domain("big", 4, vcpus=4, weight=256.0)
        decision = scheduler.allocate([small, big])
        assert decision.granted_cores["small"] == pytest.approx(1.0)
        assert decision.granted_cores["big"] == pytest.approx(1.0)


class TestCaps:
    def test_cap_limits_allocation(self):
        scheduler = CreditScheduler(total_cores=8)
        capped = make_domain("capped", 4, vcpus=4, cap=1.5)
        decision = scheduler.allocate([capped])
        assert decision.granted_cores["capped"] == pytest.approx(1.5)

    def test_cap_zero_means_uncapped(self):
        scheduler = CreditScheduler(total_cores=8)
        domain = make_domain("free", 2, cap=0.0)
        decision = scheduler.allocate([domain])
        assert decision.granted_cores["free"] == pytest.approx(2.0)


class TestSpeedFraction:
    def test_full_speed_when_satisfied(self):
        scheduler = CreditScheduler(total_cores=8)
        domain = make_domain("a", 2)
        scheduler.allocate([domain])
        assert scheduler.speed_fraction("a") == pytest.approx(1.0)

    def test_half_speed_under_2x_contention(self):
        scheduler = CreditScheduler(total_cores=2)
        domains = [make_domain("a", 2), make_domain("b", 2)]
        scheduler.allocate(domains)
        assert scheduler.speed_fraction("a") == pytest.approx(0.5)

    def test_idle_domain_reports_full_speed(self):
        scheduler = CreditScheduler(total_cores=2)
        scheduler.allocate([make_domain("a", 0)])
        assert scheduler.speed_fraction("a") == 1.0

    def test_unknown_domain_defaults_to_full_speed(self):
        scheduler = CreditScheduler(total_cores=2)
        assert scheduler.speed_fraction("ghost") == 1.0


class TestValidation:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            CreditScheduler(total_cores=0)

    def test_epoch_counter(self):
        scheduler = CreditScheduler(total_cores=4)
        scheduler.allocate([make_domain("a", 1)])
        scheduler.allocate([make_domain("a", 1)])
        assert scheduler.epochs == 2


class TestSchedulerProperties:
    @given(
        workers=st.lists(
            st.integers(min_value=0, max_value=8), min_size=1, max_size=6
        ),
        weights=st.lists(
            st.floats(min_value=1.0, max_value=1024.0),
            min_size=6,
            max_size=6,
        ),
        cores=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=80, deadline=None)
    def test_invariants_hold_for_any_configuration(
        self, workers, weights, cores
    ):
        scheduler = CreditScheduler(total_cores=cores)
        domains = [
            make_domain(f"d{i}", w, weight=weights[i])
            for i, w in enumerate(workers)
        ]
        decision = scheduler.allocate(domains)
        granted = decision.granted_cores
        # Never over capacity.
        assert sum(granted.values()) <= cores + 1e-6
        for domain in domains:
            # Never more than demand.
            assert granted[domain.name] <= domain.demand_cores() + 1e-9
            # Never negative.
            assert granted[domain.name] >= 0.0
        # Work conservation: if total demand fits, everyone is satisfied.
        total_demand = sum(d.demand_cores() for d in domains)
        if total_demand <= cores:
            for domain in domains:
                assert granted[domain.name] == pytest.approx(
                    domain.demand_cores(), abs=1e-6
                )


#: Edits made to a scheduler's input between two epochs.
EDITS = ("workers", "cap", "weight", "cores", "vcpus", "add", "remove")


class TestMemoizedAllocation:
    """A repeated input reuses the previous decision; it must be exact."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_a_fresh_scheduler_under_random_edits(self, data):
        base_cores = float(data.draw(st.integers(min_value=1, max_value=8)))
        scheduler = CreditScheduler(total_cores=base_cores)
        workers = st.integers(min_value=0, max_value=6)
        domains = [
            make_domain(f"d{i}", data.draw(workers))
            for i in range(data.draw(st.integers(min_value=1, max_value=4)))
        ]
        added = len(domains)
        epochs = data.draw(st.integers(min_value=2, max_value=10))
        for epoch in range(epochs):
            for edit in data.draw(st.lists(st.sampled_from(EDITS), max_size=3)):
                domain = data.draw(st.sampled_from(domains))
                if edit == "workers":
                    domain.active_workers = data.draw(workers)
                elif edit == "cap":
                    domain.cap_cores = data.draw(
                        st.sampled_from((0.0, 0.5, 1.0, 3.0))
                    )
                elif edit == "weight":
                    domain.weight = data.draw(
                        st.sampled_from((128.0, 256.0, 512.0))
                    )
                elif edit == "cores":
                    # As the crash injector does: rewrite the attribute.
                    scheduler.total_cores = base_cores * data.draw(
                        st.sampled_from((0.05, 0.5, 1.0))
                    )
                elif edit == "vcpus":
                    domain.set_online_vcpus(
                        data.draw(st.integers(min_value=1, max_value=4))
                    )
                elif edit == "add":
                    domains.append(make_domain(f"d{added}", data.draw(workers)))
                    added += 1
                elif len(domains) > 1:
                    domains.remove(domain)

            decision = scheduler.allocate(domains)
            fresh = CreditScheduler(total_cores=scheduler.total_cores)
            expected = fresh.allocate(domains)
            assert decision.granted_cores == expected.granted_cores
            assert decision.demand_cores == expected.demand_cores
            assert decision.total_cores == expected.total_cores
            for domain in domains:
                assert scheduler.speed_fraction(
                    domain.name
                ) == fresh.speed_fraction(domain.name)
            assert scheduler.epochs == epoch + 1

    def test_unchanged_input_returns_the_previous_decision(self):
        scheduler = CreditScheduler(total_cores=4)
        domains = [make_domain("a", 1), make_domain("b", 0)]
        first = scheduler.allocate(domains)
        assert scheduler.allocate(domains) is first
        domains[1].active_workers = 1
        assert scheduler.allocate(domains) is not first
        assert scheduler.epochs == 3

    def test_crash_between_epochs_changes_the_speed_fraction(self):
        # Demand stays put while the crash injector rewrites the
        # scheduler's cores, so only ``total_cores`` tells the epochs
        # apart.
        sim = Simulator()
        server = PhysicalServer("s")
        hypervisor = Hypervisor(sim, server)
        web = hypervisor.create_domain("web-vm", vcpu_count=2)
        web.active_workers = 2
        crash = ServerCrashInjector(hypervisor, residual_fraction=0.125)
        sim.run_until(0.15)
        assert hypervisor.scheduler.speed_fraction("web-vm") == 1.0
        crash.inject()
        sim.run_until(0.25)
        assert hypervisor.scheduler.speed_fraction("web-vm") == 0.5
        crash.clear()
        sim.run_until(0.35)
        assert hypervisor.scheduler.speed_fraction("web-vm") == 1.0
