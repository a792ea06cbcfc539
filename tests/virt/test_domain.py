"""Unit tests for domains and VCPUs."""

import pytest

from repro.errors import ConfigurationError
from repro.units import GB
from repro.virt.domain import Domain, DomainKind
from repro.virt.vcpu import Vcpu


class TestVcpu:
    def test_default_online(self):
        assert Vcpu(0).online

    def test_set_online(self):
        vcpu = Vcpu(1)
        vcpu.set_online(False)
        assert not vcpu.online

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            Vcpu(-1)


class TestDomain:
    def test_owner_key_for_guest(self):
        domain = Domain("web-vm")
        assert domain.owner == "vm:web-vm"

    def test_owner_key_for_dom0(self):
        domain = Domain("Domain-0", kind=DomainKind.DOM0)
        assert domain.owner == "dom0"

    def test_paper_vm_shape(self):
        domain = Domain("web-vm", vcpu_count=2, memory_bytes=2 * GB)
        assert len(domain.vcpus) == 2
        assert domain.memory_bytes == 2 * GB

    def test_demand_bounded_by_vcpus(self):
        domain = Domain("d", vcpu_count=2)
        domain.active_workers = 10
        assert domain.demand_cores() == 2.0

    def test_demand_bounded_by_workers(self):
        domain = Domain("d", vcpu_count=2)
        domain.active_workers = 1
        assert domain.demand_cores() == 1.0

    def test_offline_vcpu_reduces_demand(self):
        domain = Domain("d", vcpu_count=2)
        domain.vcpus[1].set_online(False)
        domain.active_workers = 5
        assert domain.demand_cores() == 1.0

    def test_worker_lifecycle(self):
        domain = Domain("d")
        domain.worker_started()
        domain.worker_started()
        assert domain.active_workers == 2
        domain.worker_finished()
        assert domain.active_workers == 1

    def test_worker_finished_underflow_rejected(self):
        with pytest.raises(ConfigurationError):
            Domain("d").worker_finished()

    def test_on_wake_called_when_the_gauge_leaves_idle(self):
        domain = Domain("d")
        wakes = []
        domain.on_wake = lambda: wakes.append(domain.active_workers)
        domain.worker_started()
        domain.worker_started()
        domain.worker_finished()
        domain.worker_finished()
        assert wakes == [1]
        domain.active_workers = 3
        domain.active_workers += 2
        domain.active_workers = 0
        domain.active_workers = 0
        assert wakes == [1, 3]
        domain.worker_started()
        assert wakes == [1, 3, 1]

    def test_gauge_without_hook(self):
        domain = Domain("d")
        domain.active_workers = 4
        domain.worker_started()
        assert domain.active_workers == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vcpu_count": 0},
            {"memory_bytes": 0.0},
            {"weight": 0.0},
            {"cap_cores": -1.0},
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ConfigurationError):
            Domain("bad", **kwargs)
