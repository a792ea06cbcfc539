"""Unit tests for the deployment request path."""

import pytest

from repro.placement.engine import PlacementEngine
from repro.rubis.deployment import (
    BareMetalDeployment,
    DeploymentConfig,
    VirtualizedDeployment,
)
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


class FakeSession:
    session_id = 7


@pytest.fixture
def engine():
    return PlacementEngine(Simulator(), 1)


@pytest.fixture
def virt(engine):
    deployment = VirtualizedDeployment(
        engine.sim,
        RandomStreams(1),
        engine.hypervisors["cloud-1"],
        engine.cluster,
    )
    return engine.sim, deployment


@pytest.fixture
def bare():
    sim = Simulator()
    deployment = BareMetalDeployment(sim, RandomStreams(1))
    return sim, deployment


class TestVirtualizedDeployment:
    def test_environment_label(self, virt):
        _, deployment = virt
        assert deployment.environment == "virtualized"

    def test_two_guests_plus_dom0(self, virt):
        _, deployment = virt
        names = {d.name for d in deployment.web_context.hypervisor.domains()}
        assert names == {"Domain-0", "web-vm", "db-vm"}

    def test_tiers_colocated_on_one_server(self, virt):
        _, deployment = virt
        fabric = deployment.cluster.fabric
        assert fabric.server_of("web") == fabric.server_of("db")

    def test_request_roundtrip_touches_both_tiers(self, virt):
        sim, deployment = virt
        responses = []
        deployment.send(FakeSession(), "ViewItem", responses.append)
        sim.run_until(5.0)
        assert len(responses) == 1
        request = responses[0]
        assert request.web_started_at is not None
        assert request.db_started_at is not None
        assert request.web_started_at <= request.db_started_at

    def test_static_page_skips_database(self, virt):
        sim, deployment = virt
        responses = []
        deployment.send(FakeSession(), "Home", responses.append)
        sim.run_until(5.0)
        assert len(responses) == 1
        assert responses[0].db_started_at is None
        assert deployment.mysql_tier.station.stats.arrivals == 0

    def test_stage_ordering_web_before_db(self, virt):
        sim, deployment = virt
        responses = []
        deployment.send(FakeSession(), "ViewBidHistory", responses.append)
        sim.run_until(5.0)
        request = responses[0]
        assert request.created_at < request.web_started_at
        assert request.web_started_at < request.db_started_at
        assert deployment.php_tier.requests_handled == 1

    def test_network_counters_populated(self, virt):
        sim, deployment = virt
        deployment.send(FakeSession(), "ViewItem", lambda r: None)
        sim.run_until(5.0)
        assert deployment.web_context.net_bytes_total() > 0
        assert deployment.db_context.net_bytes_total() > 0

    def test_shutdown_stops_activity(self, virt, engine):
        sim, deployment = virt
        deployment.shutdown()
        engine.shutdown()
        ledger = deployment.web_context.hypervisor.server.cpu.ledger
        cycles = ledger.grand_total()
        sim.run_until(20.0)
        assert ledger.grand_total() == cycles


class TestBareMetalDeployment:
    def test_environment_label(self, bare):
        _, deployment = bare
        assert deployment.environment == "bare-metal"

    def test_tiers_on_separate_servers(self, bare):
        _, deployment = bare
        fabric = deployment.cluster.fabric
        assert fabric.server_of("web") != fabric.server_of("db")

    def test_request_roundtrip(self, bare):
        sim, deployment = bare
        responses = []
        deployment.send(FakeSession(), "SearchItemsInCategory",
                        responses.append)
        sim.run_until(5.0)
        assert len(responses) == 1

    def test_inter_tier_latency_larger_than_virtualized(self, virt, bare):
        _, virt = virt
        _, bare = bare
        lat_virt = virt.cluster.fabric.latency("web", "db")
        lat_bare = bare.cluster.fabric.latency("web", "db")
        # The paper's "longer communication delay in the non-virtualized
        # system": separate hosts vs a software bridge.
        assert lat_bare > lat_virt

    def test_cpu_charged_to_pm_owners(self, bare):
        sim, deployment = bare
        deployment.send(FakeSession(), "ViewItem", lambda r: None)
        sim.run_until(5.0)
        assert deployment.web_server.cpu.ledger.total("pm:web") > 0
        assert deployment.db_server.cpu.ledger.total("pm:db") > 0
