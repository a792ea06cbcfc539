"""Tests for the testbed builder (single- and multi-tenant assembly)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import (
    Scenario,
    consolidated_scenario,
    consolidated_web_batch_scenario,
    scenario,
    scenario_catalog,
)
from repro.experiments.testbed import build_testbed
from repro.monitoring.export import trace_set_sha256
from repro.placement.policies import PlacementError
from repro.placement.spec import PLACEMENT_POLICIES
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.workloads import TenantSpec


def _build(spec):
    sim = Simulator()
    streams = RandomStreams(seed=spec.seed)
    return sim, build_testbed(sim, streams, spec)


class TestSingleTenant:
    def test_probe_order_matches_legacy_runner(self):
        _, testbed = _build(
            scenario("virtualized", "browsing", duration_s=30.0)
        )
        assert [p.entity for p in testbed.probes()] == ["web", "db", "dom0"]
        assert testbed.tenants == []
        assert testbed.tenant_reports() is None

    def test_bare_metal_has_no_hypervisor(self):
        _, testbed = _build(
            scenario("bare-metal", "browsing", duration_s=30.0)
        )
        assert testbed.hypervisor is None
        assert [p.entity for p in testbed.probes()] == ["web", "db"]
        assert testbed.interference_report() is None

    def test_refactor_preserves_traces_exactly(self):
        """The workload/testbed layering must not change a single draw."""
        spec = scenario("virtualized", "browsing", duration_s=40.0, seed=21)
        a = run_scenario(spec)
        b = run_scenario(spec)
        assert trace_set_sha256(a.traces) == trace_set_sha256(b.traces)
        assert a.requests_completed == b.requests_completed


class TestMultiTenant:
    def test_tenants_share_one_hypervisor(self):
        spec = consolidated_web_batch_scenario(duration_s=30.0)
        _, testbed = _build(spec)
        domains = {d.name for d in testbed.hypervisor.domains()}
        assert {"Domain-0", "web-vm", "db-vm", "batch-vm"} <= domains
        assert testbed.deployment.web_context.hypervisor is testbed.hypervisor
        assert [p.entity for p in testbed.probes()] == [
            "web", "db", "dom0", "batch",
        ]

    def test_bare_metal_tenants_rejected(self):
        base = scenario("bare-metal", "browsing", duration_s=30.0)
        with pytest.raises(ConfigurationError):
            Scenario(
                name="bad",
                environment=base.environment,
                mix=base.mix,
                duration_s=base.duration_s,
                tenants=(TenantSpec(),),
            )

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ConfigurationError):
            consolidated_scenario(
                "browsing",
                duration_s=30.0,
                tenants=(TenantSpec(), TenantSpec()),
            )

    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    def test_two_tenants_two_domains(self, policy):
        # 20 VCPUs on 8 cores: a lone server may oversubscribe without
        # bound, under every placement policy.
        spec = consolidated_scenario(
            "browsing",
            duration_s=30.0,
            tenants=(
                TenantSpec(name="sorter"),
                TenantSpec(name="grepper", job="grep"),
            ),
        )
        _, testbed = _build(replace(spec, placement=policy))
        assert testbed.engine.placement_report() == {
            "cloud-1": ["web-vm", "db-vm", "sorter-vm", "grepper-vm"],
        }
        names = {d.name for d in testbed.hypervisor.domains()}
        assert {"sorter-vm", "grepper-vm"} <= names
        entities = [p.entity for p in testbed.probes()]
        assert entities[-2:] == ["sorter", "grepper"]

    def test_memory_stays_hard_on_one_server(self):
        # Seven 4 GiB tenants + the 4 GiB web pair + dom0's 4 GiB do
        # not fit a 32 GiB host: the seventh tenant is refused.
        spec = consolidated_scenario(
            "browsing",
            duration_s=20.0,
            clients=50,
            tenants=tuple(TenantSpec(name=f"t{i}") for i in range(7)),
        )
        with pytest.raises(PlacementError, match="'t6-vm'"):
            _build(spec)

    def test_consolidated_result_has_tenant_series(self):
        result = run_scenario(
            consolidated_web_batch_scenario(duration_s=30.0, clients=100)
        )
        assert "batch" in result.traces.entities()
        series = result.traces.get("batch", "cpu_cycles")
        assert series.values.sum() > 0
        assert result.tenant_reports is not None
        assert set(result.interference) == {"cpu_ready_s"}
        assert result.control_reports is None
        assert np.isfinite(result.p95_response_time_s)


class TestShutdown:
    @pytest.mark.parametrize(
        "name",
        [
            "virtualized/browsing",
            "bare-metal/bidding",
            "consolidated_web_batch",
            "fleet_consolidation",
        ],
    )
    def test_shutdown_quiets_every_host(self, name):
        # The engine, not the web deployment, stops each hypervisor.
        spec = scenario_catalog(duration_s=30.0)[name]
        sim, testbed = _build(spec)
        sim.run_until(5.0)
        assert sim.pending_events > 0
        testbed.shutdown()
        assert sim.pending_events == 0


class TestScenarioCatalog:
    def test_catalog_contains_paper_and_consolidated_runs(self):
        catalog = scenario_catalog(duration_s=30.0)
        assert "virtualized/browsing" in catalog
        assert "consolidated_web_batch" in catalog
        assert catalog["consolidated_web_batch"].consolidated
        assert len(catalog) >= 10

    def test_consolidated_entries_are_virtualized(self):
        catalog = scenario_catalog(duration_s=30.0)
        for spec in catalog.values():
            if spec.consolidated:
                assert spec.environment == "virtualized"
