"""Tests for the fault-injection recovery scenarios (scenario level)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import (
    consolidated_scenario,
    detect_and_evacuate_scenario,
    noisy_neighbor_theft_scenario,
    scenario,
    scenario_catalog,
)
from repro.faults.scoring import score_run
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.workloads import TenantSpec


@pytest.fixture(scope="module")
def evacuation_run():
    """One detect-and-evacuate drill, shared across the assertions."""
    return run_scenario(
        detect_and_evacuate_scenario(duration_s=180.0, clients=400)
    )


class TestDetectAndEvacuate:
    def test_failed_server_is_detected(self, evacuation_run):
        fleet = evacuation_run.control_reports["fleet"]
        assert fleet["failed_servers"] == ["cloud-1"]
        assert fleet["actions_by_kind"].get("server_failed", 0) == 1

    def test_every_guest_is_evacuated_to_the_survivor(self, evacuation_run):
        fleet = evacuation_run.control_reports["fleet"]
        evacuations = fleet["evacuations"]
        assert {e["domain"] for e in evacuations} == {
            "web-vm", "db-vm", "batch-vm",
        }
        assert all(e["source"] == "cloud-1" for e in evacuations)
        assert all(e["dest"] == "cloud-2" for e in evacuations)
        assert all(e["forced"] for e in evacuations)
        # Latency-sensitive guests leave first; the batch tenant waits.
        assert evacuations[-1]["domain"] == "batch-vm"
        assert fleet["placement"]["cloud-1"] == []
        assert sorted(fleet["placement"]["cloud-2"]) == [
            "batch-vm", "db-vm", "web-vm",
        ]

    def test_forced_evacuations_do_not_consume_the_voluntary_budget(
        self, evacuation_run
    ):
        # max_migrations=1 in the drill's FleetSpec: three forced
        # evacuations completed anyway, and none were accounted as
        # voluntary migrations.
        fleet = evacuation_run.control_reports["fleet"]
        assert len(fleet["evacuations"]) == 3
        assert fleet["migrations"] == []
        assert fleet["num_actions"] == 0

    def test_recovery_is_scored_off_the_fleet_p95(self, evacuation_run):
        score, = score_run(
            evacuation_run, slo_ms=100.0, sustain_windows=10
        )
        assert score.fault_time_s == 60.0
        assert score.detection_s is not None and score.detection_s > 0
        assert score.recovered
        assert score.recovery_s > score.detection_s
        assert score.slo_violation_s > 0

    def test_fault_traces_are_merged(self, evacuation_run):
        traces = evacuation_run.traces
        assert "faults" in traces.entities()
        assert traces.get("faults", "injected").values.max() == 1.0
        assert traces.get("fleet", "failed_servers").values.max() == 1.0
        assert traces.get("fleet", "evacuations_done").values.max() == 3.0

    def test_watch_only_baseline_never_recovers(self):
        result = run_scenario(
            detect_and_evacuate_scenario(
                duration_s=180.0, clients=400, fleet=False
            )
        )
        fleet = result.control_reports["fleet"]
        assert fleet["evacuations"] == []
        assert fleet["failed_servers"] == []
        score, = score_run(result, slo_ms=100.0, sustain_windows=10)
        assert score.detected_at_s is not None
        assert not score.recovered


class TestNoisyNeighborTheft:
    def test_active_controller_heals_the_theft(self):
        healed = run_scenario(
            noisy_neighbor_theft_scenario(duration_s=120.0, clients=600)
        )
        static = run_scenario(
            noisy_neighbor_theft_scenario(
                duration_s=120.0, clients=600, controller="static"
            )
        )
        healed_score, = score_run(
            healed, slo_ms=100.0, entity="control", sustain_windows=3
        )
        static_score, = score_run(
            static, slo_ms=100.0, entity="control", sustain_windows=3
        )
        # The static baseline keeps the stolen 0.1-core cap to the
        # horizon; the threshold controller re-actuates within a tick.
        assert static.control_reports["control"]["final"][
            "web-vm"
        ]["cap_cores"] == pytest.approx(0.1)
        assert healed.control_reports["control"]["final"][
            "web-vm"
        ]["cap_cores"] > 0.1
        assert static_score.slo_violation_s > 3 * healed_score.slo_violation_s


class TestScenarioWiring:
    def test_faults_require_virtualized(self):
        from dataclasses import replace

        base = scenario("bare-metal", "browsing", duration_s=30.0)
        with pytest.raises(ConfigurationError):
            replace(
                base,
                faults=FaultSchedule((FaultSpec(kind="crash", at_s=10.0),)),
            )

    def test_flash_crowd_requires_open_loop(self):
        from dataclasses import replace

        base = consolidated_scenario("browsing", duration_s=30.0)
        with pytest.raises(ConfigurationError):
            replace(
                base,
                faults=FaultSchedule(
                    (FaultSpec(kind="flash_crowd", at_s=10.0),)
                ),
            )

    @pytest.mark.parametrize(
        "servers, token",
        [
            (1, "crash@20/cloud-2"),
            (2, "crash@20/cloud-3"),
            (1, "cap_theft@10/ghost-vm"),
        ],
    )
    def test_unknown_fault_target_rejected(self, servers, token):
        from dataclasses import replace

        base = scenario("virtualized", "browsing", duration_s=30.0)
        with pytest.raises(ConfigurationError, match="choose from") as info:
            replace(
                base,
                servers=servers,
                faults=FaultSchedule.from_cli_string(token),
            )
        target = token.split("/")[1]
        assert f"unknown {target!r}" in str(info.value)

    @pytest.mark.parametrize(
        "servers, token, tenants",
        [
            (2, "crash@20/cloud-2", ()),
            (1, "degrade_nic@20/db-vm", ()),
            (1, "cap_theft@10/batch-vm", (TenantSpec(),)),
        ],
    )
    def test_known_fault_target_accepted(self, servers, token, tenants):
        from dataclasses import replace

        base = scenario("virtualized", "browsing", duration_s=30.0)
        spec = replace(
            base,
            servers=servers,
            tenants=tenants,
            faults=FaultSchedule.from_cli_string(token),
        )
        assert spec.faults.as_cli_string() == token

    def test_faults_change_the_cache_key(self):
        base = consolidated_scenario("browsing", duration_s=30.0)
        from dataclasses import replace

        faulted = replace(
            base,
            faults=FaultSchedule((FaultSpec(kind="crash", at_s=10.0),)),
        )
        assert base.cache_key != faulted.cache_key
        assert faulted.faulted and not base.faulted

    def test_catalogue_carries_the_recovery_scenarios(self):
        catalog = scenario_catalog(duration_s=60.0)
        for name in (
            "detect_and_evacuate",
            "detect_and_evacuate_watch",
            "noisy_neighbor_theft",
            "noisy_neighbor_theft_static",
        ):
            assert name in catalog
            assert catalog[name].faulted
