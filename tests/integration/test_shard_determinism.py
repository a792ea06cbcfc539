"""Determinism and outcome regression for the sharded fleet engine.

The sharding contract has three legs:

1. **Shard-count invariance.**  A fleet's merged trace fingerprint is
   bit-identical across shard counts — including a faulted fleet whose
   recovery crosses shards (the two-pod crash/strand/evacuate story).
2. **Engine equivalence.**  A single-pod fleet produces exactly the
   traces the plain single-process ``run_scenario`` path produces at
   the pod-derived seed: the shard layer wraps the engine, it never
   re-implements it.
3. **Fail-fast liveness.**  A shard that stops heartbeating fails the
   run within the deadline, naming the shard and its server groups.

A pinned merged fingerprint of a small datacenter fleet guards the
event order itself: its hypervisors tie on ``(time, priority)`` at every
epoch, so a change to the queue's tie-breaking moves it.
"""

import os
from dataclasses import replace

import pytest

from repro.config import ExperimentConfig
from repro.experiments.runner import run_scenario
from repro.monitoring.export import trace_set_sha256
from repro.planning.cost import score_cost_sla
from repro.shard import (
    FleetScenario,
    PodSpec,
    ShardTimeoutError,
    datacenter_fleet,
    fleet_optimizer_demo,
    fleet_optimizer_demo_watch,
    run_fleet,
    two_pod_fleet,
    two_pod_fleet_watch,
)
from repro.shard.fabric import HANG_ENV


def _small_pod_config(seed: int = 7) -> ExperimentConfig:
    return ExperimentConfig(
        environment="virtualized",
        composition="browsing",
        seed=seed,
        clients=40,
    )


def _four_pod_fleet() -> FleetScenario:
    return FleetScenario(
        name="four",
        pods=tuple(
            PodSpec(f"p{i}", _small_pod_config()) for i in range(1, 5)
        ),
        duration_s=20.0,
        window_s=10.0,
        seed=11,
    )


class TestShardCountInvariance:
    def test_faulted_two_pod_fleet_identical_across_shards(self):
        """The acceptance run: crash, strand, cross-shard evacuation —
        and the same merged fingerprint whether the pods share one
        process or talk through the message fabric."""
        inline = run_fleet(two_pod_fleet(), shards=1)
        sharded = run_fleet(two_pod_fleet(), shards=2)
        assert inline.merged_sha256 == sharded.merged_sha256
        for result in (inline, sharded):
            east, west = result.pods["east"], result.pods["west"]
            assert east["fleet"]["failed_servers"] == ["cloud-2"]
            assert east["exported"] == [{"vm": "heavy-vm", "peer": "west"}]
            assert west["imported"] == [
                {"vm": "heavy-vm@east", "peer": "east"}
            ]
            kinds = [d["kind"] for d in result.optimizer["decisions"]]
            assert "evacuate" in kinds

    def test_watch_fleet_leaves_the_guest_stranded(self):
        """Without the optimizer the heavy guest stays on the failed
        server — the cross-pod evacuation is what changes the outcome."""
        watch = run_fleet(two_pod_fleet_watch(), shards=1)
        east = watch.pods["east"]
        assert east["exported"] == []
        assert east["fleet"]["placement"]["cloud-2"] == ["heavy-vm"]

    def test_four_pod_fleet_identical_across_1_2_4_shards(self):
        fingerprints = {
            shards: run_fleet(_four_pod_fleet(), shards=shards).merged_sha256
            for shards in (1, 2, 4)
        }
        assert len(set(fingerprints.values())) == 1


class TestPinnedFleetFingerprint:
    def test_datacenter_fleet_merged_sha_pinned(self):
        # Four epochs plus housekeeping tie at every tick.
        fleet = datacenter_fleet(seed=42, pods=2, duration_s=60.0)
        result = run_fleet(fleet, shards=1)
        assert result.merged_sha256 == (
            "2332613d4767f39d5a1a560d87012bbbcaaa3b7122a0c4f9a8ed46128f54eb36"
        )

    @pytest.mark.parametrize("shards", [1, 2])
    def test_batched_pod_fleet_merged_sha_pinned(self, shards):
        # About 4 rows a drain: a wave's fixed cost is nearly all of
        # it, a regime no single-server pin reaches.
        fleet = datacenter_fleet(seed=42, pods=2, duration_s=60.0)
        fleet = replace(fleet, pods=tuple(
            replace(pod, config=replace(pod.config, engine="batched"))
            for pod in fleet.pods
        ))
        result = run_fleet(fleet, shards=shards)
        assert result.requests_completed == 2109
        assert result.merged_sha256 == (
            "9249d670a73cb8025bef9c7a1455edb3bc1eeeff8f6e7ec0d449f8e10f72799f"
        )


class TestEngineEquivalence:
    def test_single_pod_fleet_matches_run_scenario(self):
        fleet = FleetScenario(
            name="solo",
            pods=(PodSpec("only", _small_pod_config()),),
            duration_s=20.0,
            window_s=10.0,
            seed=11,
        )
        result = run_fleet(fleet, shards=1)
        config = replace(
            _small_pod_config(),
            seed=fleet.pod_seed("only"),
            duration_s=20.0,
        )
        reference = run_scenario(config.to_scenario())
        assert (
            result.pods["only"]["trace_sha256"]
            == trace_set_sha256(reference.traces)
        )


class TestFleetOptimizerEconomics:
    def test_budget_lever_beats_watching(self):
        """The bill-reading acceptance check: the optimized fleet ends
        strictly cheaper per kilorequest than the watch-only baseline
        at the same seed, without violating the SLO."""
        optimized = run_fleet(fleet_optimizer_demo(), shards=1)
        watch = run_fleet(fleet_optimizer_demo_watch(), shards=1)

        def score(result):
            p95 = max(pod["p95_ms"] for pod in result.pods.values())
            return score_cost_sla(
                result.billing(), p95, slo_ms=50.0,
                requests_completed=result.requests_completed,
            )

        cheap, base = score(optimized), score(watch)
        assert cheap.usd_per_kilorequest < base.usd_per_kilorequest
        assert cheap.sla_met
        kinds = [d["kind"] for d in optimized.optimizer["decisions"]]
        assert "budget-throttle" in kinds


class TestHeartbeat:
    def test_hung_shard_fails_fast_naming_its_server_groups(self):
        os.environ[HANG_ENV] = "1"
        try:
            with pytest.raises(
                ShardTimeoutError,
                match=r"shard 1 \(server groups: p2, p4\)",
            ) as excinfo:
                run_fleet(
                    _four_pod_fleet(), shards=2, heartbeat_timeout_s=3.0
                )
        finally:
            os.environ.pop(HANG_ENV, None)
        assert excinfo.value.shard == 1
        assert excinfo.value.pods == ["p2", "p4"]
        assert excinfo.value.window_index == 0
