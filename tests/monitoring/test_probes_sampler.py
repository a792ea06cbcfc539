"""Unit tests for probes, the trace recorder, and export."""

import json

import numpy as np
import pytest

from repro.errors import MonitoringError
from repro.monitoring import sampler
from repro.monitoring.export import trace_set_to_csv, trace_set_to_json
from repro.monitoring.probes import ContextProbe, Dom0Probe, RawCounters
from repro.monitoring.registry import build_registry
from repro.monitoring.sampler import FLUSH_TICKS, TraceRecorder
from repro.placement.engine import PlacementEngine
from repro.rubis.deployment import VirtualizedDeployment
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.units import GB, KB


def _virtualized():
    """A deployment attached to a fresh one-server engine's host."""
    engine = PlacementEngine(Simulator(), 1)
    deployment = VirtualizedDeployment(
        engine.sim,
        RandomStreams(3),
        engine.hypervisors["cloud-1"],
        engine.cluster,
    )
    return engine.sim, deployment


@pytest.fixture
def virt():
    return _virtualized()


class FakeSession:
    session_id = 1


class TestRawCounters:
    def test_delta_differences_counters_keeps_level(self):
        earlier = RawCounters(100, 50, 10, 20, 30, 40, 5)
        later = RawCounters(150, 70, 15, 25, 35, 45, 9)
        delta = later.delta(earlier)
        assert delta.cpu_cycles == 50
        assert delta.mem_used_bytes == 70  # level, not differenced
        assert delta.requests == 4

    def test_monotonic_validation(self):
        bad = RawCounters(-5, 0, 0, 0, 0, 0, 0)
        with pytest.raises(MonitoringError):
            bad.validate_monotonic()


class TestContextProbe:
    def test_virtualized_probe_metadata(self, virt):
        _, deployment = virt
        probe = ContextProbe("web", deployment.web_context)
        assert probe.virtualized
        domain = deployment.web_context.domain
        assert probe.mem_total_bytes == domain.memory_bytes
        assert probe.capacity_cycles_per_s == pytest.approx(2 * 2.8e9)

    def test_snapshot_tracks_activity(self, virt):
        sim, deployment = virt
        probe = ContextProbe("web", deployment.web_context)
        before = probe.snapshot()
        deployment.send(FakeSession(), "ViewItem", lambda r: None)
        sim.run_until(2.0)
        after = probe.snapshot()
        delta = after.delta(before)
        assert delta.cpu_cycles > 0
        assert delta.net_rx_bytes > 0


class TestDom0Probe:
    def test_snapshot_reads_dom0_owners(self, virt):
        sim, deployment = virt
        probe = Dom0Probe(deployment.web_context.hypervisor)
        sim.run_until(3.0)
        snapshot = probe.snapshot()
        assert snapshot.cpu_cycles > 0  # housekeeping burned cycles
        assert snapshot.mem_used_bytes > 0

    def test_not_flagged_virtualized(self, virt):
        _, deployment = virt
        assert not Dom0Probe(deployment.web_context.hypervisor).virtualized


class TestTraceRecorder:
    def test_core_series_collected_on_2s_grid(self, virt):
        sim, deployment = virt
        probes = [
            ContextProbe("web", deployment.web_context),
            ContextProbe("db", deployment.db_context),
            Dom0Probe(deployment.web_context.hypervisor),
        ]
        recorder = TraceRecorder(sim, probes, "virtualized", "browsing")
        sim.run_until(10.0)
        series = recorder.traces.get("web", "cpu_cycles")
        assert list(series.times) == [2.0, 4.0, 6.0, 8.0, 10.0]
        assert recorder.samples_taken == 5
        assert len(recorder.traces) == 12  # 3 entities x 4 resources

    def test_duplicate_entities_rejected(self, virt):
        sim, deployment = virt
        probes = [
            ContextProbe("web", deployment.web_context),
            ContextProbe("web", deployment.db_context),
        ]
        with pytest.raises(MonitoringError):
            TraceRecorder(sim, probes, "virtualized", "browsing")

    def test_no_probes_rejected(self, virt):
        sim, _ = virt
        with pytest.raises(MonitoringError):
            TraceRecorder(sim, [], "virtualized", "browsing")

    def test_full_registry_rows(self, virt):
        sim, deployment = virt
        probes = [ContextProbe("web", deployment.web_context)]
        recorder = TraceRecorder(
            sim,
            probes,
            "virtualized",
            "browsing",
            registry=build_registry(),
            collect_full_registry=True,
            rng=np.random.default_rng(0),
        )
        sim.run_until(4.0)
        assert len(recorder.full_rows) == 2
        row = recorder.full_rows[0]
        # 182 sysstat-vm + 154 perf + time column.
        assert len(row) == 182 + 154 + 1

    def test_full_registry_requires_registry_and_rng(self, virt):
        sim, deployment = virt
        probes = [ContextProbe("web", deployment.web_context)]
        with pytest.raises(MonitoringError):
            TraceRecorder(
                sim, probes, "v", "w", collect_full_registry=True
            )

    def test_stop_halts_sampling(self, virt):
        sim, deployment = virt
        recorder = TraceRecorder(
            sim,
            [ContextProbe("web", deployment.web_context)],
            "virtualized",
            "browsing",
        )
        sim.run_until(4.0)
        recorder.stop()
        sim.run_until(20.0)
        assert recorder.samples_taken == 2


class TestRegistryBlocks:
    """The registry is evaluated per block of ticks, as if per tick."""

    @pytest.fixture(scope="class")
    def registry(self):
        return build_registry()

    @staticmethod
    def _recorder(registry, columnar=False):
        sim, deployment = _virtualized()
        recorder = TraceRecorder(
            sim,
            [
                ContextProbe("web", deployment.web_context),
                Dom0Probe(deployment.web_context.hypervisor),
            ],
            "virtualized",
            "browsing",
            registry=registry,
            collect_full_registry=True,
            rng=np.random.default_rng(1),
            columnar_rows=columnar,
        )
        return sim, deployment, recorder

    def test_each_tick_sees_its_own_allocation(self, registry):
        # A controller may balloon memory and hotplug VCPUs between
        # ticks; the block must be evaluated with each tick's total,
        # not with the allocation in force when the block is flushed.
        sim, deployment, recorder = self._recorder(registry, columnar=True)
        context = deployment.web_context
        hypervisor, domain = context.hypervisor, context.domain
        totals = [domain.memory_bytes, 1.5 * GB, 3.0 * GB, 1.0 * GB, 1.0 * GB]
        for at, memory, vcpus in ((3.0, 1.5 * GB, 2), (5.0, 3.0 * GB, 1),
                                  (7.0, 1.0 * GB, 4)):
            sim.schedule_at(at, hypervisor.balloon, domain, memory)
            sim.schedule_at(at, hypervisor.set_vcpus, domain, vcpus)
        sim.run_until(10.0)
        recorder.stop()
        table = recorder.columnar
        assert list(table.column("time_s")) == [2.0, 4.0, 6.0, 8.0, 10.0]
        used = table.column("web|sysstat-vm/kbmemused") * KB
        memused = table.column("web|sysstat-vm/%memused")
        memfree = table.column("web|sysstat-vm/kbmemfree")
        for tick, total in enumerate(totals):
            assert memused[tick] == 100.0 * used[tick] / max(total, 1.0)
            assert memfree[tick] == max(0.0, (total - used[tick]) / KB)

    def test_reading_rows_mid_run_changes_nothing(self, registry):
        sim, _, early = self._recorder(registry)
        sim.run_until(10.0)
        first = early.full_rows  # flushes the five pending ticks
        assert len(first) == 5
        sim.run_until(20.0)
        early.stop()
        sim, _, late = self._recorder(registry)
        sim.run_until(20.0)
        late.stop()
        assert early.full_rows is first
        assert len(first) == 10
        assert first == late.full_rows

    def test_blocks_match_one_flush(self, registry, monkeypatch):
        horizon = 2.0 * (2 * FLUSH_TICKS + 7)
        sim, _, blocked = self._recorder(registry, columnar=True)
        sim.run_until(horizon)
        # two full blocks were flushed inside the tick, seven pend
        assert len(blocked._pending_times) == 7
        blocked.stop()
        monkeypatch.setattr(sampler, "FLUSH_TICKS", 10**6)
        sim, _, single = self._recorder(registry, columnar=True)
        sim.run_until(horizon)
        assert len(single._pending_times) == 2 * FLUSH_TICKS + 7
        single.stop()
        assert len(blocked.columnar) == 2 * FLUSH_TICKS + 7
        assert (
            blocked.columnar.matrix().tobytes()
            == single.columnar.matrix().tobytes()
        )


class TestExport:
    def _recorded(self, virt):
        sim, deployment = virt
        recorder = TraceRecorder(
            sim,
            [
                ContextProbe("web", deployment.web_context),
                ContextProbe("db", deployment.db_context),
            ],
            "virtualized",
            "browsing",
        )
        deployment.send(FakeSession(), "ViewItem", lambda r: None)
        sim.run_until(6.0)
        return recorder.traces

    def test_csv_round_shape(self, virt):
        traces = self._recorded(virt)
        csv_text = trace_set_to_csv(traces)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("time_s,")
        assert len(lines) == 1 + 3  # header + 3 samples
        assert len(lines[0].split(",")) == 1 + 8  # time + 2x4 series

    def test_json_round_trip(self, virt):
        traces = self._recorded(virt)
        document = json.loads(trace_set_to_json(traces))
        assert document["environment"] == "virtualized"
        assert document["workload"] == "browsing"
        assert len(document["series"]) == 8
        web_cpu = document["series"]["web:cpu_cycles"]
        assert len(web_cpu["times"]) == 3
