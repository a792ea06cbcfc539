"""Unit tests for the 518-metric catalogue."""

import numpy as np
import pytest

from repro.errors import UnknownMetricError
from repro.monitoring.metric import (
    ColumnFeed,
    DrawSchedule,
    MetricSource,
    SampleInputs,
    ScheduleRecorder,
    elem_max,
    elem_min,
)
from repro.monitoring.registry import (
    PERF_METRIC_COUNT,
    SYSSTAT_METRIC_COUNT,
    TOTAL_METRIC_COUNT,
    build_registry,
    perf_metrics,
    sysstat_metrics,
    table1_sample,
)


@pytest.fixture(scope="module")
def registry():
    return build_registry()


def make_inputs(virtualized=False, cpu_cycles=1.4e9):
    return SampleInputs(
        interval_s=2.0,
        cpu_cycles=cpu_cycles,
        mem_used_bytes=600e6,
        mem_total_bytes=2e9,
        disk_read_bytes=100e3,
        disk_write_bytes=300e3,
        net_rx_bytes=2e6,
        net_tx_bytes=3e6,
        requests=280.0,
        capacity_cycles=2 * 2.8e9 * 2.0,
        rng=np.random.default_rng(5),
        virtualized=virtualized,
    )


class TestCatalogueCounts:
    def test_paper_totals(self, registry):
        # Section 3: "In total, 518 metrics are profiled, i.e., 182 for
        # the hypervisor and 182 for VMs by sysstat and 154 for
        # performance counters by perf".
        assert len(registry) == TOTAL_METRIC_COUNT == 518
        counts = registry.counts_by_source()
        assert counts["sysstat-hypervisor"] == SYSSTAT_METRIC_COUNT == 182
        assert counts["sysstat-vm"] == 182
        assert counts["perf"] == PERF_METRIC_COUNT == 154

    def test_sysstat_names_unique_within_source(self):
        metrics = sysstat_metrics(MetricSource.SYSSTAT_VM)
        names = [m.name for m in metrics]
        assert len(set(names)) == len(names)

    def test_perf_names_unique(self):
        names = [m.name for m in perf_metrics()]
        assert len(set(names)) == len(names)

    def test_perf_per_core_events(self):
        names = {m.name for m in perf_metrics()}
        for core in range(8):
            assert f"cpu{core}/cycles" in names
            assert f"cpu{core}/instructions" in names


class TestEvaluation:
    def test_all_metrics_evaluate_finite(self, registry):
        inputs = make_inputs(virtualized=True)
        values = registry.evaluate_all(inputs)
        assert len(values) == 518
        for value in values.values():
            assert np.isfinite(value)

    def test_memused_reflects_inputs(self, registry):
        metric = registry.lookup(MetricSource.SYSSTAT_VM, "kbmemused")
        value = metric.evaluate(make_inputs())
        assert value == pytest.approx(600e6 / 1024)

    def test_steal_only_when_virtualized(self, registry):
        metric = registry.lookup(MetricSource.SYSSTAT_VM, "%steal")
        assert metric.evaluate(make_inputs(virtualized=False)) == 0.0
        assert metric.evaluate(make_inputs(virtualized=True)) > 0.0

    def test_cycles_counter_passthrough(self, registry):
        metric = registry.lookup(MetricSource.PERF, "cycles")
        value = metric.evaluate(make_inputs(cpu_cycles=1e9))
        assert value == pytest.approx(1e9, rel=0.2)

    def test_virtualization_reduces_ipc(self, registry):
        metric = registry.lookup(MetricSource.PERF, "instructions")
        bare = metric.evaluate(make_inputs(virtualized=False))
        virt = metric.evaluate(make_inputs(virtualized=True))
        assert virt < bare

    def test_virtualization_raises_tlb_misses(self, registry):
        metric = registry.lookup(MetricSource.PERF, "dTLB-load-misses")
        bare = metric.evaluate(make_inputs(virtualized=False))
        virt = metric.evaluate(make_inputs(virtualized=True))
        assert virt > bare

    def test_idle_complement_of_utilization(self, registry):
        metric = registry.lookup(
            MetricSource.SYSSTAT_HYPERVISOR, "%idle"
        )
        idle = metric.evaluate(make_inputs(cpu_cycles=0.0))
        assert idle == pytest.approx(100.0)

    def test_network_rate_scales_with_bytes(self, registry):
        metric = registry.lookup(MetricSource.SYSSTAT_VM, "rxkB/s")
        value = metric.evaluate(make_inputs())
        assert value == pytest.approx(2e6 / 1024 / 2.0, rel=0.2)

    def test_lookup_unknown_rejected(self, registry):
        with pytest.raises(UnknownMetricError):
            registry.lookup(MetricSource.PERF, "quantum-flux")


class TestTable1:
    def test_sample_is_subset_of_catalogue(self, registry):
        sample = table1_sample(registry)
        assert len(sample) == 25
        for metric in sample:
            assert registry.lookup(metric.source, metric.name) is metric

    def test_sample_covers_all_three_collectors(self, registry):
        sources = {m.source for m in table1_sample(registry)}
        assert sources == {
            MetricSource.SYSSTAT_HYPERVISOR,
            MetricSource.SYSSTAT_VM,
            MetricSource.PERF,
        }

    def test_descriptions_nonempty(self, registry):
        for metric in table1_sample(registry):
            assert metric.description


class TestDrawBatching:
    """The column path is bit-identical to per-tick scalar evaluation.

    The recorder evaluates a block of ticks at once: it notes each
    probe's fixed draw schedule without drawing, draws the block's
    noise tick by tick through the schedule's array segments, and calls
    every derivation once on per-tick arrays, one noise column per
    draw.  numpy Generator array fills consume the bit stream
    element-wise exactly like sequential scalar calls, and the
    element-wise clamps keep the builtins' tie rules, so the column
    path must reproduce per-tick ``evaluate_all`` value for value and
    leave the generator at the same stream position.
    """

    #: Per tick: cpu_cycles, mem_used, mem_total, disk_read, disk_write,
    #: net_rx, capacity.  The rows hit every clamp: utilization above 1
    #: and at zero capacity, used memory above the total and a zero
    #: total, disk rates past the %util / %iowait caps, a tiny negative
    #: counter (validate_monotonic allows -1e-9) and a signed zero.
    TICKS = (
        (1.4e9, 600e6, 2e9, 100e3, 300e3, 2e6, 11.2e9),
        (2.5e10, 700e6, 2e9, 1e3, 1e3, 1e6, 11.2e9),
        (0.0, 0.0, 2e9, 0.0, 0.0, -0.0, 11.2e9),
        (1.0e9, 3e9, 2e9, 5e8, 4e8, 3e6, 0.0),
        (9.0e8, 500e6, 0.0, -1e-10, 2e3, 5e5, 22.4e9),
    )

    @staticmethod
    def _source(virtualized):
        return (
            MetricSource.SYSSTAT_VM
            if virtualized
            else MetricSource.SYSSTAT_HYPERVISOR
        )

    def _scalar_rows(self, registry, virtualized, rng):
        rows = []
        for cpu, used, total, read, write, rx, capacity in self.TICKS:
            d = make_inputs(virtualized=virtualized, cpu_cycles=cpu)
            d.mem_used_bytes, d.mem_total_bytes = used, total
            d.disk_read_bytes, d.disk_write_bytes = read, write
            d.net_rx_bytes, d.capacity_cycles = rx, capacity
            d.rng = rng
            values = registry.evaluate_all(d, self._source(virtualized))
            values.update(registry.evaluate_all(d, MetricSource.PERF))
            rows.append(list(values.values()))
        return np.array(rows)

    def _block_inputs(self, virtualized):
        cpu, used, total, read, write, rx, capacity = (
            np.array(column) for column in zip(*self.TICKS)
        )
        requests = np.full(len(self.TICKS), 280.0)
        return SampleInputs(
            interval_s=2.0, cpu_cycles=cpu, mem_used_bytes=used,
            mem_total_bytes=total, disk_read_bytes=read,
            disk_write_bytes=write, net_rx_bytes=rx,
            net_tx_bytes=np.full(len(self.TICKS), 3e6), requests=requests,
            capacity_cycles=capacity, rng=None, virtualized=virtualized,
        )

    @pytest.mark.parametrize("virtualized", [True, False])
    def test_column_path_matches_scalar_stream(self, registry, virtualized):
        triples = registry.compiled(self._source(virtualized)) + (
            registry.compiled(MetricSource.PERF)
        )
        r_scalar = np.random.default_rng(77)
        scalar = self._scalar_rows(registry, virtualized, r_scalar)

        block = self._block_inputs(virtualized)
        recorder = ScheduleRecorder()
        block.feed = recorder
        for _, _, derive in triples:
            derive(block)
        schedule = DrawSchedule(recorder.schedule)
        r_column = np.random.default_rng(77)
        noise = np.empty((len(self.TICKS), schedule.size))
        for row in noise:
            schedule.fill_row(r_column, row)
        block.feed = feed = ColumnFeed(schedule.clamp(noise))
        columns = np.empty((len(triples), len(self.TICKS)))
        for i, (_, _, derive) in enumerate(triples):
            columns[i] = derive(block)
        # every column was handed out, none left over
        assert feed.pos == schedule.size
        # bitwise, so a signed zero or a NaN tie rule would show
        assert columns.T.tobytes() == scalar.tobytes()
        # both generators are at the same stream position afterwards
        assert r_scalar.random() == r_column.random()

    def test_schedule_groups_consecutive_draws(self, registry):
        recorder = ScheduleRecorder()
        inputs = make_inputs(virtualized=True)
        inputs.feed = recorder
        for _, _, derive in registry.compiled(MetricSource.SYSSTAT_VM):
            derive(inputs)
        schedule = DrawSchedule(recorder.schedule)
        # hundreds of draws collapse into a handful of array segments
        assert schedule.size > 100
        assert len(schedule.segments) < 25
        # recording draws nothing from the stream
        assert inputs.rng.random() == np.random.default_rng(5).random()


class TestElementwiseHelpers:
    """``elem_min``/``elem_max`` keep the builtins' tie rules."""

    CASES = [(0.0, -0.0), (-0.0, 0.0), (0.0, float("nan")),
             (float("nan"), 0.0), (1.0, 2.0), (2.0, 1.0), (1.0, 1.0)]

    @pytest.mark.parametrize("a,b", CASES)
    def test_scalar_and_array_match_builtins(self, a, b):
        for helper, builtin in ((elem_min, min), (elem_max, max)):
            expected = np.float64(builtin(a, b)).tobytes()
            assert np.float64(helper(a, b)).tobytes() == expected
            got = helper(np.array([a]), np.array([b]))
            assert got.tobytes() == expected
