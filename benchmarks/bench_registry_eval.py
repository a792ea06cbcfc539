"""P2 — bulk metric evaluation and telemetry container throughput.

Isolates the monitoring layer from the DES: how many of the paper's
518 metrics can be derived per second, one interval at a time through
``evaluate_all`` (the scalar path) and as the trace recorder does it,
column-wise once per block of ticks; and how fast the storage
primitives are — ``TimeSeries`` appends / view reads and
``ColumnarRows`` row appends.  Rates land in ``extra_info`` for the
BENCH trajectory.

Quick mode: ``REPRO_BENCH_QUICK=1`` shrinks the iteration counts.
"""

import os
import time

import numpy as np

from repro.monitoring.columnar import ColumnarRows
from repro.monitoring.metric import MetricSource, SampleInputs
from repro.monitoring.probes import Probe, RawCounters
from repro.monitoring.registry import build_registry
from repro.monitoring.sampler import FLUSH_TICKS, TraceRecorder
from repro.monitoring.timeseries import TimeSeries
from repro.sim.engine import Simulator

QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip() in ("1", "true", "yes")

EVAL_ROUNDS = 20 if QUICK else 400
#: Recorder ticks of the column-path row: whole blocks plus a remainder
#: that ``stop()`` flushes.
TICKS = 2 * FLUSH_TICKS + 32 if QUICK else 15 * FLUSH_TICKS + 40
APPENDS = 5_000 if QUICK else 100_000
VIEW_READS = 2_000 if QUICK else 50_000


def _inputs(rng) -> SampleInputs:
    """One representative virtualized-VM sampling interval."""
    return SampleInputs(
        interval_s=2.0,
        cpu_cycles=2.1e9,
        mem_used_bytes=900e6,
        mem_total_bytes=2048e6,
        disk_read_bytes=1.2e6,
        disk_write_bytes=2.5e6,
        net_rx_bytes=3.1e6,
        net_tx_bytes=9.8e6,
        requests=280.0,
        capacity_cycles=2.8e9 * 2 * 2.0,
        rng=rng,
        virtualized=True,
    )


def test_registry_bulk_evaluation(benchmark):
    """Compiled evaluate_all over the VM sysstat + perf catalogues."""
    registry = build_registry()
    rng = np.random.default_rng(123)

    def run():
        inputs = _inputs(rng)
        start = time.perf_counter()
        n = 0
        for _ in range(EVAL_ROUNDS):
            n += len(registry.evaluate_all(inputs, MetricSource.SYSSTAT_VM))
            n += len(registry.evaluate_all(inputs, MetricSource.PERF))
        return n, time.perf_counter() - start

    n_metrics, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["metrics_evaluated"] = n_metrics
    benchmark.extra_info["metrics_per_s"] = round(n_metrics / elapsed)
    # A virtualized tick logs 1,008 metrics (web, db and dom0): the
    # comparison for test_registry_column_flush's ms_per_tick.
    benchmark.extra_info["ms_per_1008_metrics"] = round(
        1008 * elapsed / n_metrics * 1e3, 4
    )
    print(f"\nregistry eval: {n_metrics / elapsed:,.0f} metrics/s")
    assert n_metrics == EVAL_ROUNDS * (182 + 154)


class _SteadyProbe(Probe):
    """Counters that advance by one busy interval's worth per snapshot."""

    def __init__(self, entity: str, virtualized: bool) -> None:
        self.entity = entity
        self.virtualized = virtualized
        self.mem_total_bytes = 2048e6
        self.capacity_cycles_per_s = 2.8e9 * 2
        self._snapshots = 0

    def snapshot(self) -> RawCounters:
        self._snapshots += 1
        n = self._snapshots
        return RawCounters(
            2.1e9 * n, 900e6, 1.2e6 * n, 2.5e6 * n, 3.1e6 * n, 9.8e6 * n,
            280.0 * n,
        )


def test_registry_column_flush(benchmark):
    """The recorder's full-registry cost per tick on the column path.

    Two VM probes and a dom0 probe (1,008 metric columns) sampled for
    ``TICKS`` ticks into a columnar table: the ticks store counter
    deltas, and the registry is evaluated once per block of
    ``FLUSH_TICKS`` ticks inside the tick, with the remainder in
    ``stop()``.  ``ms_per_tick`` covers ticks plus flushes.
    """
    registry = build_registry()

    def run():
        sim = Simulator()
        recorder = TraceRecorder(
            sim,
            [
                _SteadyProbe("web", True),
                _SteadyProbe("db", True),
                _SteadyProbe("dom0", False),
            ],
            "virtualized",
            "browsing",
            registry=registry,
            collect_full_registry=True,
            rng=np.random.default_rng(123),
            columnar_rows=True,
        )
        start = time.perf_counter()
        sim.run_until(2.0 * TICKS)
        recorder.stop()
        return recorder.columnar, time.perf_counter() - start

    table, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    values = len(table) * (len(table.columns) - 1)
    benchmark.extra_info["ticks"] = len(table)
    benchmark.extra_info["ms_per_tick"] = round(elapsed / len(table) * 1e3, 4)
    benchmark.extra_info["metrics_per_s"] = round(values / elapsed)
    print(
        f"\nregistry column path: {elapsed / len(table) * 1e3:.3f} ms per "
        f"tick over {len(table)} ticks ({values / elapsed:,.0f} metrics/s)"
    )
    assert len(table) == TICKS
    assert len(table.columns) == 1 + 1008


def test_timeseries_append_and_views(benchmark):
    """Amortized buffer appends plus O(1) cached-view reads."""

    def run():
        start = time.perf_counter()
        series = TimeSeries("bench")
        for i in range(APPENDS):
            series.append(2.0 * i, float(i))
        append_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        total = 0.0
        for _ in range(VIEW_READS):
            total += float(series.values[-1]) + float(series.times[0])
        view_elapsed = time.perf_counter() - start
        return append_elapsed, view_elapsed, total

    append_elapsed, view_elapsed, _ = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    benchmark.extra_info["appends_per_s"] = round(APPENDS / append_elapsed)
    benchmark.extra_info["view_reads_per_s"] = round(VIEW_READS / view_elapsed)
    print(
        f"\ntimeseries: {APPENDS / append_elapsed:,.0f} appends/s, "
        f"{VIEW_READS / view_elapsed:,.0f} view reads/s (n={APPENDS})"
    )


def test_columnar_rows_append(benchmark):
    """Wide-row storage: one 1008-column sample per simulated tick."""
    columns = ["time_s"] + [f"m{i}" for i in range(1008)]
    rows = 200 if QUICK else 2_000
    payload = [float(i) for i in range(len(columns))]

    def run():
        table = ColumnarRows(columns)
        start = time.perf_counter()
        for i in range(rows):
            payload[0] = float(i)
            table.append_row(payload)
        return table, time.perf_counter() - start

    table, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["cells_per_s"] = round(
        rows * len(columns) / elapsed
    )
    print(
        f"\ncolumnar: {rows} x {len(columns)} cells in {elapsed:.3f}s "
        f"-> {rows * len(columns) / elapsed:,.0f} cells/s"
    )
    assert len(table) == rows
    assert float(table.column("m0")[0]) == 1.0
