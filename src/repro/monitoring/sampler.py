"""The trace recorder: the paper's 2-second sampling loop.

Every ``interval_s`` (default 2 s, the "Time(Sample 2s)" of all eight
figures) the recorder snapshots each probe, differences the counters,
and appends to the core resource series:

* ``cpu_cycles``  — cycles consumed in the interval (Figures 1/5),
* ``mem_used_mb`` — used memory level in MB (Figures 2/6),
* ``disk_kb``     — disk KB read+written in the interval (Figures 3/7),
* ``net_kb``      — network KB received+transmitted (Figures 4/8).

Optionally it also evaluates the full 518-metric registry for every
interval (``collect_full_registry=True``), producing the wide rows a
real sysstat+perf deployment would log.

The registry is evaluated column-wise.  A tick only stores each
probe's counter delta, memory total and cycle capacity, the last two
as they are at that tick (a controller may hotplug VCPUs or balloon
memory before the next one).  The pending ticks are evaluated as one
block every :data:`FLUSH_TICKS` ticks, in :meth:`TraceRecorder.stop`,
and when ``full_rows`` or ``columnar`` is read.  A flush draws the
block's noise tick by tick, then probe by probe, through each probe's
:class:`~repro.monitoring.metric.DrawSchedule` (the order the
per-interval derivations draw it in), then calls each compiled
derivation once on per-tick arrays, handing out one noise column per
draw.  The recorder is the only reader of its ``rng``, so when a block
is flushed changes no value.

Everything resolvable at construction time is resolved then: per-probe
``(probe, snapshot, append, ...)`` bindings replace per-tick dict
lookups, and the registry is compiled into flat per-probe ``(column,
name, derive)`` lists with the ``entity|qualified_name`` column labels
prebuilt.  With ``columnar_rows=True`` the full-registry samples go to
a :class:`~repro.monitoring.columnar.ColumnarRows` table instead of one
dict per tick.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import MonitoringError
from repro.monitoring.columnar import ColumnarRows
from repro.monitoring.metric import (
    ColumnFeed,
    DrawSchedule,
    MetricSource,
    SampleInputs,
    ScheduleRecorder,
)
from repro.monitoring.probes import Probe, RawCounters
from repro.monitoring.registry import MetricRegistry
from repro.monitoring.timeseries import TimeSeries, TraceSet
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.units import KB, MB, SAMPLE_PERIOD_S

#: The four resource classes of the paper, with units.
CORE_RESOURCES = (
    ("cpu_cycles", "cycles/sample"),
    ("mem_used_mb", "MB"),
    ("disk_kb", "KB/sample"),
    ("net_kb", "KB/sample"),
)

#: Pending ticks a full-registry recorder evaluates as one block.  The
#: block bounds the noise and value matrices on long horizons.
FLUSH_TICKS = 64


class TraceRecorder:
    """Samples a set of probes into a :class:`TraceSet`."""

    def __init__(
        self,
        sim: Simulator,
        probes: Sequence[Probe],
        environment: str,
        workload: str,
        interval_s: float = SAMPLE_PERIOD_S,
        registry: Optional[MetricRegistry] = None,
        collect_full_registry: bool = False,
        rng=None,
        columnar_rows: bool = False,
    ) -> None:
        if not probes:
            raise MonitoringError("TraceRecorder needs at least one probe")
        names = [probe.entity for probe in probes]
        if len(set(names)) != len(names):
            raise MonitoringError(f"duplicate probe entities: {names}")
        self.sim = sim
        self.probes = list(probes)
        self.interval_s = float(interval_s)
        self.registry = registry
        self.collect_full_registry = collect_full_registry
        if collect_full_registry and registry is None:
            raise MonitoringError(
                "collect_full_registry=True requires a registry"
            )
        if collect_full_registry and rng is None:
            raise MonitoringError("collect_full_registry=True requires an rng")
        if columnar_rows and not collect_full_registry:
            raise MonitoringError(
                "columnar_rows=True requires collect_full_registry=True"
            )
        self.rng = rng
        self.traces = TraceSet(environment, workload, self.interval_s)
        for probe in self.probes:
            for resource, unit in CORE_RESOURCES:
                self.traces.add(
                    probe.entity,
                    resource,
                    TimeSeries(f"{probe.entity}:{resource}", unit),
                )
        # Pre-bind everything _tick needs per probe: the snapshot callable
        # and the four series append methods (zero dict lookups per tick).
        self._bound = [
            (
                probe,
                probe.snapshot,
                self.traces.get(probe.entity, "cpu_cycles").append,
                self.traces.get(probe.entity, "mem_used_mb").append,
                self.traces.get(probe.entity, "disk_kb").append,
                self.traces.get(probe.entity, "net_kb").append,
            )
            for probe in self.probes
        ]
        self._previous: List[RawCounters] = [
            probe.snapshot() for probe in self.probes
        ]
        # Per-probe compiled registry: (column_label, name, derive) with
        # "entity|source/name" labels prebuilt; sysstat source first,
        # then perf, matching per-source evaluation order.
        self._compiled: List[tuple] = []
        if collect_full_registry:
            for probe in self.probes:
                entity = probe.entity
                source = self._source_for(probe)
                triples = [
                    (f"{entity}|{qualified}", name, derive)
                    for qualified, name, derive in (
                        registry.compiled(source)
                        + registry.compiled(MetricSource.PERF)
                    )
                ]
                self._compiled.append(tuple(triples))
        self._labels = ["time_s"]
        self._names = ["time_s"]
        for triples in self._compiled:
            self._labels.extend(label for label, _, _ in triples)
            self._names.extend(name for _, name, _ in triples)
        # Per-probe noise-draw schedules, recorded at the first flush.
        self._schedules: Optional[List[DrawSchedule]] = None
        # Ticks not yet evaluated: their times, and per probe one
        # (delta, mem_total_bytes, capacity_cycles_per_s) per tick.
        self._pending_times: List[float] = []
        self._pending: List[list] = [[] for _ in self._compiled]
        self._full_rows: List[Dict[str, float]] = []
        self._columnar: Optional[ColumnarRows] = (
            ColumnarRows(self._labels) if columnar_rows else None
        )
        self._process = PeriodicProcess(
            sim, self.interval_s, self._tick, priority=30, name="trace-recorder"
        ).start()
        self.samples_taken = 0

    @property
    def full_rows(self) -> List[Dict[str, float]]:
        """Registry samples as one dict per tick (empty when columnar)."""
        self._flush()
        return self._full_rows

    @property
    def columnar(self) -> Optional[ColumnarRows]:
        """Registry samples as a table (None unless ``columnar_rows``)."""
        self._flush()
        return self._columnar

    def _tick(self, tick_time: float) -> None:
        self.samples_taken += 1
        previous = self._previous
        collect = self.collect_full_registry
        pending = self._pending
        for i, (probe, snapshot, cpu_append, mem_append, disk_append,
                net_append) in enumerate(self._bound):
            current = snapshot()
            delta = current.delta(previous[i])
            delta.validate_monotonic()
            previous[i] = current
            cpu_append(tick_time, delta.cpu_cycles)
            mem_append(tick_time, delta.mem_used_bytes / MB)
            disk_append(
                tick_time,
                (delta.disk_read_bytes + delta.disk_write_bytes) / KB,
            )
            net_append(
                tick_time, (delta.net_rx_bytes + delta.net_tx_bytes) / KB
            )
            if collect:
                pending[i].append(
                    (delta, probe.mem_total_bytes,
                     probe.capacity_cycles_per_s)
                )
        if collect:
            times = self._pending_times
            times.append(tick_time)
            if len(times) == FLUSH_TICKS:
                self._flush()

    def _flush(self) -> None:
        """Evaluate the registry over every pending tick as one block."""
        times = self._pending_times
        if not times:
            return
        blocks = [
            self._block_inputs(probe, rows)
            for probe, rows in zip(self.probes, self._pending)
        ]
        if self._schedules is None:
            self._schedules = [
                self._record_schedule(triples, inputs)
                for triples, inputs in zip(self._compiled, blocks)
            ]
        schedules = self._schedules
        noise = [np.empty((len(times), s.size)) for s in schedules]
        rng = self.rng
        for t in range(len(times)):
            for schedule, draws in zip(schedules, noise):
                schedule.fill_row(rng, draws[t])
        values = np.empty((len(self._labels), len(times)))
        values[0] = times
        column = 1
        for probe, triples, schedule, draws, inputs in zip(
            self.probes, self._compiled, schedules, noise, blocks
        ):
            inputs.feed = feed = ColumnFeed(schedule.clamp(draws))
            for _, _, derive in triples:
                values[column] = derive(inputs)
                column += 1
            if feed.pos != schedule.size:
                raise MonitoringError(
                    f"probe {probe.entity!r}: noise-draw schedule "
                    f"drifted ({feed.pos} draws, expected {schedule.size})"
                )
        rows = values.T
        finite = np.isfinite(rows)
        if not finite.all():
            # Row-major: the first tick's first bad column, the metric
            # a per-tick evaluation would have stopped at.
            _, bad = np.argwhere(~finite)[0]
            raise MonitoringError(
                f"metric {self._names[bad]!r} produced a non-finite value"
            )
        if self._columnar is not None:
            self._columnar.append_rows(rows)
        else:
            labels = self._labels
            self._full_rows.extend(
                dict(zip(labels, row)) for row in rows.tolist()
            )
        times.clear()
        for pending in self._pending:
            pending.clear()

    def _block_inputs(self, probe: Probe, rows: list) -> SampleInputs:
        """One probe's pending ticks as per-tick arrays."""
        (cpu_cycles, mem_used, disk_read, disk_write, net_rx, net_tx,
         requests, mem_total, capacity) = np.array(
            [
                (delta.cpu_cycles, delta.mem_used_bytes,
                 delta.disk_read_bytes, delta.disk_write_bytes,
                 delta.net_rx_bytes, delta.net_tx_bytes, delta.requests,
                 mem_total, capacity)
                for delta, mem_total, capacity in rows
            ],
            dtype=float,
        ).T.copy()
        return SampleInputs(
            interval_s=self.interval_s,
            cpu_cycles=cpu_cycles,
            mem_used_bytes=mem_used,
            mem_total_bytes=mem_total,
            disk_read_bytes=disk_read,
            disk_write_bytes=disk_write,
            net_rx_bytes=net_rx,
            net_tx_bytes=net_tx,
            requests=requests,
            capacity_cycles=capacity * self.interval_s,
            rng=None,
            virtualized=probe.virtualized,
        )

    @staticmethod
    def _record_schedule(triples: tuple, inputs: SampleInputs) -> DrawSchedule:
        """A probe's draw schedule, noted from one pass that draws nothing."""
        recorder = ScheduleRecorder()
        inputs.feed = recorder
        for _, _, derive in triples:
            derive(inputs)
        return DrawSchedule(recorder.schedule)

    @staticmethod
    def _source_for(probe: Probe) -> MetricSource:
        if probe.entity == "dom0":
            return MetricSource.SYSSTAT_HYPERVISOR
        if probe.virtualized:
            return MetricSource.SYSSTAT_VM
        return MetricSource.SYSSTAT_HYPERVISOR

    def stop(self) -> None:
        self._process.stop()
        self._flush()
