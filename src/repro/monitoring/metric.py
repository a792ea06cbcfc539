"""Metric descriptors: what sysstat/perf report and how we derive it.

A :class:`Metric` couples an identity (name, source, kind, unit,
description — what Table 1 of the paper lists) with a derivation
function mapping one sampling interval's raw counter deltas to the
metric's value.  Derivations receive a :class:`SampleInputs` with the
interval deltas, machine constants and a noise stream, mirroring how
sysstat computes rates from successive ``/proc`` snapshots.

A :class:`SampleInputs` holds either one interval (float fields, noise
drawn from ``rng`` one scalar at a time) or a block of intervals (one
array per field, one element per tick, noise handed out by a
:class:`ColumnFeed`).  Derivations are written once for both: they use
only arithmetic and the element-wise :func:`elem_min` /
:func:`elem_max`, which keep the builtins' tie rules, so a block
evaluation returns exactly the values the per-interval calls would.

A probe's noise draws form a fixed sequence (which draws a derivation
makes depends only on ``virtualized``).  :class:`ScheduleRecorder`
notes that sequence once without drawing, :class:`DrawSchedule` groups
it into a few draw calls and draws a block's noise from the stream in
per-interval order, and :class:`ColumnFeed` hands the block's columns
back to the derivations in the order they ask for them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from math import isfinite
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from repro.errors import MonitoringError


class MetricSource(enum.Enum):
    """Where the paper's three collectors run."""

    SYSSTAT_HYPERVISOR = "sysstat-hypervisor"
    SYSSTAT_VM = "sysstat-vm"
    PERF = "perf"


class MetricKind(enum.Enum):
    """COUNTER metrics are per-interval rates; GAUGE metrics are levels."""

    COUNTER = "counter"
    GAUGE = "gauge"


def elem_min(a, b):
    """``min(a, b)`` element-wise, with the builtin's tie rule.

    ``b`` is taken only where ``b < a``, so ties and NaNs keep ``a``,
    exactly as the builtin does (``np.minimum`` propagates NaN and
    picks signed zeros differently).
    """
    below = b < a
    if below.__class__ is bool:
        return b if below else a
    return np.where(below, b, a)


def elem_max(a, b):
    """``max(a, b)`` element-wise, with the builtin's tie rule.

    ``b`` is taken only where ``b > a``: ``elem_max(0.0, -0.0)`` is
    0.0 like ``max``, where ``np.maximum`` returns -0.0.
    """
    above = b > a
    if above.__class__ is bool:
        return b if above else a
    return np.where(above, b, a)


@dataclass
class SampleInputs:
    """Everything a derivation may consume for one or more intervals.

    The counter fields are floats for one interval, or equal-length
    arrays (one element per tick) for a block of intervals.
    """

    #: Interval length in seconds (the paper's 2 s).
    interval_s: float
    #: CPU cycles executed by the entity in the interval.
    cpu_cycles: float
    #: Used memory level at the sample instant (bytes).
    mem_used_bytes: float
    #: Total memory visible to the entity (bytes).
    mem_total_bytes: float
    #: Disk bytes read / written in the interval.
    disk_read_bytes: float
    disk_write_bytes: float
    #: Network bytes received / transmitted in the interval.
    net_rx_bytes: float
    net_tx_bytes: float
    #: Requests completed in the interval (application events).
    requests: float
    #: Cycles the entity could have executed (capacity).
    capacity_cycles: float
    #: Noise stream for measurement jitter (unused when ``feed`` is set).
    rng: Optional[np.random.Generator]
    #: True when the entity runs virtualized (IPC degradation etc.).
    virtualized: bool = False
    #: Optional noise feed (:class:`ScheduleRecorder` or
    #: :class:`ColumnFeed`); when set, :meth:`jitter` and
    #: :meth:`poisson` take their values from it instead of ``rng``.
    feed: object = None

    # Derived quantities are cached: one SampleInputs describes one
    # immutable snapshot, and hundreds of metric derivations read these.

    @cached_property
    def cpu_utilization(self) -> float:
        """Busy fraction in [0, 1]."""
        capacity = self.capacity_cycles
        if capacity.__class__ is np.ndarray:
            with np.errstate(divide="ignore", invalid="ignore"):
                busy = elem_min(1.0, self.cpu_cycles / capacity)
            return np.where(capacity <= 0, 0.0, busy)
        if capacity <= 0:
            return 0.0
        return min(1.0, self.cpu_cycles / capacity)

    @cached_property
    def disk_bytes(self) -> float:
        return self.disk_read_bytes + self.disk_write_bytes

    @cached_property
    def net_bytes(self) -> float:
        return self.net_rx_bytes + self.net_tx_bytes

    def jitter(self, scale: float = 0.03) -> float:
        """Multiplicative measurement noise around 1."""
        if scale <= 0:
            return 1.0
        feed = self.feed
        if feed is not None:
            return feed.normal(scale)
        draw = self.rng.normal(1.0, scale)
        return float(draw) if draw > 0.0 else 0.0

    def poisson(self, lam: float) -> float:
        """One Poisson count draw (rare-event metrics)."""
        feed = self.feed
        if feed is not None:
            return feed.poisson(lam)
        return float(self.rng.poisson(lam))


class ScheduleRecorder:
    """Noise feed that records the draw schedule and draws nothing.

    Notes each draw's distribution and parameter, and answers with a
    neutral value (1 for a jitter, 0 for a count); the values computed
    from it are thrown away.
    """

    __slots__ = ("schedule",)

    def __init__(self) -> None:
        self.schedule: list = []

    def normal(self, scale: float) -> float:
        self.schedule.append(("normal", scale))
        return 1.0

    def poisson(self, lam: float) -> float:
        self.schedule.append(("poisson", lam))
        return 0.0


#: Same-distribution groups of at most this many draws are drawn one
#: scalar call per draw: an array call's fixed cost (mostly argument
#: checks, about 8 us) buys about a dozen scalar draws.
_SCALAR_RUN = 12


class DrawSchedule:
    """A probe's fixed per-interval draw schedule, as a few draw calls.

    Consecutive same-distribution draws are grouped into one array call
    (``rng.normal(1.0, scales)`` or ``rng.poisson(lams)``), and runs of
    short groups into one list of scalar calls, so one interval's ~400
    draws cost a handful of calls.  Array fills consume the underlying
    bit stream element-wise exactly like sequential scalar draws, so a
    block drawn interval by interval through the segments holds the
    values the scalar ``jitter``/``poisson`` calls would have drawn,
    and leaves the generator at the same position.
    """

    __slots__ = ("segments", "size", "normal")

    def __init__(self, schedule: list) -> None:
        #: ``(start, stop, dist, params)``: ``dist`` "normal" or
        #: "poisson" with a parameter array for one array call, or
        #: "scalar" with a ``(dist, param)`` list drawn call by call.
        self.segments: list = []
        start = 0
        for dist, group in groupby(schedule, key=itemgetter(0)):
            draws = list(group)
            stop = start + len(draws)
            if len(draws) > _SCALAR_RUN:
                params = np.array([param for _, param in draws], dtype=float)
                self.segments.append((start, stop, dist, params))
            elif self.segments and self.segments[-1][2] == "scalar":
                run_start, _, _, run = self.segments.pop()
                self.segments.append((run_start, stop, "scalar", run + draws))
            else:
                self.segments.append((start, stop, "scalar", draws))
            start = stop
        self.size = len(schedule)
        #: Which columns hold jitter draws (the rest are counts).
        self.normal = np.array(
            [dist == "normal" for dist, _ in schedule], dtype=bool
        )

    def fill_row(self, rng: np.random.Generator, row: np.ndarray) -> None:
        """Draw one interval's noise into ``row``, segment by segment."""
        normal, poisson = rng.normal, rng.poisson
        for start, stop, dist, params in self.segments:
            if dist == "normal":
                row[start:stop] = normal(1.0, params)
            elif dist == "poisson":
                row[start:stop] = poisson(params)
            else:
                row[start:stop] = [
                    normal(1.0, param) if kind == "normal" else poisson(param)
                    for kind, param in params
                ]

    def clamp(self, block: np.ndarray) -> np.ndarray:
        """Zero the non-positive jitter draws, as ``jitter`` does."""
        np.copyto(block, 0.0, where=self.normal & ~(block > 0.0))
        return block


class ColumnFeed:
    """Hands out a block's noise, one (ticks,) column per draw, in order."""

    __slots__ = ("columns", "pos")

    def __init__(self, block: np.ndarray) -> None:
        #: (draws x ticks): row ``k`` is draw ``k`` across the block.
        self.columns = block.T
        self.pos = 0

    def _next(self) -> np.ndarray:
        pos = self.pos
        self.pos = pos + 1
        return self.columns[pos]

    def normal(self, scale: float) -> np.ndarray:
        return self._next()

    def poisson(self, lam: float) -> np.ndarray:
        return self._next()


@dataclass(frozen=True)
class Metric:
    """One entry of the profiling catalogue."""

    name: str
    source: MetricSource
    kind: MetricKind
    unit: str
    description: str
    derive: Callable[[SampleInputs], float]

    def evaluate(self, inputs: SampleInputs) -> float:
        """Compute the metric value; non-finite results are an error."""
        value = float(self.derive(inputs))
        if not isfinite(value):
            raise MonitoringError(
                f"metric {self.name!r} produced a non-finite value"
            )
        return value

    @property
    def qualified_name(self) -> str:
        return f"{self.source.value}/{self.name}"
