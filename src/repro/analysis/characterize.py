"""One-call workload characterization over a trace set.

``characterize_trace_set`` runs the full Section-4 analysis pipeline on
one run's traces: per-series summary statistics and best-fit marginal
distribution, RAM jump detection per entity, the web->db lag and the R1
ratio vector (each left None when its inputs are constant or zero), and
— when the trace set contains a dom0 entity — the R2 ratio vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.changepoint import LevelShift, detect_level_shifts
from repro.analysis.correlation import LagEstimate, estimate_lag
from repro.analysis.distribution_fit import DistributionFit, best_fit
from repro.analysis.ratios import (
    DEFAULT_WARMUP_S,
    ResourceVector,
    demand_vector,
    tier_ratios,
    vm_to_hypervisor_ratios,
)
from repro.analysis.stats import SummaryStats, summarize
from repro.errors import AnalysisError
from repro.monitoring.timeseries import TraceSet

#: RAM jump detection defaults (MB, samples).
RAM_JUMP_MIN_SHIFT_MB = 50.0
RAM_JUMP_WINDOW = 8
LAG_MAX_SAMPLES = 15


@dataclass
class SeriesCharacterization:
    """Stats + fitted marginal for one series."""

    entity: str
    resource: str
    stats: SummaryStats
    fit: Optional[DistributionFit]


@dataclass
class WorkloadCharacterization:
    """Everything the characterizer extracted from one run."""

    environment: str
    workload: str
    series: Dict[Tuple[str, str], SeriesCharacterization] = field(
        default_factory=dict
    )
    ram_jumps: Dict[str, List[LevelShift]] = field(default_factory=dict)
    web_db_lag: Optional[LagEstimate] = None
    tier_ratio: Optional[ResourceVector] = None
    vm_dom0_ratio: Optional[ResourceVector] = None

    def series_for(self, entity: str, resource: str) -> SeriesCharacterization:
        key = (entity, resource)
        if key not in self.series:
            raise AnalysisError(f"no characterization for {key}")
        return self.series[key]

    def upward_ram_jumps(self, entity: str) -> List[LevelShift]:
        return [s for s in self.ram_jumps.get(entity, []) if s.upward]


def characterize_trace_set(
    traces: TraceSet,
    warmup_s: float = DEFAULT_WARMUP_S,
    ram_jump_min_shift_mb: float = RAM_JUMP_MIN_SHIFT_MB,
    fit_distributions: bool = True,
) -> WorkloadCharacterization:
    """Run the full characterization pipeline on ``traces``."""
    result = WorkloadCharacterization(
        environment=traces.environment, workload=traces.workload
    )
    for (entity, resource), _ in traces.items():
        series = traces.get(entity, resource).without_warmup(warmup_s)
        if len(series) < 2:
            raise AnalysisError(
                f"series {(entity, resource)} too short after warm-up"
            )
        fit = None
        if fit_distributions and len(series) >= 8:
            try:
                fit = best_fit(series)
            except AnalysisError:
                fit = None  # constant or degenerate series
        result.series[(entity, resource)] = SeriesCharacterization(
            entity=entity, resource=resource, stats=summarize(series), fit=fit
        )

    for entity in traces.entities():
        if not traces.has(entity, "mem_used_mb"):
            # Non-resource entities (e.g. the elastic controller's
            # series) have no RAM trace to scan for jumps.
            continue
        ram = traces.get(entity, "mem_used_mb")
        if len(ram) >= 2 * RAM_JUMP_WINDOW + 1:
            result.ram_jumps[entity] = detect_level_shifts(
                ram, ram_jump_min_shift_mb, RAM_JUMP_WINDOW
            )
        else:
            result.ram_jumps[entity] = []

    # The lag and R1 stay None when their inputs carry no signal: a
    # constant CPU series has no correlation peak, and a tier with zero
    # demand leaves R1 undefined (an open-loop run of one-request visits
    # never reaches the database).
    web_cpu = traces.get("web", "cpu_cycles").without_warmup(warmup_s)
    db_cpu = traces.get("db", "cpu_cycles").without_warmup(warmup_s)
    max_lag = min(LAG_MAX_SAMPLES, max(1, len(web_cpu) // 4))
    if (
        len(web_cpu) > max_lag + 1
        and np.ptp(web_cpu.values) > 0
        and np.ptp(db_cpu.values) > 0
    ):
        result.web_db_lag = estimate_lag(
            web_cpu, db_cpu, max_lag, traces.sample_period_s
        )

    if all(demand_vector(traces, "db", warmup_s).as_dict().values()):
        result.tier_ratio = tier_ratios(traces, warmup_s)
    if traces.has("dom0", "cpu_cycles"):
        result.vm_dom0_ratio = vm_to_hypervisor_ratios(traces, warmup_s)
    return result
