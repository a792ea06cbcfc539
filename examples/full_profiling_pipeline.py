"""The full 518-metric profiling pipeline with trace export.

Reproduces the paper's measurement methodology end to end: sysstat-
style collectors in the hypervisor and the VMs plus perf counters — 518
metrics sampled every 2 seconds — then exports the core resource traces
to CSV/JSON for downstream tooling.  It asserts that the 60 s run logged
30 rows of 1,008 finite metric values (web and db VMs and dom0, each
182 sysstat fields plus 154 perf counters).

Run:  python examples/full_profiling_pipeline.py [output_dir]
"""

import math
import sys
import tempfile
from pathlib import Path

from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import scenario
from repro.experiments.tables import render_table1
from repro.monitoring.export import write_trace_csv, write_trace_json
from repro.monitoring.registry import (
    PERF_METRIC_COUNT,
    SYSSTAT_METRIC_COUNT,
    build_registry,
)
from repro.units import SAMPLE_PERIOD_S


def main() -> None:
    output_dir = Path(
        sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="repro-")
    )
    output_dir.mkdir(parents=True, exist_ok=True)

    registry = build_registry()
    print(render_table1(registry))

    spec = scenario("virtualized", "bidding", duration_s=60.0)
    print(f"\nprofiling {spec.name} with the full registry enabled ...")
    result = run_scenario(spec, collect_full_registry=True, registry=registry)

    print(
        f"collected {len(result.full_rows)} wide samples; the first row "
        f"has {len(result.full_rows[0]) - 1} metric columns"
    )
    # Three collectors (web VM, db VM, dom0), each logging its sysstat
    # fields plus the perf counters, once per sampling period.
    expected_rows = round(spec.duration_s / SAMPLE_PERIOD_S)
    expected_metrics = 3 * (SYSSTAT_METRIC_COUNT + PERF_METRIC_COUNT)
    assert len(result.full_rows) == expected_rows, len(result.full_rows)
    for row in result.full_rows:
        values = [value for key, value in row.items() if key != "time_s"]
        assert len(values) == expected_metrics, len(values)
        assert all(math.isfinite(value) for value in values)
    some = [
        "web|sysstat-vm/%user",
        "web|sysstat-vm/kbmemused",
        "web|perf/cycles",
        "dom0|sysstat-hypervisor/rxkB/s",
    ]
    last = result.full_rows[-1]
    for key in some:
        print(f"  {key:<36s} = {last[key]:.4g}")

    csv_path = output_dir / "traces.csv"
    json_path = output_dir / "traces.json"
    write_trace_csv(result.traces, str(csv_path))
    write_trace_json(result.traces, str(json_path))
    print(f"\ncore traces exported to:\n  {csv_path}\n  {json_path}")


if __name__ == "__main__":
    main()
