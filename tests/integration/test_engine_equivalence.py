"""Classic vs batched engine: pinned baselines and equivalence in distribution.

The batched engine (PERFORMANCE.md "Epoch 2") trades bitwise identity
for array-native throughput.  This harness is the contract that makes
the trade safe:

* the classic engine stays **bit-identical** to its pinned epoch-1
  fingerprints (``tests/baselines/engine_fingerprints.json``, written
  by ``scripts/rebaseline.py``),
* the batched engine is **self-deterministic** (same pinned-fingerprint
  treatment, fresh process each time), on the paper cells and on the
  path cells that exercise faults, budgeted admission, request tracing
  and live migration; the classic engine is bit-stable on the same path
  cells,
* the full 518-metric registry of three runs (one per collector set,
  one resized by a controller mid-run) is pinned by its columnar
  matrix,
* three open-loop runs on both engines (no budget, an MMPP flash crowd,
  retries inside the drain tick) are pinned with their admission
  counters and offered-arrival trace,
* at matched seeds the two engines are **equivalent in distribution**:
  two-sample KS on response times, relative-error bounds on
  throughput / utilization / CPU-ready aggregates, and per-figure
  series-mean ratios, across the paper's 4-run matrix and the
  open-loop poisson cell.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.experiments.baseline import (
    admission_cells,
    admission_fingerprint,
    baseline_scenarios,
    ks_statistic,
    ks_threshold,
    load_fingerprints,
    matrix_cells,
    path_cells,
    registry_cells,
    registry_fingerprint,
    relative_error,
    result_fingerprint,
    run_registry_cell,
    series_mean_ratio,
)
from repro.experiments.runner import run_scenario

ROOT = Path(__file__).resolve().parent.parent.parent

CLOSED_CELLS = [f"{env}/{comp}" for env, comp in matrix_cells()]
OPEN_CELL = "virtualized/browsing/poisson"
ALL_CELLS = CLOSED_CELLS + [OPEN_CELL]
PATH_CELLS = list(path_cells())
REGISTRY_CELLS = list(registry_cells())
ADMISSION_CELLS = list(admission_cells())

#: Figure resources compared per entity (the four per-panel series the
#: paper's figures plot).
FIGURE_RESOURCES = ("cpu_cycles", "mem_used_mb", "disk_kb", "net_kb")


@pytest.fixture(scope="module")
def pinned():
    return load_fingerprints(ROOT)


@pytest.fixture(scope="module")
def classic_results():
    return {
        cell: run_scenario(spec)
        for cell, spec in baseline_scenarios("classic").items()
    }


@pytest.fixture(scope="module")
def batched_results():
    return {
        cell: run_scenario(spec)
        for cell, spec in baseline_scenarios("batched").items()
    }


class TestPinnedFingerprints:
    """Both engines reproduce their pinned baselines bit-for-bit."""

    @pytest.mark.parametrize("cell", ALL_CELLS)
    def test_classic_bit_stable(self, pinned, classic_results, cell):
        assert (
            result_fingerprint(classic_results[cell])
            == pinned["engines"]["classic"][cell]
        ), (
            f"classic fingerprint drifted for {cell} — the bit-stable "
            "engine moved; fix the regression (do NOT rebaseline)"
        )

    @pytest.mark.parametrize("cell", ALL_CELLS)
    def test_batched_self_deterministic(self, pinned, batched_results, cell):
        assert (
            result_fingerprint(batched_results[cell])
            == pinned["engines"]["batched"][cell]
        ), (
            f"batched fingerprint drifted for {cell} — either a "
            "determinism bug, or a deliberate epoch change that needs "
            "scripts/rebaseline.py plus a PERFORMANCE.md note"
        )

    @pytest.mark.parametrize("cell", PATH_CELLS)
    def test_batched_paths_self_deterministic(self, pinned, cell):
        result = run_scenario(path_cells()[cell])
        assert result_fingerprint(result) == pinned["batched_paths"][cell], (
            f"batched path fingerprint drifted for {cell} — either a "
            "determinism bug, or a deliberate epoch change that needs "
            "scripts/rebaseline.py plus a PERFORMANCE.md note"
        )

    @pytest.mark.parametrize("cell", PATH_CELLS)
    def test_classic_paths_bit_stable(self, pinned, cell):
        spec = path_cells("classic")[cell]
        assert spec.engine == "classic"
        result = run_scenario(spec)
        assert result_fingerprint(result) == pinned["classic_paths"][cell], (
            f"classic path fingerprint drifted for {cell} — a hop cached a "
            "device parameter or missed a rebind; fix the regression "
            "(do NOT rebaseline)"
        )

    @pytest.mark.parametrize("cell", REGISTRY_CELLS)
    def test_registry_pins(self, pinned, cell):
        result = run_registry_cell(registry_cells()[cell])
        if cell == "autoscaled_flash_crowd":
            # The cell exists to move the probes' memory total and
            # cycle capacity between ticks.
            actions = result.control_reports["control"]["actions_by_kind"]
            assert result.control_reports["control"]["num_actions"] > 0
            assert actions.get("set_vcpus", 0) > 0
            assert actions.get("balloon", 0) > 0
        assert registry_fingerprint(result) == pinned["registry"][cell], (
            f"registry fingerprint drifted for {cell} — a registry "
            "value moved; fix the regression (do NOT rebaseline)"
        )

    @pytest.mark.parametrize("cell", ADMISSION_CELLS)
    def test_admission_pins(self, pinned, cell):
        result = run_scenario(admission_cells()[cell])
        report = result.traffic_report
        if "/retry" in cell or cell.startswith("flash_crowd/"):
            # The budget binds, so the cell pins the gate, not only
            # the arrivals.
            assert report["shed"] > 0
        if "/retry" in cell:
            assert report["retried"] > 0
        assert admission_fingerprint(result) == pinned["admission"][cell], (
            f"admission fingerprint drifted for {cell} — an admission "
            "decision or an offered arrival moved; fix the regression "
            "(do NOT rebaseline)"
        )


class TestDistributionalEquivalence:
    """At matched seeds the engines agree in distribution."""

    @pytest.mark.parametrize("cell", ALL_CELLS)
    def test_response_time_ks(self, classic_results, batched_results, cell):
        a = np.asarray(classic_results[cell].client_stats.response_times_s)
        b = np.asarray(batched_results[cell].client_stats.response_times_s)
        statistic = ks_statistic(a, b)
        # 4x the alpha=1e-3 critical value: generous headroom over
        # seed-to-seed sampling noise while still rejecting any
        # structural shift (the pre-fix per-device-frontier bug sat at
        # D ~ 0.9 on this test).
        bound = 4.0 * ks_threshold(a.size, b.size, alpha=1e-3)
        assert statistic < bound, (
            f"{cell}: KS={statistic:.4f} exceeds {bound:.4f} "
            f"(n={a.size}, m={b.size})"
        )

    @pytest.mark.parametrize("cell", ALL_CELLS)
    def test_throughput_and_latency_close(
        self, classic_results, batched_results, cell
    ):
        classic = classic_results[cell]
        batched = batched_results[cell]
        assert (
            relative_error(classic.throughput_rps, batched.throughput_rps)
            < 0.05
        )
        assert (
            relative_error(
                classic.mean_response_time_s, batched.mean_response_time_s
            )
            < 0.15
        )

    @pytest.mark.parametrize("cell", CLOSED_CELLS)
    def test_figure_series_ratios(
        self, classic_results, batched_results, cell
    ):
        classic = classic_results[cell]
        batched = batched_results[cell]
        for entity in classic.traces.entities():
            for resource in FIGURE_RESOURCES:
                ratio = series_mean_ratio(classic, batched, entity, resource)
                assert 0.85 < ratio < 1.18, (
                    f"{cell} {entity}/{resource}: batched/classic series "
                    f"mean ratio {ratio:.3f} out of bounds"
                )

    def test_cpu_ready_close(self, classic_results, batched_results):
        for cell in ("virtualized/browsing", "virtualized/bidding"):
            classic = classic_results[cell]
            batched = batched_results[cell]
            for domain in ("web", "db"):
                ready_c = classic.cpu_ready_seconds(domain)
                ready_b = batched.cpu_ready_seconds(domain)
                assert relative_error(ready_c, ready_b) < 0.25, (
                    f"{cell} {domain}: ready {ready_c:.3f}s vs "
                    f"{ready_b:.3f}s"
                )

    def test_open_loop_arrivals_bit_identical(
        self, classic_results, batched_results
    ):
        # The offered workload shares the classic arrival stream, so
        # the metered arrival trace must match exactly — the engines
        # differ only in how the lifecycle executes.
        classic = classic_results[OPEN_CELL]
        batched = batched_results[OPEN_CELL]
        assert np.array_equal(
            classic.arrival_trace.rates_rps, batched.arrival_trace.rates_rps
        )
        assert (
            classic.traffic_report["offered"]
            == batched.traffic_report["offered"]
        )
        assert (
            classic.traffic_report["admitted"]
            == batched.traffic_report["admitted"]
        )
