"""Tests for the one-call characterizer and the text reports.

These run against a real (short) virtualized experiment shared by the
session fixtures.
"""

import numpy as np
import pytest

from repro.analysis.characterize import characterize_trace_set
from repro.analysis.correlation import cross_correlation
from repro.analysis.report import (
    render_characterization_report,
    render_ratio_table,
)
from repro.analysis.ratios import (
    RESOURCES,
    RatioReport,
    ResourceVector,
    tier_ratios,
)
from repro.errors import AnalysisError
from repro.experiments.paper_values import PAPER_R1
from repro.monitoring.timeseries import TimeSeries, TraceSet


@pytest.fixture(scope="module")
def characterization(virt_browse_result):
    return characterize_trace_set(virt_browse_result.traces)


class TestCharacterize:
    def test_all_series_characterized(self, characterization,
                                      virt_browse_result):
        assert set(characterization.series) == set(
            virt_browse_result.traces.keys()
        )

    def test_series_stats_populated(self, characterization):
        item = characterization.series_for("web", "cpu_cycles")
        assert item.stats.mean > 0
        assert item.stats.count > 50

    def test_distribution_fits_where_possible(self, characterization):
        item = characterization.series_for("web", "cpu_cycles")
        assert item.fit is not None
        assert item.fit.family in (
            "normal", "lognormal", "gamma", "weibull", "exponential"
        )

    def test_ram_jumps_found_for_browse_web(self, characterization):
        assert len(characterization.upward_ram_jumps("web")) >= 1

    def test_lag_estimate_present(self, characterization):
        assert characterization.web_db_lag is not None
        assert characterization.web_db_lag.lag_samples >= 0

    def test_ratios_present_for_virtualized(self, characterization):
        assert characterization.tier_ratio is not None
        assert characterization.vm_dom0_ratio is not None
        assert characterization.tier_ratio.cpu_cycles == pytest.approx(
            6.11, rel=0.15
        )

    def test_unknown_series_rejected(self, characterization):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            characterization.series_for("web", "gpu_util")


def _idle_db_traces():
    """A virtualized trace set whose db tier never sees a query."""
    rng = np.random.default_rng(5)
    times = np.arange(2.0, 122.0, 2.0)
    traces = TraceSet("virtualized", "browsing", 2.0)
    for entity, scale in (("web", 1.0), ("db", 0.0), ("dom0", 0.1)):
        for resource in RESOURCES:
            values = scale * (100.0 + rng.normal(0.0, 5.0, times.size))
            if resource == "mem_used_mb":
                values = 300.0 + rng.normal(0.0, 5.0, times.size)
            traces.add(
                entity, resource, TimeSeries(resource, "", times, values)
            )
    return traces


class TestIdleDatabase:
    def test_lag_and_r1_left_out(self):
        characterization = characterize_trace_set(_idle_db_traces())
        assert characterization.web_db_lag is None
        assert characterization.tier_ratio is None
        assert characterization.vm_dom0_ratio is not None
        text = render_characterization_report(characterization)
        assert "Inter-tier lag" not in text
        assert "R1" not in text and "R2" in text

    def test_direct_callers_still_get_errors(self):
        traces = _idle_db_traces()
        web = traces.get("web", "cpu_cycles").values
        db = traces.get("db", "cpu_cycles").values
        with pytest.raises(AnalysisError):
            cross_correlation(web, db, 5)
        with pytest.raises(AnalysisError):
            tier_ratios(traces, warmup_s=30.0)


class TestReports:
    def test_characterization_report_mentions_sections(
        self, characterization
    ):
        text = render_characterization_report(characterization)
        assert "Per-series summary" in text
        assert "RAM step jumps" in text
        assert "Inter-tier lag" in text
        assert "R1" in text and "R2" in text

    def test_ratio_table_renders_rows(self):
        report = RatioReport(
            name="R1 test",
            measured=ResourceVector(6.0, 3.0, 5.0, 50.0),
            paper=PAPER_R1,
        )
        text = render_ratio_table(report)
        assert "R1 test" in text
        assert "CPU cycles" in text
        assert "55.56" in text
