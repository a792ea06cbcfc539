"""Unit tests for scenarios, the runner, figures and tables."""

from dataclasses import fields, replace

import pytest

from repro.control.spec import ControllerSpec
from repro.errors import ConfigurationError
from repro.experiments.figures import FIGURE_DEFS, figure, render_figure
from repro.experiments.runner import run_scenario_cached
from repro.experiments.scenarios import (
    BARE_METAL,
    VIRTUALIZED,
    Scenario,
    default_duration_s,
    paper_scenarios,
    scenario,
)
from repro.experiments.tables import render_table1, table1_rows
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.placement.spec import FleetSpec
from repro.rubis.workload import BurstSchedule, SessionType, WorkloadMix
from repro.traffic.spec import TrafficSpec
from repro.workloads import TenantSpec


class TestScenarios:
    def test_paper_matrix_shape(self):
        scenarios = paper_scenarios(duration_s=60.0)
        assert len(scenarios) == 7  # 5 virtualized + 2 bare-metal
        assert "virtualized/blend_50_50" in scenarios
        assert "bare-metal/bidding" in scenarios

    def test_unknown_composition_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario(VIRTUALIZED, "doomscrolling")

    def test_unknown_environment_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario("container", "browsing")

    def test_virt_bid_has_no_bursts(self):
        s = scenario(VIRTUALIZED, "bidding", duration_s=100.0)
        assert s.mix.burst_schedule(SessionType.BID).count == 0

    def test_bare_bid_bursts_early(self):
        s = scenario(BARE_METAL, "bidding", duration_s=1000.0)
        schedule = s.mix.burst_schedule(SessionType.BID)
        assert schedule.count > 0
        assert schedule.window_s[1] <= 0.5 * 1000.0

    def test_virt_browse_bursts_late(self):
        s = scenario(VIRTUALIZED, "browsing", duration_s=1000.0)
        schedule = s.mix.burst_schedule(SessionType.BROWSE)
        assert schedule.window_s[0] >= 0.3 * 1000.0

    def test_client_override(self):
        s = scenario(VIRTUALIZED, "browsing", duration_s=60.0, clients=50)
        assert s.mix.clients == 50

    def test_default_duration_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_DURATION", raising=False)
        assert default_duration_s() == 240.0
        monkeypatch.setenv("REPRO_FULL_DURATION", "1")
        assert default_duration_s() == 1200.0

    def test_cache_key_distinguishes_scenarios(self):
        a = scenario(VIRTUALIZED, "browsing", duration_s=60.0)
        b = scenario(VIRTUALIZED, "bidding", duration_s=60.0)
        assert a.cache_key != b.cache_key

    def test_cache_key_includes_scale(self):
        """Regression: scenarios differing only in scale must not
        collide in the memoizing runner cache."""
        from dataclasses import replace

        base = scenario(VIRTUALIZED, "browsing", duration_s=60.0)
        rescaled = replace(base, scale=2.0)
        assert base.cache_key != rescaled.cache_key
        a = scenario(VIRTUALIZED, "browsing", duration_s=60.0, scale=2.0)
        b = scenario(VIRTUALIZED, "browsing", duration_s=60.0, scale=1.0)
        assert a.scale == 2.0 and b.scale == 1.0
        assert a.cache_key != b.cache_key

    def test_cache_key_includes_traffic_and_tenants(self):
        from dataclasses import replace

        from repro.experiments.scenarios import open_loop_scenario
        from repro.workloads import TenantSpec

        closed = scenario(VIRTUALIZED, "browsing", duration_s=60.0)
        open_loop = open_loop_scenario(
            VIRTUALIZED, "browsing", duration_s=60.0, rate_rps=100.0
        )
        consolidated = replace(closed, tenants=(TenantSpec(),))
        keys = {closed.cache_key, open_loop.cache_key,
                consolidated.cache_key}
        assert len(keys) == 3

    def test_cache_key_includes_burst_schedules(self):
        base = scenario(VIRTUALIZED, "browsing", duration_s=60.0)
        flattened = base.mix.with_bursts({})
        from dataclasses import replace

        assert base.cache_key != replace(base, mix=flattened).cache_key

    def test_cached_runner_separates_scales(self):
        """Two cached runs that differ only in scale return distinct
        results (the scale-collision regression, end to end)."""
        a = run_scenario_cached(
            scenario(VIRTUALIZED, "browsing", duration_s=20.0,
                     clients=40, scale=1.0)
        )
        b = run_scenario_cached(
            scenario(VIRTUALIZED, "browsing", duration_s=10.0,
                     clients=20, scale=2.0)
        )
        assert a is not b


class TestRunner:
    def test_result_shape(self, virt_browse_result):
        result = virt_browse_result
        assert result.traces.environment == "virtualized"
        assert result.requests_completed > 1000
        assert result.mean_response_time_s > 0
        assert result.throughput_rps > 50

    def test_cached_runner_returns_same_object(self):
        s = scenario(VIRTUALIZED, "browsing", duration_s=240.0)
        assert run_scenario_cached(s) is run_scenario_cached(s)

    def test_bare_metal_has_no_dom0_entity(self, bare_browse_result):
        assert bare_browse_result.traces.entities() == ["db", "web"]

    def test_virtualized_has_dom0_entity(self, virt_browse_result):
        assert virt_browse_result.traces.entities() == ["db", "dom0", "web"]

    def test_sample_grid_is_2s(self, virt_browse_result):
        series = virt_browse_result.traces.get("web", "cpu_cycles")
        times = series.times
        assert (times[1:] - times[:-1] == 2.0).all()


class TestFigures:
    def test_figure_defs_cover_1_to_8(self):
        assert sorted(FIGURE_DEFS) == list(range(1, 9))

    def test_virtualized_figure_has_three_panels(
        self, virt_browse_result, virt_bid_result
    ):
        data = figure(
            1, {"browse": virt_browse_result, "bid": virt_bid_result}
        )
        assert [p.entity for p in data.panels] == ["web", "db", "dom0"]
        assert data.resource == "cpu_cycles"

    def test_bare_figure_has_two_panels(
        self, bare_browse_result, bare_bid_result
    ):
        data = figure(
            5, {"browse": bare_browse_result, "bid": bare_bid_result}
        )
        assert [p.entity for p in data.panels] == ["web", "db"]

    def test_environment_mismatch_rejected(self, virt_browse_result):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            figure(5, {"browse": virt_browse_result})

    def test_render_contains_workloads_and_sparklines(
        self, virt_browse_result, virt_bid_result
    ):
        data = figure(
            2, {"browse": virt_browse_result, "bid": virt_bid_result}
        )
        text = render_figure(data)
        assert "Figure 2" in text
        assert "browse" in text and "bid" in text
        assert "|" in text


class TestTable1:
    def test_rows_shape(self):
        rows = table1_rows()
        assert len(rows) == 25
        for name, source, unit, description in rows:
            assert name and source and description

    def test_render_mentions_518(self):
        text = render_table1()
        assert "518" in text
        assert "Table 1" in text


#: For every Scenario field, a valid value other than the base's.  A
#: field declared without an entry here fails the coverage test below.
_SCENARIO_ALTERNATES = {
    "name": "other",
    "environment": BARE_METAL,
    "mix": WorkloadMix("browsing", 1.0, clients=10),
    "duration_s": 61.0,
    "seed": 43,
    "ramp_s": 5.0,
    "traffic": TrafficSpec(kind="poisson"),
    "scale": 2.0,
    "tenants": (TenantSpec(),),
    "controller": ControllerSpec(),
    "servers": 2,
    "placement": "priority",
    "fleet": FleetSpec(),
    "faults": FaultSchedule((FaultSpec(kind="crash", at_s=10.0),)),
    "engine": "batched",
    "trace_sample": 0.5,
}

_MIX_ALTERNATES = {
    "name": "other",
    "browse_fraction": 0.5,
    "think_time_s": 3.0,
    "clients": 10,
    "burst_schedules": {SessionType.BID: BurstSchedule(1, (1.0, 2.0))},
}


class TestCacheKeyCoverage:
    @pytest.mark.parametrize("name", [f.name for f in fields(Scenario)])
    def test_every_scenario_field_changes_the_key(self, name):
        base = scenario(VIRTUALIZED, "browsing", duration_s=60.0)
        if name == "fleet":
            base = replace(base, servers=2)  # a fleet needs two servers
        changed = replace(base, **{name: _SCENARIO_ALTERNATES[name]})
        assert changed.cache_key != base.cache_key

    @pytest.mark.parametrize("name", [f.name for f in fields(WorkloadMix)])
    def test_every_mix_field_changes_the_key(self, name):
        base = scenario(VIRTUALIZED, "browsing", duration_s=60.0)
        mix = replace(base.mix, **{name: _MIX_ALTERNATES[name]})
        assert mix.cache_key != base.mix.cache_key
        assert replace(base, mix=mix).cache_key != base.cache_key

    def test_burst_order_does_not_change_the_key(self):
        browse = BurstSchedule(2, (10.0, 20.0))
        bid = BurstSchedule(1, (5.0, 6.0))
        mix = WorkloadMix("blend", 0.5)
        forward = mix.with_bursts(
            {SessionType.BROWSE: browse, SessionType.BID: bid}
        )
        backward = mix.with_bursts(
            {SessionType.BID: bid, SessionType.BROWSE: browse}
        )
        assert forward.cache_key == backward.cache_key
        assert hash(forward.cache_key) == hash(backward.cache_key)
