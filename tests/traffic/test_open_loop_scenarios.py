"""Open-loop scenarios through the full experiment runner.

Includes the PR acceptance check: the flash-crowd open-loop scenario
offers >= 5x the closed-loop steady-state request rate, reports
overload shedding, and is seed-deterministic (identical arrival-trace
hash across two runs).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import (
    flash_crowd_scenario,
    open_loop_scenario,
    scenario,
    with_engine,
)
from repro.rubis.batched import BatchedOpenDriver
from repro.traffic.driver import OpenLoopDriver
from repro.traffic.spec import TrafficSpec

DURATION_S = 60.0
CLIENTS = 200


class TestOpenLoopScenario:
    def test_poisson_run_matches_closed_loop_intensity(self):
        spec = open_loop_scenario(
            "virtualized",
            "browsing",
            duration_s=DURATION_S,
            clients=CLIENTS,
        )
        result = run_scenario(spec)
        assert result.open_loop
        assert isinstance(result.population, OpenLoopDriver)
        closed_rate = spec.mix.clients / spec.mix.think_time_s
        offered_rate = result.traffic_report["offered"] / DURATION_S
        assert offered_rate == pytest.approx(closed_rate, rel=0.15)
        assert result.requests_completed > 0
        assert result.arrival_trace is not None
        # The monitoring pipeline records the same trace grid as the
        # closed loop.
        assert len(result.traces.get("web", "cpu_cycles")) == 30

    def test_bare_metal_environment_supported(self):
        spec = open_loop_scenario(
            "bare-metal",
            "bidding",
            duration_s=30.0,
            clients=CLIENTS,
            rate_rps=40.0,
        )
        result = run_scenario(spec)
        assert result.traffic_report["offered"] > 0

    def test_open_loop_exceeds_closed_loop_saturation_rate(self):
        """The structural point: offered load is rate-driven, not
        population-driven — 20x the closed-loop rate actually arrives."""
        spec = open_loop_scenario(
            "virtualized",
            "browsing",
            duration_s=30.0,
            clients=CLIENTS,
            rate_rps=20.0 * CLIENTS / 7.0,
        )
        result = run_scenario(spec)
        offered_rate = result.traffic_report["offered"] / 30.0
        assert offered_rate > 15.0 * CLIENTS / 7.0

    def test_both_engines_keep_one_ledger(self):
        spec = open_loop_scenario(
            "virtualized", "browsing", duration_s=20.0, clients=60,
            session_budget=5,
        )
        classic = run_scenario(spec).population
        batched = run_scenario(with_engine(spec, "batched")).population
        assert isinstance(classic, OpenLoopDriver)
        assert isinstance(batched, BatchedOpenDriver)
        assert classic.summary().keys() == batched.summary().keys()

    def test_mix_keeps_burst_schedules_out(self):
        spec = open_loop_scenario(
            "virtualized", "browsing", duration_s=DURATION_S
        )
        assert spec.mix.burst_schedules == {}

    def test_requires_open_loop_kind(self):
        with pytest.raises(ConfigurationError):
            open_loop_scenario(
                "virtualized", "browsing", kind="closed"
            )

    def test_cache_key_distinguishes_traffic(self):
        closed = scenario(
            "virtualized", "browsing", duration_s=DURATION_S
        )
        poisson = open_loop_scenario(
            "virtualized", "browsing", duration_s=DURATION_S
        )
        mmpp = open_loop_scenario(
            "virtualized", "browsing", kind="mmpp", duration_s=DURATION_S
        )
        keys = {closed.cache_key, poisson.cache_key, mmpp.cache_key}
        assert len(keys) == 3


class TestFlashCrowdAcceptance:
    @pytest.fixture(scope="class")
    def flash_spec(self):
        return flash_crowd_scenario(
            "virtualized",
            "browsing",
            duration_s=DURATION_S,
            clients=CLIENTS,
            session_budget=300,
        )

    @pytest.fixture(scope="class")
    def flash_result(self, flash_spec):
        return run_scenario(flash_spec)

    def test_offered_rate_at_least_5x_closed_loop(
        self, flash_spec, flash_result
    ):
        closed_rate = flash_spec.mix.clients / flash_spec.mix.think_time_s
        report = flash_result.traffic_report
        offered_request_rate = (
            report["offered"] * report["requests_per_session"] / DURATION_S
        )
        assert offered_request_rate >= 5.0 * closed_rate

    def test_overload_shedding_reported(self, flash_result):
        report = flash_result.traffic_report
        assert report["shed"] > 0
        assert 0.0 < report["shed_fraction"] < 1.0
        assert report["offered"] == report["admitted"] + report["shed"]
        assert report["session_budget"] == 300

    def test_seed_deterministic_trace_hash(self, flash_spec, flash_result):
        rerun = run_scenario(flash_spec)
        assert (
            rerun.arrival_trace.sha256()
            == flash_result.arrival_trace.sha256()
        )
        assert rerun.traffic_report == flash_result.traffic_report

    def test_surge_visible_in_arrival_trace(self, flash_result):
        rates = flash_result.arrival_trace.rates_rps
        baseline = rates[: len(rates) // 5].mean()
        peak = rates.max()
        assert peak > 5.0 * max(baseline, 1e-9)

    def test_in_flight_sessions_respect_budget(self, flash_result):
        assert flash_result.population.active_session_count() <= 300

    def test_offered_load_independent_of_budget(self, flash_result):
        """The open-loop invariant: admission decisions must not
        perturb the offered arrival stream (arrivals and sessions draw
        from independent RNG streams)."""
        relaxed = flash_crowd_scenario(
            "virtualized",
            "browsing",
            duration_s=DURATION_S,
            clients=CLIENTS,
            session_budget=50_000,
        )
        result = run_scenario(relaxed)
        assert result.traffic_report["shed"] == 0
        assert (
            result.arrival_trace.sha256()
            == flash_result.arrival_trace.sha256()
        )


class TestTraceScenario:
    def test_trace_kind_via_cli_token(self, tmp_path):
        from repro.traffic.trace import RateTrace

        path = str(tmp_path / "offered.csv")
        RateTrace(np.full(30, 50.0), interval_s=1.0).to_csv(path)
        spec = open_loop_scenario(
            "virtualized",
            "browsing",
            kind=f"trace:{path}",
            duration_s=30.0,
            clients=CLIENTS,
        )
        result = run_scenario(spec)
        assert result.traffic_report["offered"] == pytest.approx(
            1500, rel=0.1
        )
        # Replay exhausts with the trace: no arrivals past its end.
        assert result.arrival_trace.rates_rps[-1] <= 60.0

    def test_trace_spec_requires_path(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(kind="trace")
        with pytest.raises(ConfigurationError):
            TrafficSpec.from_cli_string("trace")

    def test_closed_loop_meter_round_trip(self, tmp_path):
        """A metered closed-loop run replays as offered load."""
        closed = scenario(
            "virtualized", "browsing", duration_s=30.0, clients=CLIENTS
        )
        source = run_scenario(closed, meter_arrivals=True)
        assert source.arrival_trace is not None
        path = str(tmp_path / "closed.npz")
        source.arrival_trace.to_npz(path)
        replay_spec = open_loop_scenario(
            "virtualized",
            "browsing",
            kind=f"trace:{path}",
            duration_s=30.0,
            clients=CLIENTS,
        )
        replayed = run_scenario(replay_spec)
        assert source.traffic_report is None  # closed loop has no report
        assert replayed.traffic_report["offered"] == pytest.approx(
            source.arrival_trace.total_expected_arrivals(), rel=0.15
        )
