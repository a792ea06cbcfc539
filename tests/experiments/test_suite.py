"""Tests for the suite orchestrator: grids, seeds, multiprocess runs."""

import json

import pytest

from repro.config import ExperimentConfig
from repro.errors import ConfigurationError
from repro.experiments.suite import (
    RunSummary,
    SuiteRun,
    derive_run_seed,
    execute_run,
    paper_matrix_suite,
    run_suite,
    suite_grid,
)
from repro.workloads import TenantSpec


class TestGrid:
    def test_paper_matrix_is_four_runs(self):
        runs = paper_matrix_suite(duration_s=30.0)
        assert [r.run_id for r in runs] == [
            "virtualized/browsing",
            "virtualized/bidding",
            "bare-metal/browsing",
            "bare-metal/bidding",
        ]

    def test_axes_multiply(self):
        runs = suite_grid(
            environments=("virtualized",),
            compositions=("browsing", "bidding"),
            scales=(1.0, 2.0),
            duration_s=30.0,
        )
        assert len(runs) == 4
        assert any("x2" in r.run_id for r in runs)

    def test_bare_metal_tenant_cells_are_skipped(self):
        runs = suite_grid(
            environments=("virtualized", "bare-metal"),
            tenant_mixes=((), (TenantSpec(),)),
            duration_s=30.0,
        )
        ids = [r.run_id for r in runs]
        assert "virtualized/browsing/batch" in ids
        assert not any("bare-metal" in i and "batch" in i for i in ids)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            suite_grid(
                environments=("bare-metal",),
                tenant_mixes=((TenantSpec(),),),
                duration_s=30.0,
            )

    def test_run_ids_are_unique(self):
        runs = paper_matrix_suite(duration_s=30.0)
        assert len({r.run_id for r in runs}) == len(runs)

    def test_placements_axis_grids_multi_server_cells(self):
        runs = suite_grid(
            servers=(1, 2),
            placements=("firstfit", "balance"),
            duration_s=30.0,
        )
        ids = [r.run_id for r in runs]
        # One single-server cell (placement places nothing there), one
        # multi-server cell per policy.
        assert ids == [
            "virtualized/browsing",
            "virtualized/browsing/s2/pl-firstfit",
            "virtualized/browsing/s2/pl-balance",
        ]
        by_id = {r.run_id: r.config for r in runs}
        assert by_id["virtualized/browsing"].placement is None
        assert (
            by_id["virtualized/browsing/s2/pl-balance"].placement
            == "balance"
        )
        # The pl- token is infrastructure: it must not shift the seed.
        assert (
            by_id["virtualized/browsing/s2/pl-firstfit"].seed
            == by_id["virtualized/browsing/s2/pl-balance"].seed
        )

    def test_placements_axis_excludes_the_scalar(self):
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            suite_grid(
                servers=(2,),
                placement="firstfit",
                placements=("balance",),
                duration_s=30.0,
            )
        with pytest.raises(ConfigurationError, match="empty"):
            suite_grid(servers=(2,), placements=(), duration_s=30.0)


class TestSeeds:
    def test_derivation_is_stable_and_distinct(self):
        a = derive_run_seed(42, "virtualized/browsing")
        assert a == derive_run_seed(42, "virtualized/browsing")
        assert a != derive_run_seed(42, "virtualized/bidding")
        assert a != derive_run_seed(43, "virtualized/browsing")
        assert 0 <= a < 2 ** 63

    def test_grid_seeds_depend_only_on_run_id(self):
        first = suite_grid(
            compositions=("browsing", "bidding"), duration_s=30.0
        )
        second = suite_grid(
            compositions=("bidding", "browsing"), duration_s=30.0
        )
        by_id_first = {r.run_id: r.config.seed for r in first}
        by_id_second = {r.run_id: r.config.seed for r in second}
        assert by_id_first == by_id_second


class TestExecution:
    def test_summary_is_plain_data(self):
        [run] = suite_grid(duration_s=24.0, clients=80)
        summary = execute_run(run)
        clone = RunSummary.from_dict(summary.to_dict())
        assert clone == summary
        assert summary.requests_completed > 0
        assert len(summary.trace_sha256) == 64

    def test_workers_do_not_change_results(self):
        """The acceptance invariant: 1-worker and 4-worker sweeps of the
        same grid produce identical per-run trace fingerprints."""
        runs = suite_grid(
            environments=("virtualized", "bare-metal"),
            compositions=("browsing", "bidding"),
            duration_s=24.0,
            clients=80,
            seed=9,
        )
        serial = run_suite(runs, workers=1)
        parallel = run_suite(runs, workers=4)
        assert serial.merged_sha256() == parallel.merged_sha256()
        for run_id, summary in serial.summaries.items():
            assert (
                summary.trace_sha256
                == parallel.summaries[run_id].trace_sha256
            ), f"run {run_id} diverged across worker counts"

    def test_duplicate_run_ids_rejected(self):
        [run] = suite_grid(duration_s=24.0, clients=80)
        with pytest.raises(ConfigurationError):
            run_suite([run, run])

    def test_empty_suite_rejected(self):
        with pytest.raises(ConfigurationError):
            run_suite([])

    def test_render_mentions_every_run(self):
        runs = suite_grid(
            compositions=("browsing",), duration_s=24.0, clients=80
        )
        result = run_suite(runs, workers=1)
        text = result.render()
        assert "virtualized/browsing" in text
        assert "merged sha256" in text


class TestWorkerEnvironment:
    def test_a_warm_pool_runs_the_callers_default_duration(
        self, monkeypatch
    ):
        # A forked worker sees the environment its server started
        # with, so the caller resolves the default run length.
        monkeypatch.delenv("REPRO_FULL_DURATION", raising=False)
        grid = dict(environments=("virtualized", "bare-metal"), clients=10)
        run_suite(suite_grid(duration_s=20.0, **grid), workers=2)
        monkeypatch.setenv("REPRO_FULL_DURATION", "1")
        runs = suite_grid(seed=3, **grid)
        pooled = run_suite(runs, workers=2)
        inline = run_suite(runs, workers=1)

        def simulated(suite):
            return {
                run_id: {
                    k: v for k, v in summary.to_dict().items()
                    if k != "wall_clock_s"
                }
                for run_id, summary in suite.summaries.items()
            }

        assert len(pooled.summaries) == 2
        for suite in (pooled, inline):
            assert all(
                s.duration_s == 1200.0 for s in suite.summaries.values()
            )
        assert simulated(pooled) == simulated(inline)


class TestConfigTenants:
    def test_config_round_trips_tenants_through_json(self):
        config = ExperimentConfig(
            duration_s=30.0,
            tenants=(TenantSpec(input_mb=64.0),),
        )
        clone = ExperimentConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert clone == config
        assert clone.tenants[0].input_mb == 64.0

    def test_config_tenants_reach_the_scenario(self):
        config = ExperimentConfig(
            duration_s=30.0, tenants=(TenantSpec(),)
        )
        spec = config.to_scenario()
        assert spec.consolidated
        assert spec.name.endswith("+batch")

    def test_bare_metal_tenants_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(
                environment="bare-metal", tenants=(TenantSpec(),)
            )

    def test_suite_run_survives_payload_round_trip(self):
        [run] = suite_grid(
            tenant_mixes=((TenantSpec(),),), duration_s=30.0
        )
        clone = SuiteRun(
            run_id=run.run_id,
            config=ExperimentConfig.from_dict(run.config.to_dict()),
        )
        assert clone == run
