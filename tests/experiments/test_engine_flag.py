"""The ``engine`` selector: config plumbing, grids and the CLI surface."""

import json

import pytest

from repro.config import ExperimentConfig
from repro.errors import ConfigurationError
from repro.experiments.scenarios import ENGINES, scenario
from repro.experiments.suite import paper_matrix_suite, suite_grid


class TestExperimentConfigEngine:
    def test_default_is_classic(self):
        config = ExperimentConfig()
        assert config.engine == "classic"
        assert config.to_scenario().engine == "classic"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            ExperimentConfig(engine="warp")

    def test_batched_engine_threads_to_scenario(self):
        config = ExperimentConfig(engine="batched")
        spec = config.to_scenario()
        assert spec.engine == "batched"
        assert spec.batched
        assert spec.name.endswith("%batched")

    def test_classic_scenario_name_unchanged(self):
        classic = ExperimentConfig().to_scenario()
        assert "%" not in classic.name

    def test_round_trips_through_json(self):
        config = ExperimentConfig(engine="batched", seed=9)
        data = json.loads(json.dumps(config.to_dict()))
        assert ExperimentConfig.from_dict(data) == config
        assert data["engine"] == "batched"

    def test_from_dict_accepts_engine_key(self):
        config = ExperimentConfig.from_dict({"engine": "batched"})
        assert config.engine == "batched"


class TestScenarioEngine:
    def test_engines_constant(self):
        assert ENGINES == ("classic", "batched")

    def test_scenario_validates_engine(self):
        from dataclasses import replace

        base = scenario("virtualized", "browsing", duration_s=30)
        with pytest.raises(ConfigurationError):
            replace(base, engine="warp")

    def test_engine_changes_cache_key(self):
        from dataclasses import replace

        base = scenario("virtualized", "browsing", duration_s=30)
        batched = replace(base, name=f"{base.name}%batched", engine="batched")
        assert base.cache_key != batched.cache_key


class TestSuiteEnginesAxis:
    def test_engines_axis_doubles_the_grid(self):
        runs = suite_grid(engines=("classic", "batched"))
        assert len(runs) == 2
        by_engine = {run.config.engine: run for run in runs}
        assert set(by_engine) == {"classic", "batched"}
        assert by_engine["batched"].run_id.endswith("/eng-batched")
        assert "eng-" not in by_engine["classic"].run_id

    def test_engine_cells_share_seed(self):
        # The engine changes how the lifecycle executes, not the
        # offered workload: matched seeds or the batched/classic
        # ratios compare across seed noise.
        runs = suite_grid(engines=("classic", "batched"))
        seeds = {run.config.seed for run in runs}
        assert len(seeds) == 1

    def test_paper_matrix_with_engines(self):
        runs = paper_matrix_suite(engines=("classic", "batched"))
        assert len(runs) == 8  # 2 envs x 2 mixes x 2 engines
        batched = [r for r in runs if r.config.engine == "batched"]
        assert len(batched) == 4


class TestCliEngineFlags:
    def test_run_parser_accepts_engine(self):
        from repro.cli import _build_parser as build_parser

        args = build_parser().parse_args(
            ["run", "--scenario", "virtualized/browsing",
             "--engine", "batched"]
        )
        assert args.engine == "batched"

    def test_run_parser_rejects_unknown_engine(self):
        from repro.cli import _build_parser as build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--scenario", "virtualized/browsing",
                 "--engine", "warp"]
            )

    def test_run_parser_accepts_profile(self, tmp_path):
        from repro.cli import _build_parser as build_parser

        args = build_parser().parse_args(
            ["run", "--scenario", "virtualized/browsing",
             "--profile", str(tmp_path / "run.pstats")]
        )
        assert args.profile.endswith("run.pstats")

    def test_sweep_parser_accepts_engines_axis(self):
        from repro.cli import _build_parser as build_parser

        args = build_parser().parse_args(
            ["sweep", "--engines", "classic,batched"]
        )
        assert args.engines == "classic,batched"
