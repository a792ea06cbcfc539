"""Tests for the experiment configuration and the CLI."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.cli
import repro.obs
import repro.shard
from repro.cli import main
from repro.config import ExperimentConfig
from repro.errors import ConfigurationError
from repro.experiments.suite import suite_grid
from repro.traffic.trace import RateTrace

REPO = Path(__file__).resolve().parents[1]


def _json_round_trip(config):
    """``config`` through its plain dict and JSON text, as workers see it."""
    return ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))


class TestExperimentConfig:
    def test_defaults_build_a_scenario(self):
        config = ExperimentConfig()
        spec = config.to_scenario()
        assert spec.environment == "virtualized"
        assert spec.mix.name == "browsing"

    def test_round_trip_through_json(self):
        config = ExperimentConfig(
            environment="bare-metal",
            composition="bidding",
            duration_s=60.0,
            seed=9,
            clients=100,
        )
        clone = _json_round_trip(config)
        assert clone == config

    def test_unknown_environment_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(environment="kubernetes")

    def test_unknown_composition_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(composition="doomscrolling")

    def test_invalid_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(duration_s=0.0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"environment": "virtualized",
                                        "gpu": True})

    def test_clients_override_propagates(self):
        config = ExperimentConfig(clients=42, duration_s=30.0)
        assert config.to_scenario().mix.clients == 42

    def test_open_loop_traffic_round_trip(self):
        config = ExperimentConfig(
            traffic="poisson", rate_rps=120.0, session_budget=500
        )
        clone = _json_round_trip(config)
        assert clone == config
        spec = config.to_scenario()
        assert spec.open_loop
        assert spec.traffic.rate_rps == 120.0
        assert spec.traffic.session_budget == 500

    def test_open_loop_knobs_rejected_on_closed_loop(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(rate_rps=100.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(traffic="closed", session_budget=10)

    def test_scale_multiplies_clients_and_duration(self):
        config = ExperimentConfig(duration_s=30.0, clients=100, scale=2.0)
        spec = config.to_scenario()
        assert spec.duration_s == 60.0
        assert spec.mix.clients == 200

    def test_servers_and_placement_round_trip(self):
        config = ExperimentConfig(
            duration_s=40.0, servers=2, placement="priority",
        )
        clone = _json_round_trip(config)
        assert clone == config
        spec = config.to_scenario()
        assert spec.servers == 2
        assert spec.placement == "priority"
        assert spec.name.endswith("/s2")

    def test_single_server_keeps_plain_name(self):
        spec = ExperimentConfig(duration_s=40.0).to_scenario()
        assert spec.servers == 1
        assert "/s" not in spec.name

    def test_multi_server_requires_virtualized(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(environment="bare-metal", servers=2)

    def test_unknown_placement_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(placement="tetris")

    def test_unknown_traffic_token_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(traffic="chaos")

    def test_faults_round_trip(self):
        config = ExperimentConfig(
            duration_s=40.0, servers=2, faults="crash@60+bot_flood@90:15",
        )
        clone = _json_round_trip(config)
        assert clone == config
        spec = config.to_scenario()
        assert spec.faulted
        assert spec.faults.kinds() == ("crash", "bot_flood")
        assert spec.name.endswith("!crash@60+bot_flood@90:15")

    def test_faults_none_token_runs_fault_free(self):
        spec = ExperimentConfig(duration_s=40.0, faults="none").to_scenario()
        assert not spec.faulted
        assert "!" not in spec.name

    def test_bad_fault_token_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(faults="meteor@60")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(faults="crash")

    def test_faults_require_virtualized(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(environment="bare-metal", faults="crash@60")

    def test_scenario_validates_the_config(self):
        # The config raises the scenario's own message, at construction.
        with pytest.raises(
            ConfigurationError, match="elastic controllers require"
        ):
            ExperimentConfig(environment="bare-metal", controller="pid")
        with pytest.raises(ConfigurationError, match="flash_crowd fault"):
            ExperimentConfig(faults="flash_crowd@10")

    def test_bot_flood_rejected_on_batched_engine(self):
        # Bots send through the classic request path; the batched driver
        # owns the worker gauge, so the run used to crash at the flood.
        message = "bot_flood.*batched"
        with pytest.raises(ConfigurationError, match=message):
            ExperimentConfig(faults="bot_flood@10:10", engine="batched")
        with pytest.raises(ConfigurationError, match=message):
            suite_grid(
                engines=("classic", "batched"), faults=("bot_flood@10:10",)
            )
        assert ExperimentConfig(faults="bot_flood@10:10").to_scenario()

    def test_out_of_range_tokens_rejected(self):
        for bad in (
            {"servers": 0},
            {"trace_sample": -0.5},
            {"clients": 0},
            {"scale": -1.0},
            {"controller": "bang-bang"},
        ):
            with pytest.raises(ConfigurationError):
                ExperimentConfig(**bad)


class TestCli:
    def test_run_prints_summary_and_report(self, capsys):
        code = main(
            [
                "run",
                "--duration", "30",
                "--clients", "100",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "completed" in captured.out
        assert "Workload characterization" in captured.out

    def test_run_no_report(self, capsys):
        code = main(
            ["run", "--duration", "30", "--clients", "100", "--no-report"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Workload characterization" not in captured.out

    def test_run_exports_csv(self, tmp_path, capsys):
        out = tmp_path / "traces.csv"
        code = main(
            [
                "run",
                "--duration", "30",
                "--clients", "100",
                "--no-report",
                "--export-csv", str(out),
            ]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("time_s,")

    def test_run_open_loop_traffic_reports_shedding_counters(self, capsys):
        code = main(
            [
                "run",
                "--duration", "30",
                "--clients", "100",
                "--no-report",
                "--traffic", "poisson",
                "--rate", "60",
                "--session-budget", "400",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "open-loop traffic:" in captured.out
        assert "shed" in captured.out
        assert "sha256" in captured.out

    def test_run_open_loop_report_with_idle_db(self, capsys):
        # One-request visits never query the database, so the report
        # has no web->db lag and no R1 -- and must still render.
        code = main(
            ["run", "--traffic", "poisson", "--rate", "500",
             "--duration", "40"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Workload characterization" in captured.out
        assert "Inter-tier lag" not in captured.out
        assert "R2" in captured.out

    def test_run_columnar_exports_npz(self, tmp_path, capsys):
        out = tmp_path / "cols.npz"
        code = main(
            [
                "run",
                "--duration", "10",
                "--clients", "50",
                "--no-report",
                "--columnar",
                "--export-columnar", str(out),
            ]
        )
        assert code == 0
        from repro.monitoring.export import read_columnar_npz

        table = read_columnar_npz(str(out))
        assert len(table) == 5
        assert "time_s" in table.columns

    def test_export_columnar_requires_columnar(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(
                [
                    "run",
                    "--duration", "10",
                    "--no-report",
                    "--export-columnar", "/tmp/x.csv",
                ]
            )

    def test_run_list_prints_scenario_names(self, capsys):
        code = main(["run", "--list"])
        captured = capsys.readouterr()
        assert code == 0
        assert "virtualized/browsing" in captured.out
        assert "consolidated_web_batch" in captured.out
        assert "migration_rebalance" in captured.out
        assert "fleet_consolidation" in captured.out

    def test_run_multi_server_prints_bill_and_placement(self, capsys):
        code = main([
            "run", "--servers", "2", "--placement", "balance",
            "--duration", "20", "--clients", "80", "--no-report",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "2 servers (balance placement)" in captured.err
        assert "capacity bill:" in captured.out

    def test_run_scenario_rejects_servers_flag(self):
        with pytest.raises(ConfigurationError, match="--servers"):
            main([
                "run", "--scenario", "migration_rebalance",
                "--servers", "3", "--duration", "10",
            ])

    def test_run_unknown_scenario_names_the_list_flag(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="--list"):
            main(["run", "--scenario", "doomscrolling", "--duration", "10"])

    def test_run_named_consolidated_scenario(self, capsys):
        code = main(
            [
                "run",
                "--scenario", "consolidated_web_batch",
                "--duration", "20",
                "--no-report",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "tenant batch:" in captured.out
        assert "CPU ready time" in captured.out

    def test_sweep_quick_grid_single_worker(self, capsys):
        code = main(
            ["sweep", "--grid", "quick", "--duration", "20", "--workers", "1"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "virtualized/browsing" in captured.out
        assert "merged sha256" in captured.out

    def test_sweep_writes_json_report(self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        code = main(
            [
                "sweep",
                "--compositions", "browsing",
                "--duration", "20",
                "--clients", "80",
                "--json", str(out),
            ]
        )
        assert code == 0
        import json as json_module

        report = json_module.loads(out.read_text())
        assert "runs" in report and "merged_sha256" in report
        assert "virtualized/browsing" in report["runs"]

    def test_sweep_rejects_unknown_tenant_mix(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["sweep", "--tenant-mixes", "gpu-farm", "--duration", "10"])

    @pytest.mark.parametrize("flag", ["--scales", "--servers"])
    def test_sweep_names_the_axis_of_an_unparsable_token(self, flag):
        with pytest.raises(ConfigurationError, match=flag):
            main(["sweep", flag, "1,two"])

    def test_run_faults_prints_schedule_report(self, capsys):
        code = main([
            "run", "--faults", "cap_theft@10:10:0.2/web-vm",
            "--controller", "threshold",
            "--duration", "30", "--clients", "80", "--no-report",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "+ faults cap_theft@10:10:0.2/web-vm" in captured.err
        assert "faults [faults]: 1 injected, 1 cleared" in captured.out

    def test_run_scenario_rejects_faults_flag(self):
        with pytest.raises(ConfigurationError, match="--faults"):
            main([
                "run", "--scenario", "detect_and_evacuate",
                "--faults", "crash@60", "--duration", "10",
            ])

    def test_sweep_faults_axis_shares_seeds(self, capsys):
        code = main([
            "sweep", "--faults", "none,crash@15",
            "--duration", "20", "--clients", "60",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "virtualized/browsing/!crash@15" in captured.out

    def test_sweep_preset_rejects_faults_flag(self):
        with pytest.raises(ConfigurationError, match="--faults"):
            main(["sweep", "--grid", "quick", "--faults", "crash@15"])

    def test_table1_prints_catalogue(self, capsys):
        assert main(["table1"]) == 0
        captured = capsys.readouterr()
        assert "518" in captured.out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["teleport"])


#: One invocation per way of describing a run: built from flags, and a
#: catalogue entry on another engine.  20 s at 60 clients keeps each
#: under a second.
_SHAPES = {
    "flags": (
        [
            "--controller", "threshold",
            "--faults", "cap_theft@10:5:0.2/web-vm",
            "--engine", "batched",
        ],
        "virtualized/browsing@threshold!cap_theft@10:5:0.2/web-vm%batched",
    ),
    "scenario": (
        ["--scenario", "consolidated_web_batch", "--engine", "batched"],
        "consolidated_web_batch%batched",
    ),
}
_BANNERS = {"run": "running", "diagnose": "diagnosing", "trace": "tracing"}


class _Resolved(Exception):
    """Raised in place of a run once the CLI has resolved its scenario."""


def _stub_entry_points(monkeypatch) -> list:
    """Make every run entry point record what it was asked to run, then
    raise :class:`_Resolved` instead of running it."""
    resolved = []

    def resolve_only(what, **kwargs):
        resolved.append(what)
        raise _Resolved

    for owner, name in (
        (repro.cli, "run_scenario"),
        (repro.cli, "run_scenario_cached"),
        (repro.cli, "run_suite"),
        (repro.shard, "run_fleet"),
    ):
        monkeypatch.setattr(owner, name, resolve_only)
    return resolved


#: Where ``python -m repro`` commands are documented: the README, the
#: verify skill's recipe and the CI workflow.
_DOCUMENTED_IN = (
    "README.md", ".*/skills/verify/SKILL.md", ".github/workflows/ci.yml",
)
#: Documented commands that show a user error on purpose.
_DOCUMENTED_ERRORS = (
    "run --scenario nope",
    "run --faults crash@20/cloud-2 --duration 20",
    "run --traffic trace:/nonexistent.csv --duration 20",
    "run --fleet two-pod --shards 3",
)


def _write_replay_inputs(argv) -> list:
    """Write the rate trace each ``trace:<path>`` of a documented
    command replays: a file its reader recorded first.  Documented
    paths are relative, so the trace lands in the working directory."""
    paths = []
    for token in argv:
        if token.startswith("trace:"):
            path = Path(token[len("trace:"):])
            assert not path.is_absolute(), token
            RateTrace(np.full(10, 5.0), interval_s=2.0).to_csv(str(path))
            paths.append(path.resolve())
    return paths


def _documented_commands() -> list:
    """Every documented ``python -m repro`` command line, as an argv.

    Backslash continuations are joined, and so are the option lines that
    continue a command in a folded YAML block; environment-variable
    prefixes and trailing comments are dropped.
    """
    command = re.compile(
        r"\s*(?:run:\s*)?(?:\w+=\S*\s+)*python -m repro\b(.*)"
    )
    argvs = []
    for pattern in _DOCUMENTED_IN:
        (path,) = REPO.glob(pattern)
        lines = path.read_text().replace("\\\n", " ").splitlines()
        for index, line in enumerate(lines):
            match = command.match(line)
            if match is None:
                continue
            text = match.group(1)
            for follow in lines[index + 1:]:
                if not follow.strip().startswith("--"):
                    break
                text += " " + follow.strip()
            argvs.append(shlex.split(text, comments=True))
    return argvs


class TestOneResolver:
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @pytest.mark.parametrize("command", sorted(_BANNERS))
    def test_single_run_commands_run_and_name_the_scenario(
        self, capsys, command, shape
    ):
        flags, name = _SHAPES[shape]
        argv = [command, *flags, "--duration", "20", "--clients", "60"]
        if command == "run":
            argv.append("--no-report")
        assert main(argv) == 0
        assert f"{_BANNERS[command]} {name}:" in capsys.readouterr().err

    def test_scenario_conflicts_rejected_alike(self):
        messages = set()
        for command in sorted(_BANNERS):
            with pytest.raises(ConfigurationError, match="--servers") as info:
                main([
                    command, "--scenario", "consolidated_web_batch",
                    "--servers", "2",
                ])
            messages.add(str(info.value))
        assert len(messages) == 1

    @pytest.mark.parametrize(
        "flags, name",
        [
            (
                ["--scenario", "consolidated_web_batch", "--controller", "pid"],
                "consolidated_web_batch@pid",
            ),
            (
                [
                    "--scenario", "autoscaled_flash_crowd_static",
                    "--controller", "threshold", "--engine", "batched",
                ],
                "autoscaled_flash_crowd%batched",
            ),
            (
                ["--servers", "2", "--placement", "balance",
                 "--faults", "crash@9"],
                "virtualized/browsing/s2!crash@9",
            ),
            (
                ["--traffic", "poisson", "--rate", "50", "--scale", "2"],
                "virtualized/browsing/open-poisson",
            ),
        ],
    )
    def test_commands_resolve_the_same_scenario(
        self, monkeypatch, flags, name
    ):
        resolved = _stub_entry_points(monkeypatch)
        for command in sorted(_BANNERS):
            with pytest.raises(_Resolved):
                main([command, *flags, "--trace-sample", "0.1"])
        assert [spec.name for spec in resolved] == [name] * 3
        assert resolved[0] == resolved[1] == resolved[2]

    def test_documentation_spells_out_commands(self):
        argvs = _documented_commands()
        assert len(argvs) >= 40
        assert {argv[0] for argv in argvs} == {
            "run", "sweep", "diagnose", "trace", "compare", "table1",
        }

    @pytest.mark.parametrize("argv", _documented_commands(), ids=" ".join)
    def test_documented_command_resolves(self, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        resolved = _stub_entry_points(monkeypatch)
        if " ".join(argv) in _DOCUMENTED_ERRORS:
            with pytest.raises(ConfigurationError):
                main(argv)
            return
        inputs = _write_replay_inputs(argv)
        try:
            # Catalogue listings and table1 finish without running.
            assert main(argv) == 0
        except _Resolved:
            assert len(resolved) == 1
        assert sorted(tmp_path.iterdir()) == sorted(inputs)


class TestSingleRunPipeline:
    def test_diagnose_json_diagnoses_once(
        self, monkeypatch, tmp_path, capsys
    ):
        calls = []
        real = repro.obs.diagnose

        def counting(result, **kwargs):
            calls.append(kwargs)
            return real(result, **kwargs)

        monkeypatch.setattr(repro.obs, "diagnose", counting)
        out = tmp_path / "diagnosis.json"
        assert main([
            "diagnose", "--faults", "crash@10", "--servers", "2",
            "--duration", "20", "--clients", "60", "--json", str(out),
        ]) == 0
        assert len(calls) == 1
        assert {"manifest", "diagnoses", "grade"} <= set(
            json.loads(out.read_text())
        )
        assert "attribution vs schedule" in capsys.readouterr().out

    def test_profiler_stops_when_the_run_raises(self, monkeypatch, tmp_path):
        _stub_entry_points(monkeypatch)
        out = tmp_path / "run.pstats"
        with pytest.raises(_Resolved):
            main(["run", "--profile", str(out), "--no-report"])
        assert sys.getprofile() is None
        assert not out.exists()


class TestFleetRejectsUnreadFlags:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--export-traces", "traces.jsonl"],
            ["--export-annotations", "annotations.jsonl"],
            ["--export-columnar", "columns.npz"],
            ["--list"],
            ["--slo-ms", "50"],
        ],
        ids=lambda extra: extra[0],
    )
    def test_flag_named_in_the_error(self, tmp_path, monkeypatch, extra):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigurationError, match=re.escape(extra[0])):
            main(["run", "--fleet", "list", *extra])
        assert not list(tmp_path.iterdir())

    def test_fleet_reads_seed_and_quick_fleet(self, capsys):
        assert main(["run", "--fleet", "list", "--seed", "3",
                     "--quick-fleet"]) == 0
        assert "two-pod" in capsys.readouterr().out


class TestFleetShardCount:
    @pytest.mark.parametrize("shards", ["3", "0"])
    def test_bad_count_rejected_before_the_banner(
        self, monkeypatch, capsys, shards
    ):
        # two-pod has two pods; run_fleet, which starts the workers,
        # is never reached.
        resolved = _stub_entry_points(monkeypatch)
        with pytest.raises(ConfigurationError, match="shards"):
            main(["run", "--fleet", "two-pod", "--shards", shards])
        assert resolved == []
        assert "running fleet" not in capsys.readouterr().err


class TestTraceTrafficErrors:
    @pytest.mark.parametrize(
        "argv, banner",
        [
            (["run", "--traffic"], "running"),
            (["sweep", "--traffics"], "sweeping"),
        ],
        ids=["run", "sweep"],
    )
    def test_missing_trace_rejected_before_the_banner(
        self, monkeypatch, capsys, tmp_path, argv, banner
    ):
        resolved = _stub_entry_points(monkeypatch)
        path = tmp_path / "missing.csv"
        with pytest.raises(ConfigurationError, match=re.escape(str(path))):
            main([*argv, f"trace:{path}", "--duration", "20"])
        assert resolved == []
        assert banner not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("time_s,rate_rps\n0,10\n2,ten\n", "line 3"),
            ("time_s,load,hits\n0,10,1\n2,12,1\n", "no column 'rate_rps'"),
        ],
        ids=["non-numeric-row", "no-rate-column"],
    )
    def test_unloadable_trace_is_a_user_error(self, tmp_path, text, reason):
        path = tmp_path / "offered.csv"
        path.write_text(text)
        with pytest.raises(ConfigurationError) as info:
            main([
                "run", "--traffic", f"trace:{path}", "--duration", "20",
                "--clients", "60", "--no-report",
            ])
        assert str(path) in str(info.value)
        assert reason in str(info.value)

    @pytest.mark.parametrize("kind", ["garbage-bytes", "bare-npy"])
    def test_file_that_is_not_an_npz_archive_is_a_user_error(
        self, tmp_path, kind
    ):
        path = tmp_path / "offered.npz"
        if kind == "garbage-bytes":
            path.write_bytes(b"garbage")
        else:
            with open(path, "wb") as handle:
                np.save(handle, np.arange(4.0))
        with pytest.raises(ConfigurationError) as info:
            main([
                "run", "--traffic", f"trace:{path}", "--duration", "20",
                "--clients", "60", "--no-report",
            ])
        assert f"{path}: not an NPZ archive" in str(info.value)


def _user_error(*argv) -> str:
    """The one stderr line ``python -m repro`` exits 2 with."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 2
    assert "Traceback" not in completed.stderr
    lines = completed.stderr.strip().splitlines()
    assert len(lines) == 1
    return lines[0]


class TestModuleEntryPoint:
    def test_user_error_prints_one_line_and_exits_2(self):
        line = _user_error("run", "--scenario", "nope")
        assert line.startswith("repro: error: unknown scenario 'nope'")

    def test_bot_flood_on_batched_rejected_before_the_run(self):
        line = _user_error(
            "run", "--engine", "batched", "--faults", "bot_flood@10:10",
            "--duration", "30", "--clients", "100", "--no-report",
        )
        assert line.startswith("repro: error: a bot_flood fault")
        assert "batched" in line

    def test_unknown_fault_target_rejected_before_the_run(self):
        # One server has no cloud-2; the lone stderr line is the error,
        # so no "running" banner was printed.
        line = _user_error(
            "run", "--faults", "crash@20/cloud-2", "--duration", "20",
        )
        assert line.startswith(
            "repro: error: fault crash@20/cloud-2 targets unknown 'cloud-2'"
        )
