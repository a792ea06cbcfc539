"""Smoke tests of the benchmark itself, at the tiny workload size.

Run with ``python -m pytest perfbench/smoke.py -q`` from the
repository root (about a minute).  The file name keeps the tests out
of the repository's default test collection.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.layers import LayerAccount
from perfbench.workloads import TINY, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def _errors(name, one_pass):
    # At the tiny size the paper matrix has 100 clients, too few for
    # the paper's qualitative findings (Q3/Q4), which need its 1000.
    return [
        e for e in one_pass.errors
        if not (name == "paper_matrix" and "paper checks fail" in e)
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_repeats_exactly(name):
    workload = WORKLOADS[name]
    first, second = (workload.run_pass(SEED, TINY) for _ in range(2))
    for one_pass in (first, second):
        assert _errors(name, one_pass) == []
        assert sorted(one_pass.variants) == sorted(workload.variants)
    for variant in workload.variants:
        a, b = first.variants[variant], second.variants[variant]
        assert a.requests > 0
        assert (a.fingerprint, a.requests, a.p90_s, a.paper_factors) == (
            b.fingerprint, b.requests, b.p90_s, b.paper_factors
        )


def _main(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(trace):
    code, lines = _main(
        "--workload", "web_million", "--size", TINY, "--seconds", "0",
        "--trace", trace,
    )
    assert code == 0
    report = json.loads(lines[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in report["metrics"].items()
    }
    for name, metric in report["metrics"].items():
        assert isinstance(metric["value"], (int, float))
        assert any(
            name in line and line.endswith(metric["unit"])
            for line in lines[:-1]
        )


@pytest.mark.parametrize(
    "name", ["web_million", "flash_crowd_theft", "datacenter_fleet"]
)
def test_traced_account_tiles_the_simulate_wall(name):
    workload = WORKLOADS[name]
    workload.run_pass(SEED, TINY)
    with LayerAccount() as account:
        traced = workload.run_pass(SEED, TINY)
    layers = run.per_layer(account, traced, overhead_s=0.0)
    assert layers["trace.simulate_s"] > 0
    assert layers["trace.untiled_share"] < run.TILING_TOLERANCE
    assert layers["virt.epochs"] > 0 and layers["monitoring.ticks"] > 0
    if name == "datacenter_fleet":
        assert layers["shard.windows"] == 2 and layers["shard.spawn_s"] > 0
    else:
        assert layers["rubis.batched.waves"] > 0


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "web_million"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
