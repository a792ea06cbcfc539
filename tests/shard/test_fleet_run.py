"""What a fleet run reports about itself, what it imports, and what it
leaves running."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import ExperimentConfig
from repro.processes import worker_context
from repro.shard import (
    ShardTimeoutError,
    datacenter_fleet,
    run_fleet,
    two_pod_fleet,
)
from repro.shard.fabric import HANG_ENV
from repro.shard.pod import Pod
from repro.shard.spec import FleetScenario, PodSpec
from repro.workloads import TenantSpec

#: The ``src`` directory this suite imports ``repro`` from.
SRC = str(Path(repro.__file__).resolve().parent.parent)


class TestFleetPhases:
    def test_inline_phases_stay_within_the_wall_clock(self):
        # Lockstep pods each count only their own windows, so the
        # per-pod phases add up to no more than the run itself.
        fleet = datacenter_fleet(seed=42, pods=2, duration_s=20.0, clients=20)
        result = run_fleet(fleet, shards=1)
        assert set(result.phases_s) == {"build", "simulate", "collect"}
        assert all(v >= 0 for v in result.phases_s.values())
        assert sum(result.phases_s.values()) <= result.wall_clock_s


class TestOneServerPod:
    def test_signals_offer_its_batch_vms_and_room(self):
        # A one-server pod is placed like any other, so the optimizer
        # sees its batch VMs (to throttle) and its free memory.
        config = ExperimentConfig(
            environment="virtualized", composition="browsing", seed=42,
            clients=20, servers=1,
            tenants=(TenantSpec(name="mr", memory_gb=2.0),),
        )
        fleet = FleetScenario(
            name="solo", pods=(PodSpec("solo", config),), duration_s=10.0,
        )
        signal = Pod(fleet.pods[0], fleet).signals()
        assert [vm["name"] for vm in signal["vms"]] == ["mr-vm"]
        assert list(signal["free_memory"]) == ["cloud-1"]


class TestImportCost:
    def test_simulation_path_does_not_import_scipy(self):
        code = (
            "import sys\n"
            "import repro, repro.shard.worker\n"
            "from repro.shard import datacenter_fleet, run_fleet\n"
            "run_fleet(datacenter_fleet(seed=42, pods=2, duration_s=20.0,"
            " clients=20), shards=1)\n"
            "print('scipy' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"


def _quick_fleet():
    return datacenter_fleet(seed=42, pods=2, duration_s=20.0, clients=20)


class TestWorkerLifetime:
    """A sharded run reaps its workers however it ends."""

    def test_no_worker_outlives_a_finished_run(self):
        assert multiprocessing.active_children() == []
        run_fleet(_quick_fleet(), shards=2)
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_heartbeat_timeout(self, monkeypatch):
        assert multiprocessing.active_children() == []
        monkeypatch.setenv(HANG_ENV, "1")
        with pytest.raises(ShardTimeoutError):
            run_fleet(_quick_fleet(), shards=2, heartbeat_timeout_s=3.0)
        assert multiprocessing.active_children() == []

    def test_a_failed_worker_start_raises_its_own_error(self, monkeypatch):
        # A worker that dies at bootstrap makes start() raise; the run
        # must raise that error, not the join of a never-started worker.
        assert multiprocessing.active_children() == []
        process_type = worker_context().Process
        start = process_type.start
        started = []

        def second_start_fails(process):
            started.append(process.name)
            if len(started) == 2:
                raise BrokenPipeError("worker died at bootstrap")
            start(process)

        monkeypatch.setattr(process_type, "start", second_start_fails)
        with pytest.raises(BrokenPipeError, match="bootstrap"):
            run_fleet(two_pod_fleet(), shards=2)
        assert started == ["repro-shard-0", "repro-shard-1"]
        assert multiprocessing.active_children() == []


class TestWarmServer:
    """Workers are forked from one preloaded server per interpreter."""

    def test_the_caller_environment_reaches_a_warm_server(self, monkeypatch):
        # The server keeps the environment it started with; the hang
        # hook still follows the caller's, run by run.
        monkeypatch.delenv(HANG_ENV, raising=False)
        run_fleet(_quick_fleet(), shards=2)
        monkeypatch.setenv(HANG_ENV, "1")
        with pytest.raises(ShardTimeoutError) as info:
            run_fleet(_quick_fleet(), shards=2, heartbeat_timeout_s=3.0)
        assert info.value.shard == 1
        monkeypatch.delenv(HANG_ENV)
        assert run_fleet(_quick_fleet(), shards=2).requests_completed > 0

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc"
    )
    def test_the_server_preloads_without_pythonpath_and_exits_first(self):
        # As perfbench/run.py does: ``src`` goes on sys.path in code.
        # numpy is mapped into the server only if the repro preload
        # imported, and numpy's generator extension only if numpy.random
        # was preloaded too; the server must be gone when the
        # interpreter is.
        code = (
            "import sys\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "from multiprocessing import forkserver\n"
            "from repro.shard import datacenter_fleet, run_fleet\n"
            "run_fleet(datacenter_fleet(seed=42, pods=2, duration_s=20.0,"
            " clients=20), shards=2)\n"
            "pid = forkserver._forkserver._forkserver_pid\n"
            "with open(f'/proc/{pid}/maps') as maps:\n"
            "    mapped = maps.read()\n"
            "print(pid, '_multiarray_umath' in mapped,"
            " 'random/_generator' in mapped)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        pid, preloaded, generator = completed.stdout.split()
        assert preloaded == "True"
        assert generator == "True"
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid), 0)
