"""What a fleet run reports about itself, and what it imports."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.config import ExperimentConfig
from repro.shard import datacenter_fleet, run_fleet
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
