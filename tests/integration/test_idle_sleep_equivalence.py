"""A sleeping scheduler epoch changes no simulated number.

A hypervisor's epoch process sleeps after an all-idle decision and each
domain's worker gauge wakes it (``Hypervisor._run_epoch``).  Each cell
below runs twice, once as shipped and once with ``PeriodicProcess.sleep``
patched to a no-op, which is the never-sleeping reference, and must agree
on the run fingerprint, the requests, the bill and every hypervisor's
ready time.  One cell per way a gauge rises: the tiers' and mapreduce
tasks' ``worker_started`` (classic), the batched drain's published busy
count, a fault parking workers on dom0, a live migration attaching a
guest to another host, and a crash followed by evacuation.
"""

from dataclasses import replace

import pytest

from repro.experiments.baseline import result_fingerprint
from repro.experiments.runner import prepare_run
from repro.experiments.scenarios import (
    consolidated_web_batch_scenario,
    detect_and_evacuate_scenario,
    migration_rebalance_scenario,
    scenario,
    with_engine,
)
from repro.faults.spec import FaultSchedule
from repro.sim.process import PeriodicProcess


def _cells():
    return {
        "consolidated_classic": consolidated_web_batch_scenario(
            duration_s=60.0, clients=150
        ),
        "browsing_batched": with_engine(
            scenario(
                "virtualized", "browsing", duration_s=60.0, clients=150
            ),
            "batched",
        ),
        "dom0_saturate_batched": replace(
            with_engine(
                scenario(
                    "virtualized", "browsing", duration_s=60.0, clients=150
                ),
                "batched",
            ),
            faults=FaultSchedule.from_cli_string("dom0_saturate@20:20:8"),
        ),
        "migration_rebalance": migration_rebalance_scenario(
            duration_s=90.0, clients=400
        ),
        "detect_and_evacuate": detect_and_evacuate_scenario(
            duration_s=120.0, clients=200, crash_at_s=30.0
        ),
    }


def _run(spec):
    prepared = prepare_run(spec)
    prepared.start()
    prepared.run_until(spec.duration_s)
    result = prepared.collect()
    testbed = prepared.testbed
    hypervisors = testbed.engine.hypervisors
    return {
        "fingerprint": result_fingerprint(result),
        "requests": result.requests_completed,
        "billing": testbed.billing_report(),
        "cpu_ready": {
            name: hypervisor.cpu_ready_report()
            for name, hypervisor in hypervisors.items()
        },
        "control": result.control_reports,
        "epochs": sum(
            hypervisor.scheduler.epochs for hypervisor in hypervisors.values()
        ),
    }


def _never_sleep(process):
    """The reference: every tick re-arms, as before epochs could sleep."""


@pytest.mark.parametrize("cell", sorted(_cells()))
def test_sleeping_epochs_match_the_never_sleeping_reference(
    cell, monkeypatch
):
    spec = _cells()[cell]
    shipped = _run(spec)
    monkeypatch.setattr(PeriodicProcess, "sleep", _never_sleep)
    reference = _run(spec)
    shipped_epochs = shipped.pop("epochs")
    reference_epochs = reference.pop("epochs")
    assert shipped == reference
    # Some host slept, or the cell would prove nothing.
    assert shipped_epochs < reference_epochs
