"""Shard worker entry points (plain data in and out).

A worker process owns one shard's pods for the whole run: it rebuilds
the :class:`~repro.shard.spec.FleetScenario` from its dict form,
constructs its pods (each pod's seed depends only on the fleet seed
and the pod name, so *which* worker builds it cannot matter), then
alternates run-window / send-signals / receive-commands with the
coordinator until the horizon, finishing with one ``result`` message.

Workers are forked from the package's forkserver
(:mod:`repro.processes`), a process that only imported the stack, so a
worker reads no environment variable: the coordinator reads
:data:`~repro.shard.fabric.HANG_ENV` and starts each process through
:func:`shard_main` with a ``hang`` flag.

Failures never hang the coordinator: any exception is caught and
shipped up as an ``error`` message with the full traceback.
"""

from __future__ import annotations

import time
import traceback
from typing import List

from repro.shard.fabric import (
    MSG_COMMANDS,
    error_message,
    result_message,
    signals_message,
)
from repro.shard.spec import FleetScenario


def shard_main(hang: bool, target, *args) -> None:
    """A shard process's entry: run ``target(*args)``, or hang.

    ``hang`` is the heartbeat tests' hook: the worker sleeps forever
    instead of sending its first window message.  ``target`` is the
    ``worker_main`` the coordinator looked up when it started the run.
    """
    if hang:
        while True:
            time.sleep(3600.0)
    target(*args)


def worker_main(
    fleet_data: dict,
    pod_names: List[str],
    shard: int,
    inbox,
    outbox,
) -> None:
    """Run one shard's pods in lockstep with the coordinator."""
    try:
        from repro.shard.coordinator import PodGroup

        fleet = FleetScenario.from_dict(fleet_data)
        group = PodGroup(fleet, pod_names)
        group.start()
        boundaries = fleet.boundaries
        for index, boundary in enumerate(boundaries):
            signals = group.advance_to(boundary)
            outbox.put(signals_message(index, shard, signals))
            if index < len(boundaries) - 1:
                message = inbox.get()
                if message[0] != MSG_COMMANDS:
                    raise RuntimeError(
                        f"shard {shard}: unexpected coordinator message "
                        f"{message[0]!r}"
                    )
                group.apply(message[2])
        outbox.put(result_message(shard, group.finish()))
    except BaseException:
        outbox.put(error_message(shard, traceback.format_exc()))
