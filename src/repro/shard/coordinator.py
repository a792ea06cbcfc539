"""The shard coordinator: lockstep windows over worker processes.

``run_fleet`` partitions a :class:`~repro.shard.spec.FleetScenario`'s
pods over ``shards`` worker processes and advances every pod in
lockstep windows.  Each worker is forked from the package's forkserver
(:func:`repro.processes.worker_context`), a process that has imported
the stack but never built or run anything, and receives its pod set as
plain dicts: the same multiprocess-determinism discipline as the suite
runner.  The coordinator reads the environment for its workers, which
read none.  Each window:

1. each shard runs its pods to the next window boundary and sends
   their signals up (one message per shard per window — the
   heartbeat);
2. the coordinator feeds the merged, name-sorted signals to the
   :class:`~repro.shard.optimizer.FleetOptimizer` (when the fleet has
   one) and sends each shard its pods' commands;
3. shards apply commands at the boundary and run the next window.

``shards=1`` executes the identical per-pod operations inline (no
processes), which is why fingerprints are bit-identical across shard
counts: the partition only chooses *where* a pod's event loop runs,
never what it computes.

A shard that misses the heartbeat deadline fails the run fast with
:class:`~repro.shard.fabric.ShardTimeoutError` naming the shard and
its server groups; a shard that raises ships its traceback up and the
coordinator re-raises it as :class:`~repro.shard.fabric.
ShardWorkerError`.
"""

from __future__ import annotations

import hashlib
import os
import queue as queue_module
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.shard.fabric import (
    HANG_ENV,
    MSG_ERROR,
    MSG_RESULT,
    MSG_SIGNALS,
    ShardTimeoutError,
    ShardWorkerError,
    commands_message,
    shard_partition,
)
from repro.shard.optimizer import FleetOptimizer
from repro.shard.pod import Pod
from repro.shard.spec import FleetScenario


@dataclass
class FleetResult:
    """Merged outcome of one sharded fleet run (plain data inside)."""

    fleet: FleetScenario
    shards: int
    #: Per-pod summaries (:meth:`~repro.shard.pod.Pod.finish` dicts),
    #: keyed by pod name.
    pods: Dict[str, dict]
    #: The optimizer's decision log + budget readings, or None for a
    #: watch-only fleet.
    optimizer: Optional[dict]
    wall_clock_s: float = 0.0
    #: Every pod's ``phases_s`` summed phase by phase.  Inline, the pods
    #: run one after another, so the sum stays within ``wall_clock_s``;
    #: on several shards it counts each shard's time.
    phases_s: Dict[str, float] = field(default_factory=dict)

    @property
    def merged_sha256(self) -> str:
        """Order-independent fingerprint over every pod's traces.

        A pure function of the per-pod trace hashes, so it is the
        single number the determinism harness compares across shard
        counts and against the unsharded engine.
        """
        digest = hashlib.sha256()
        for name in sorted(self.pods):
            digest.update(name.encode("utf-8"))
            digest.update(self.pods[name]["trace_sha256"].encode("utf-8"))
        return digest.hexdigest()

    @property
    def events_fired(self) -> int:
        return sum(pod["events_fired"] for pod in self.pods.values())

    @property
    def requests_completed(self) -> int:
        return sum(
            pod["requests_completed"] for pod in self.pods.values()
        )

    @property
    def server_count(self) -> int:
        return sum(pod["servers"] for pod in self.pods.values())

    @property
    def vm_count(self) -> int:
        return sum(pod["vms"] for pod in self.pods.values())

    def billing(self) -> dict:
        """Fleet-wide bill, domains keyed ``<pod>/<domain>``."""
        merged = {}
        for name in sorted(self.pods):
            domains = self.pods[name]["billing"].get("domains", {})
            for domain, bill in domains.items():
                merged[f"{name}/{domain}"] = bill
        return {"kind": "billing", "domains": merged}

    def to_dict(self) -> dict:
        return {
            "fleet": self.fleet.name,
            "shards": self.shards,
            "merged_sha256": self.merged_sha256,
            "events_fired": self.events_fired,
            "requests_completed": self.requests_completed,
            "wall_clock_s": self.wall_clock_s,
            "phases_s": dict(self.phases_s),
            "pods": {name: dict(pod) for name, pod in self.pods.items()},
            "optimizer": self.optimizer,
        }

    def render(self) -> str:
        """Human-readable fleet report table."""
        lines = [
            f"{'pod':<16s} {'srv':>4s} {'vms':>5s} {'reqs':>8s} "
            f"{'X req/s':>8s} {'p95 ms':>8s} {'events':>10s}  trace sha256",
        ]
        for name in sorted(self.pods):
            pod = self.pods[name]
            marks = ""
            if pod["exported"]:
                marks += f" -{len(pod['exported'])}vm"
            if pod["imported"]:
                marks += f" +{len(pod['imported'])}vm"
            lines.append(
                f"{name:<16s} {pod['servers']:>4d} {pod['vms']:>5d} "
                f"{pod['requests_completed']:>8d} "
                f"{pod['throughput_rps']:>8.1f} {pod['p95_ms']:>8.1f} "
                f"{pod['events_fired']:>10d}  "
                f"{pod['trace_sha256'][:16]}{marks}"
            )
        lines.append(
            f"{len(self.pods)} pods / {self.server_count} servers / "
            f"{self.vm_count} VMs on {self.shards} shard(s), "
            f"{self.wall_clock_s:.1f}s wall clock; merged sha256 "
            f"{self.merged_sha256[:16]}"
        )
        if self.optimizer is not None:
            decisions = self.optimizer["decisions"]
            lines.append(
                f"optimizer: {len(decisions)} decision(s), "
                f"{self.optimizer['migrations_commanded']} migration(s) "
                "commanded"
            )
            for decision in decisions:
                reason = decision.get("reason", "")
                lines.append(
                    f"  t={decision['time_s']:>6.1f}s {decision['kind']} "
                    f"pod={decision['pod']} vm={decision.get('vm', '-')}"
                    f"  {reason}"
                )
        return "\n".join(lines)


class PodGroup:
    """The per-shard runtime: build, step and command a set of pods.

    Both execution paths — the inline ``shards=1`` coordinator and a
    forked worker process — drive their pods through this one class,
    so a pod performs the identical operation sequence wherever it
    runs.
    """

    def __init__(self, fleet: FleetScenario, pod_names: List[str]) -> None:
        wanted = set(pod_names)
        self.pods: List[Pod] = [
            Pod(spec, fleet)
            for spec in fleet.pods
            if spec.name in wanted
        ]

    def start(self) -> None:
        for pod in self.pods:
            pod.start()

    def advance_to(self, horizon_s: float) -> Dict[str, dict]:
        """Run every pod to the boundary; return their signals."""
        signals = {}
        for pod in self.pods:
            pod.advance_to(horizon_s)
            signals[pod.name] = pod.signals()
        return signals

    def apply(self, commands: Dict[str, List[dict]]) -> None:
        for pod in self.pods:
            batch = commands.get(pod.name, [])
            if batch:
                pod.apply(batch)

    def finish(self) -> Dict[str, dict]:
        return {pod.name: pod.finish() for pod in self.pods}


def run_fleet(
    fleet: FleetScenario,
    shards: int = 1,
    heartbeat_timeout_s: Optional[float] = None,
) -> FleetResult:
    """Run a fleet scenario on ``shards`` workers and merge the result."""
    started = time.perf_counter()
    partition = shard_partition(fleet.pod_names(), shards)
    optimizer = (
        FleetOptimizer(fleet) if fleet.optimizer is not None else None
    )
    if shards == 1:
        pods = _run_inline(fleet, optimizer)
    else:
        timeout = (
            heartbeat_timeout_s
            if heartbeat_timeout_s is not None
            else fleet.heartbeat_timeout_s
        )
        pods = _run_sharded(fleet, partition, optimizer, timeout)
    wall = time.perf_counter() - started
    return FleetResult(
        fleet=fleet,
        shards=shards,
        pods=pods,
        optimizer=optimizer.report() if optimizer is not None else None,
        wall_clock_s=wall,
        phases_s=_merge_phases(pods),
    )


def _merge_phases(pods: Dict[str, dict]) -> Dict[str, float]:
    merged: Dict[str, float] = {}
    for pod in pods.values():
        for phase, seconds in pod.get("phases_s", {}).items():
            merged[phase] = merged.get(phase, 0.0) + seconds
    return merged


def _exchange(optimizer, boundary, signals):
    """One boundary's optimizer pass over the merged signals."""
    if optimizer is None:
        return {}
    return optimizer.decide(boundary, signals)


def _run_inline(fleet: FleetScenario, optimizer) -> Dict[str, dict]:
    """The single-process engine (also the shards=1 reference path)."""
    group = PodGroup(fleet, list(fleet.pod_names()))
    group.start()
    boundaries = fleet.boundaries
    for index, boundary in enumerate(boundaries):
        signals = group.advance_to(boundary)
        if index < len(boundaries) - 1:
            commands = _exchange(optimizer, boundary, signals)
            group.apply(commands)
    return group.finish()


def _run_sharded(
    fleet: FleetScenario,
    partition: List[List[str]],
    optimizer,
    timeout_s: float,
) -> Dict[str, dict]:
    from repro.processes import worker_context
    from repro.shard.worker import shard_main, worker_main

    context = worker_context()
    hang = os.environ.get(HANG_ENV)
    fleet_data = fleet.to_dict()
    inboxes = []
    outboxes = []
    workers = []
    for shard, pod_names in enumerate(partition):
        inbox = context.Queue()
        outbox = context.Queue()
        process = context.Process(
            target=shard_main,
            args=(
                hang == str(shard), worker_main,
                fleet_data, pod_names, shard, inbox, outbox,
            ),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        inboxes.append(inbox)
        outboxes.append(outbox)
        workers.append(process)
    try:
        for process in workers:
            process.start()
        boundaries = fleet.boundaries
        for index, boundary in enumerate(boundaries):
            signals: Dict[str, dict] = {}
            for shard, pod_names in enumerate(partition):
                message = _receive(
                    outboxes[shard], shard, pod_names, timeout_s,
                    index, workers[shard],
                )
                if message[0] != MSG_SIGNALS:
                    raise ShardWorkerError(
                        shard, pod_names,
                        f"unexpected message {message[0]!r} while "
                        f"waiting for window {index} signals",
                    )
                signals.update(message[3])
            if index < len(boundaries) - 1:
                commands = _exchange(optimizer, boundary, signals)
                for shard, pod_names in enumerate(partition):
                    batch = {
                        name: commands.get(name, [])
                        for name in pod_names
                    }
                    inboxes[shard].put(commands_message(index, batch))
        pods: Dict[str, dict] = {}
        for shard, pod_names in enumerate(partition):
            message = _receive(
                outboxes[shard], shard, pod_names, timeout_s,
                len(boundaries), workers[shard],
            )
            if message[0] != MSG_RESULT:
                raise ShardWorkerError(
                    shard, pod_names,
                    f"unexpected message {message[0]!r} while waiting "
                    "for results",
                )
            pods.update(message[2])
        for process in workers:
            process.join(timeout=timeout_s)
        return pods
    finally:
        for process in workers:
            if process.is_alive():
                process.terminate()
        for process in workers:
            # A worker whose start() raised has no pid; joining it would
            # replace the start error with an AssertionError.
            if process.pid is not None:
                process.join(timeout=5.0)


def _receive(outbox, shard, pod_names, timeout_s, window_index, process):
    """One heartbeat-guarded receive from a shard worker."""
    deadline = time.monotonic() + timeout_s
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ShardTimeoutError(
                shard, pod_names, timeout_s, window_index
            )
        try:
            message = outbox.get(timeout=min(remaining, 1.0))
        except queue_module.Empty:
            if not process.is_alive():
                # Dead without a message: surface it as a worker crash
                # rather than waiting out the full heartbeat window.
                raise ShardWorkerError(
                    shard, pod_names,
                    f"worker process exited with code "
                    f"{process.exitcode} before window {window_index}",
                )
            continue
        if message[0] == MSG_ERROR:
            raise ShardWorkerError(shard, pod_names, message[2])
        return message
