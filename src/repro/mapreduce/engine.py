"""Slot-based MapReduce execution over simulated worker nodes.

By default each worker node is a
:class:`~repro.hardware.server.PhysicalServer` wrapped in a
:class:`~repro.apps.tier.BareMetalContext` (owner ``mr:node-K``), so
every byte and cycle lands on the same ledgers the monitoring layer
samples — characterizing a MapReduce job uses exactly the same
probes/recorder/analysis stack as the RUBiS study.

Alternatively the cluster accepts externally built *contexts* — e.g. a
:class:`~repro.apps.tier.VirtualizedContext` over a batch VM on a
shared hypervisor — which is how the multi-tenant testbed runs
MapReduce *inside* the simulated virtualized servers: task CPU runs
under the credit scheduler (tasks raise the domain's worker gauge, so
the scheduler sees batch demand), and task I/O flows through the same
dom0 split drivers the web tiers use.

Execution model (Hadoop-classic, simplified and documented):

* map tasks: read the split from local disk (sequential), burn
  ``map_cycles_per_byte * split``, write the intermediate locally;
* shuffle starts when the *whole* map phase ends (no slow-start): each
  reducer pulls its partition from every mapper node over the NICs;
* reduce tasks: burn cycles over the partition, write the output with
  replication;
* scheduling: a fixed number of map/reduce slots per node, FIFO task
  queue, tasks assigned to the node with the most free slots (data
  locality is not modelled — noted in DESIGN.md).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.apps.tier import BareMetalContext, ExecutionContext, OsActivityModel
from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster
from repro.mapreduce.job import JobSpec, MapReduceJob
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

#: Service-time jitter applied per task (stragglers are real).
TASK_JITTER_CV = 0.15


class _WorkerNode:
    """One worker: a context plus slot accounting."""

    def __init__(
        self,
        name: str,
        context: ExecutionContext,
        map_slots: int,
        reduce_slots: int,
    ) -> None:
        self.name = name
        self.context = context
        self.map_slots_free = map_slots
        self.reduce_slots_free = reduce_slots
        self.tasks_completed = 0


class MapReduceCluster:
    """A pool of worker nodes executing MapReduce jobs FIFO.

    With ``contexts=None`` (the default) the cluster owns its nodes:
    one paper-spec physical server per node.  Passing ``contexts``
    attaches the workers to externally built execution contexts
    instead (e.g. the VMs of a multi-tenant testbed); the caller then
    owns those contexts' lifecycles, and ``stream`` names the RNG
    stream so several clusters in one run draw independently.
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        nodes: int = 4,
        map_slots: int = 2,
        reduce_slots: int = 2,
        contexts: Optional[Sequence[ExecutionContext]] = None,
        stream: str = "mapreduce",
    ) -> None:
        if map_slots < 1 or reduce_slots < 1:
            raise ConfigurationError("slots must be >= 1")
        self.sim = sim
        self.rng = streams.stream(stream)
        if contexts is not None:
            if not contexts:
                raise ConfigurationError("need at least one worker context")
            self.cluster = None
            self._owns_contexts = False
            self.nodes: List[_WorkerNode] = [
                _WorkerNode(f"node-{i}", context, map_slots, reduce_slots)
                for i, context in enumerate(contexts)
            ]
        else:
            if nodes < 1:
                raise ConfigurationError("need at least one worker node")
            self.cluster = Cluster()
            self._owns_contexts = True
            self.nodes = [
                _WorkerNode(
                    f"node-{i}",
                    BareMetalContext(
                        sim,
                        self.cluster.add_server(f"node-{i}"),
                        owner=f"mr:node-{i}",
                        os_model=OsActivityModel(
                            disk_accounting_factor=1.0,
                            net_accounting_factor=1.0,
                        ),
                    ),
                    map_slots,
                    reduce_slots,
                )
                for i in range(nodes)
            ]
        self._pending_maps: List[tuple] = []
        self._pending_reduces: List[tuple] = []
        self.jobs_completed = 0
        self.tasks_completed = 0

    # -- public API -------------------------------------------------------

    def submit(
        self,
        job: MapReduceJob,
        on_complete: Optional[Callable[[MapReduceJob], None]] = None,
    ) -> None:
        """Queue all map tasks of ``job``; reduces follow the shuffle."""
        job.stats.submitted_at = self.sim.now
        for _ in range(job.spec.map_tasks):
            self._pending_maps.append((job, on_complete))
        self._dispatch()

    def contexts(self) -> Dict[str, BareMetalContext]:
        """Node contexts for monitoring probes."""
        return {node.name: node.context for node in self.nodes}

    def shutdown(self) -> None:
        if self._owns_contexts:
            for node in self.nodes:
                node.context.shutdown()

    # -- scheduling ----------------------------------------------------------

    def _node_with_free_slot(self, kind: str) -> Optional[_WorkerNode]:
        attribute = f"{kind}_slots_free"
        candidates = [n for n in self.nodes if getattr(n, attribute) > 0]
        if not candidates:
            return None
        return max(candidates, key=lambda n: getattr(n, attribute))

    def _dispatch(self) -> None:
        while self._pending_maps:
            node = self._node_with_free_slot("map")
            if node is None:
                break
            job, on_complete = self._pending_maps.pop(0)
            node.map_slots_free -= 1
            self._start_map(node, job, on_complete)
        while self._pending_reduces:
            node = self._node_with_free_slot("reduce")
            if node is None:
                break
            job, on_complete = self._pending_reduces.pop(0)
            node.reduce_slots_free -= 1
            self._start_reduce(node, job, on_complete)

    def _jitter(self) -> float:
        return float(max(0.2, self.rng.normal(1.0, TASK_JITTER_CV)))

    # -- task execution ----------------------------------------------------------

    def _start_map(self, node, job: MapReduceJob, on_complete) -> None:
        spec = job.spec
        if job.stats.map_started_at is None:
            job.stats.map_started_at = self.sim.now
        context = node.context
        # Raise the context's worker gauge for the task's lifetime: under
        # a hypervisor this is the batch domain's CPU demand signal, so
        # the credit scheduler contends it against co-resident tenants.
        context.worker_started()
        split = spec.split_bytes
        read_done = context.disk_read(split)
        cpu_time = context.cpu_time(
            split * spec.map_cycles_per_byte * self._jitter()
        )
        finish_at = max(read_done, self.sim.now) + cpu_time
        self.sim.schedule_at(
            finish_at, self._finish_map, node, job, on_complete
        )

    def _finish_map(self, node, job: MapReduceJob, on_complete) -> None:
        spec = job.spec
        context = node.context
        context.worker_finished()
        context.charge_cpu(spec.split_bytes * spec.map_cycles_per_byte)
        context.disk_write(spec.split_bytes * spec.map_output_ratio)
        node.map_slots_free += 1
        node.tasks_completed += 1
        self.tasks_completed += 1
        if job.map_done():
            job.stats.map_finished_at = self.sim.now
            self._start_shuffle(job, on_complete)
        self._dispatch()

    def _start_shuffle(self, job: MapReduceJob, on_complete) -> None:
        """All-to-all: every reducer pulls a partition share per node."""
        spec = job.spec
        latest = self.sim.now
        share = spec.partition_bytes / len(self.nodes)
        for _ in range(spec.reduce_tasks):
            for source in self.nodes:
                done = source.context.net_transmit(share)
                latest = max(latest, done)
            job.stats.shuffle_bytes_moved += spec.partition_bytes
        # Receivers: spread partitions across nodes round-robin.
        for index in range(spec.reduce_tasks):
            sink = self.nodes[index % len(self.nodes)]
            done = sink.context.net_receive(spec.partition_bytes)
            latest = max(latest, done)
        self.sim.schedule_at(
            latest, self._shuffle_finished, job, on_complete
        )

    def _shuffle_finished(self, job: MapReduceJob, on_complete) -> None:
        job.stats.shuffle_finished_at = self.sim.now
        for _ in range(job.spec.reduce_tasks):
            self._pending_reduces.append((job, on_complete))
        self._dispatch()

    def _start_reduce(self, node, job: MapReduceJob, on_complete) -> None:
        spec = job.spec
        context = node.context
        context.worker_started()
        cpu_time = context.cpu_time(
            spec.partition_bytes * spec.reduce_cycles_per_byte
            * self._jitter()
        )
        self.sim.schedule(
            cpu_time, self._finish_reduce, node, job, on_complete
        )

    def _finish_reduce(self, node, job: MapReduceJob, on_complete) -> None:
        spec = job.spec
        context = node.context
        context.worker_finished()
        context.charge_cpu(spec.partition_bytes * spec.reduce_cycles_per_byte)
        context.disk_write(
            spec.partition_bytes * spec.output_replication
        )
        node.reduce_slots_free += 1
        node.tasks_completed += 1
        self.tasks_completed += 1
        if job.reduce_done():
            job.stats.finished_at = self.sim.now
            self.jobs_completed += 1
            if on_complete is not None:
                on_complete(job)
        self._dispatch()
