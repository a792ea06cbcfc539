"""The database tier (MySQL).

A station of database worker threads.  Service time is the query CPU
time plus any *synchronous* buffer-pool miss reads (the thread blocks on
the pages).  Write-backs (data, index, binlog) are issued asynchronously
at completion, and commits trigger the fixed-cost commit accounting
(journal barrier + fsync) on the execution context — which in the
virtualized environment lands in dom0, producing finding Q5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.apps.queueing import QueueingStation
from repro.apps.requests import Request
from repro.apps.tier import ExecutionContext
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class MysqlTierConfig:
    """MySQL worker pool parameters."""

    #: Concurrent database threads actually executing queries.
    workers: int = 8
    #: Hypercall/syscall accounting scale for one query batch.
    request_account_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")


class MysqlTier:
    """Database tier: a station over an execution context."""

    def __init__(
        self,
        sim: Simulator,
        context: ExecutionContext,
        config: MysqlTierConfig = None,
    ) -> None:
        self.sim = sim
        self.context = context
        self.config = config or MysqlTierConfig()
        self.station = QueueingStation(
            sim,
            name=f"mysql:{context.owner}",
            workers=self.config.workers,
            on_start=context.worker_started,
            on_finish=context.worker_finished,
        )
        context.register_station(self.station)
        self.queries_executed = 0
        self.commits = 0

    def handle(self, request: Request, done_fn: Callable[[Request], None]) -> None:
        """Execute ``request``'s query batch; ``done_fn`` fires at the end.

        The continuation travels with the job so the station calls the
        tier's stable bound methods — no per-request closures.
        """
        self.station.submit((request, done_fn), self._service, self._done)

    def _service(self, job) -> float:
        request = job[0]
        context = self.context
        request.db_started_at = self.sim.now
        demand = request.demand
        duration = context.begin_service(
            demand.db_cycles, self.config.request_account_scale
        )
        if request.trace is not None:
            request.trace.add_cpu(
                "cpu.db",
                request.db_started_at,
                duration,
                context.pure_cpu_time(demand.db_cycles),
            )
        if demand.db_disk_read_bytes > 0:
            # The thread blocks on buffer-pool misses.
            blocked = (
                context.disk_read(demand.db_disk_read_bytes) - self.sim.now
            )
            if blocked > 0.0:
                if request.trace is not None:
                    request.trace.add_disk(
                        "disk.db_read",
                        request.db_started_at + duration,
                        blocked,
                    )
                duration += blocked
        return duration

    def _done(self, job) -> None:
        request, done_fn = job
        demand = request.demand
        self.queries_executed += demand.db_queries
        if demand.db_disk_write_bytes > 0:
            # Dirty pages, index updates, binlog — written back
            # asynchronously after the query batch returns.
            self.context.disk_write(demand.db_disk_write_bytes)
        if demand.commit:
            self.commits += 1
            self.context.account_commit()
        done_fn(request)

    @property
    def backlog(self) -> int:
        return self.station.backlog
