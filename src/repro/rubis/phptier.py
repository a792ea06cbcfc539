"""The web + application tier (Apache with the PHP RUBiS implementation).

In the paper's PHP deployment the web server and the application server
"are integrated together", so a single tier serves both roles — one
queueing station of Apache workers whose service burns the request's
``web_cycles`` and whose completion appends to the access log and PHP
session store.
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
class PhpTierConfig:
    """Apache/PHP pool parameters."""

    #: Concurrent Apache worker processes (MaxClients-style).
    workers: int = 16
    #: Hypercall/syscall accounting scale for one web request.
    request_account_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")


class PhpTier:
    """Web+application tier: a station over an execution context."""

    def __init__(
        self,
        sim: Simulator,
        context: ExecutionContext,
        config: PhpTierConfig = None,
    ) -> None:
        self.sim = sim
        self.context = context
        self.config = config or PhpTierConfig()
        self.station = QueueingStation(
            sim,
            name=f"php:{context.owner}",
            workers=self.config.workers,
            on_start=context.worker_started,
            on_finish=context.worker_finished,
        )
        context.register_station(self.station)
        self.requests_handled = 0

    def handle(self, request: Request, done_fn: Callable[[Request], None]) -> None:
        """Serve ``request``; ``done_fn`` fires when PHP processing ends.

        The continuation travels with the job so the station calls the
        tier's stable bound methods — no per-request closures.
        """
        self.station.submit((request, done_fn), self._service, self._done)

    def _service(self, job) -> float:
        request = job[0]
        context = self.context
        request.web_started_at = self.sim.now
        cycles = request.demand.web_cycles
        duration = context.begin_service(
            cycles, self.config.request_account_scale
        )
        if request.trace is not None:
            request.trace.add_cpu(
                "cpu.web",
                request.web_started_at,
                duration,
                context.pure_cpu_time(cycles),
            )
        return duration

    def _done(self, job) -> None:
        request, done_fn = job
        self.requests_handled += 1
        log_bytes = request.demand.web_disk_write_bytes
        if log_bytes > 0:
            # Access log + PHP session write; asynchronous, the
            # request does not wait for it.
            self.context.disk_write(log_bytes)
        done_fn(request)

    @property
    def backlog(self) -> int:
        return self.station.backlog
