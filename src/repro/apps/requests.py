"""Request records and per-request resource demands."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

#: Process-wide request ids, 1, 2, ...: the counter's own ``__next__``
#: is the default factory, so building a request runs no Python frame
#: for its id.
_next_request_id = itertools.count(1).__next__


@dataclass(slots=True)
class ResourceDemand:
    """Sampled resource demand of one request, in base units.

    The web-tier and db-tier demands are separated because the paper
    characterizes the tiers independently (Figures 1-8 all have per-tier
    panels).  All byte quantities are logical (guest-visible) sizes; the
    virtualization layer applies amplification on the physical path.
    """

    web_cycles: float = 0.0
    db_cycles: float = 0.0
    db_queries: int = 0
    db_disk_read_bytes: float = 0.0
    db_disk_write_bytes: float = 0.0
    web_disk_write_bytes: float = 0.0
    request_bytes: float = 0.0
    response_bytes: float = 0.0
    query_bytes: float = 0.0
    result_bytes: float = 0.0
    #: True when the request commits database writes (drives the commit
    #: accounting path: journal barriers, fsync, extra hypercalls).
    commit: bool = False

    def scaled(self, factor: float) -> "ResourceDemand":
        """A copy with every field multiplied by ``factor``."""
        return ResourceDemand(
            web_cycles=self.web_cycles * factor,
            db_cycles=self.db_cycles * factor,
            db_queries=self.db_queries,
            db_disk_read_bytes=self.db_disk_read_bytes * factor,
            db_disk_write_bytes=self.db_disk_write_bytes * factor,
            web_disk_write_bytes=self.web_disk_write_bytes * factor,
            request_bytes=self.request_bytes * factor,
            response_bytes=self.response_bytes * factor,
            query_bytes=self.query_bytes * factor,
            result_bytes=self.result_bytes * factor,
            commit=self.commit,
        )


@dataclass(slots=True)
class Request:
    """One client request travelling through the tiers."""

    session_id: int
    interaction: str
    demand: ResourceDemand
    created_at: float
    request_id: int = field(default_factory=_next_request_id)
    web_started_at: Optional[float] = None
    db_started_at: Optional[float] = None
    completed_at: Optional[float] = None
    #: Continuation invoked with the request when the response reaches
    #: the client.  Carried on the request so the tier pipeline passes
    #: stable bound methods instead of allocating per-request closures.
    on_response: Optional[Callable[["Request"], None]] = None
    #: Span accumulator of a *sampled* request (a
    #: :class:`repro.obs.tracing._TraceBuilder`); None for unsampled
    #: requests and whenever tracing is off, so the request path only
    #: pays a truthiness check.
    trace: Optional[object] = None

    @property
    def response_time(self) -> Optional[float]:
        """End-to-end latency, or None while in flight."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.created_at
