"""Workload mixes: the paper's five request compositions.

Section 4 tests five compositions — browsing only, bidding only, and
30/70, 50/50, 70/30 blends of the two.  A composition assigns each of the
1000 emulated clients a session type (browse or bid) with probability
``browse_fraction``; a browse session walks the browsing transition
matrix, a bid session the bidding matrix.

A mix also carries the burst schedule parameters that drive the
backlog-induced RAM jumps of Figures 2 and 6 (the paper's own proposed
mechanism: "as more client browsing requests arrive, some requests are
backlogged and after a certain period of time the server allocates more
RAM to process those backlogged requests").
"""

from __future__ import annotations

import enum
from dataclasses import astuple, dataclass, field, fields
from typing import Dict, Tuple

import numpy as np

from repro.errors import ConfigurationError


class SessionType(enum.Enum):
    """The two RUBiS client behaviours."""

    BROWSE = "browse"
    BID = "bid"


@dataclass(frozen=True)
class BurstSchedule:
    """Synchronized request waves that build tier backlog.

    ``count`` waves are drawn uniformly from ``window_s``; at each wave a
    ``fraction`` of currently thinking clients fire immediately.
    """

    count: int = 0
    window_s: Tuple[float, float] = (0.0, 0.0)
    fraction: float = 0.6

    def sample_times(self, rng: np.random.Generator) -> Tuple[float, ...]:
        if self.count <= 0:
            return ()
        low, high = self.window_s
        if high < low:
            raise ConfigurationError("burst window must have high >= low")
        return tuple(sorted(rng.uniform(low, high, size=self.count)))


@dataclass(frozen=True)
class WorkloadMix:
    """One request composition.

    Attributes:
        name: label used in figures and reports.
        browse_fraction: probability a client runs a browsing session.
        think_time_s: mean negative-exponential think time (paper: 7 s).
        clients: closed-loop population size (paper: 1000).
        burst_schedules: per session type, the burst waves for this mix.
    """

    name: str
    browse_fraction: float
    think_time_s: float = 7.0
    clients: int = 1000
    burst_schedules: Dict[SessionType, BurstSchedule] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.browse_fraction <= 1.0:
            raise ConfigurationError("browse_fraction must be in [0, 1]")
        if self.think_time_s <= 0:
            raise ConfigurationError("think_time_s must be positive")
        if self.clients < 1:
            raise ConfigurationError("clients must be >= 1")

    def session_type(self, rng: np.random.Generator) -> SessionType:
        """Draw the session type of one client."""
        if rng.uniform() < self.browse_fraction:
            return SessionType.BROWSE
        return SessionType.BID

    @property
    def cache_key(self) -> tuple:
        """Hashable key over every field, burst schedules sorted by type."""
        bursts = tuple(
            sorted(
                (kind.value,) + astuple(schedule)
                for kind, schedule in self.burst_schedules.items()
            )
        )
        return tuple(
            bursts if spec_field.name == "burst_schedules"
            else getattr(self, spec_field.name)
            for spec_field in fields(self)
        )

    def burst_schedule(self, session_type: SessionType) -> BurstSchedule:
        return self.burst_schedules.get(session_type, BurstSchedule())

    def with_bursts(
        self, schedules: Dict[SessionType, BurstSchedule]
    ) -> "WorkloadMix":
        """Copy of this mix with different burst schedules."""
        return WorkloadMix(
            name=self.name,
            browse_fraction=self.browse_fraction,
            think_time_s=self.think_time_s,
            clients=self.clients,
            burst_schedules=dict(schedules),
        )


def browsing_mix(clients: int = 1000, think_time_s: float = 7.0) -> WorkloadMix:
    """The browsing-only composition."""
    return WorkloadMix("browsing", 1.0, think_time_s, clients)


def bidding_mix(clients: int = 1000, think_time_s: float = 7.0) -> WorkloadMix:
    """The bidding-only composition."""
    return WorkloadMix("bidding", 0.0, think_time_s, clients)


def blended_mix(
    browse_fraction: float, clients: int = 1000, think_time_s: float = 7.0
) -> WorkloadMix:
    """A blended composition, named like the paper ("30% browsing...")."""
    percent = int(round(browse_fraction * 100))
    name = f"{percent}% browsing / {100 - percent}% bidding"
    return WorkloadMix(name, browse_fraction, think_time_s, clients)


#: The paper's five request compositions (Section 4.1).
PAPER_COMPOSITIONS: Dict[str, WorkloadMix] = {
    "browsing": browsing_mix(),
    "bidding": bidding_mix(),
    "blend_30_70": blended_mix(0.30),
    "blend_50_50": blended_mix(0.50),
    "blend_70_30": blended_mix(0.70),
}
