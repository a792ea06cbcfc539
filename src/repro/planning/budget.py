"""Bill-reading budget policy: watch $-per-kilorequest, flag overruns.

The cost module (:mod:`repro.planning.cost`) scores a *finished* run;
a fleet optimizer needs the same economics *mid-run*: every decision
window it reads the fleet's capacity bill and completed-request
counter, differences them against the previous window, and asks "is
this fleet currently paying more per thousand requests than the
budget allows?".  Capacity billing is lazy piecewise-constant accrual
(pure arithmetic, no events, no randomness), so reading the bill
between windows never perturbs the physics.

:class:`BudgetPolicy` is that windowed tracker.  It only *observes* —
the caller (the sharded fleet optimizer, or any controller) decides
what to throttle; the readings record why.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List

from repro.errors import ConfigurationError
from repro.plaindata import from_plain_dict
from repro.planning.cost import CostModel


@dataclass(frozen=True)
class BudgetSpec:
    """The fleet's economic envelope."""

    #: Ceiling on dollars per thousand completed requests; a window
    #: above it is an overrun.
    usd_per_kilorequest: float = 0.05
    #: Scheduler-cap floor (cores) a budget-driven throttle may push a
    #: domain down to — the optimizer never caps below this.
    min_cap_cores: float = 1.0
    #: Consecutive over-budget windows before acting (hysteresis).
    over_windows: int = 2
    cost_model: CostModel = CostModel()

    def __post_init__(self) -> None:
        if not isinstance(self.cost_model, CostModel):
            object.__setattr__(
                self, "cost_model", CostModel(**self.cost_model)
            )
        if self.usd_per_kilorequest <= 0:
            raise ConfigurationError(
                "usd_per_kilorequest must be positive"
            )
        if self.min_cap_cores <= 0:
            raise ConfigurationError("min_cap_cores must be positive")
        if self.over_windows < 1:
            raise ConfigurationError("over_windows must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BudgetSpec":
        """Reconstruct from a plain dict (fleet-scenario shipping)."""
        return from_plain_dict(cls, data, "budget spec")


@dataclass(frozen=True)
class BudgetReading:
    """One window's economics."""

    time_s: float
    #: Dollars accrued fleet-wide during this window.
    window_cost_usd: float
    #: Requests completed fleet-wide during this window.
    window_requests: int
    #: Window dollars per thousand window requests (inf when the fleet
    #: spent money and completed nothing; 0 when it did neither).
    usd_per_kilorequest: float
    over_budget: bool

    def to_dict(self) -> dict:
        return asdict(self)


class BudgetPolicy:
    """Windowed $-per-kilorequest tracker over a live capacity bill."""

    def __init__(self, spec: BudgetSpec) -> None:
        self.spec = spec
        self.readings: List[BudgetReading] = []
        self._last_cost_usd = 0.0
        self._last_requests = 0
        self._over_streak = 0

    def observe(
        self, billing: dict, requests_completed: int, time_s: float = 0.0
    ) -> BudgetReading:
        """Difference the bill/counter against the previous window.

        ``billing`` is either the raw ``{domain: bill}`` mapping or the
        testbed's ``{"kind": "billing", "domains": {...}}`` envelope;
        ``requests_completed`` is the run-cumulative counter.
        """
        total_usd = self.spec.cost_model.run_cost_usd(billing)["total"]
        window_cost = total_usd - self._last_cost_usd
        window_requests = requests_completed - self._last_requests
        self._last_cost_usd = total_usd
        self._last_requests = requests_completed
        if window_requests > 0:
            per_kilo = window_cost / (window_requests / 1000.0)
        elif window_cost > 0:
            per_kilo = float("inf")
        else:
            per_kilo = 0.0
        over = per_kilo > self.spec.usd_per_kilorequest
        self._over_streak = self._over_streak + 1 if over else 0
        reading = BudgetReading(
            time_s=float(time_s),
            window_cost_usd=window_cost,
            window_requests=window_requests,
            usd_per_kilorequest=per_kilo,
            over_budget=over,
        )
        self.readings.append(reading)
        return reading

    @property
    def should_act(self) -> bool:
        """True after ``over_windows`` consecutive overrun windows."""
        return self._over_streak >= self.spec.over_windows

    def report(self) -> dict:
        """Plain-data summary (rides ``control_reports``-style paths)."""
        return {
            "kind": "budget",
            "budget_usd_per_kilorequest": self.spec.usd_per_kilorequest,
            "windows": len(self.readings),
            "over_budget_windows": sum(
                1 for r in self.readings if r.over_budget
            ),
            "readings": [r.to_dict() for r in self.readings],
        }
