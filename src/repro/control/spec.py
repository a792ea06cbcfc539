"""Declarative controller specifications.

A :class:`ControllerSpec` is the plain-data description of one elastic
controller: which policy runs (``static`` / ``threshold`` / ``pid`` /
``predictive``), which domains it resizes, the capacity band it may
move them within (CPU cap, VCPUs, memory), and the policy knobs.  It is
a frozen, hashable dataclass so it can ride inside a scenario's cache
fingerprint and serialize through
:class:`~repro.config.ExperimentConfig`.

``kind="static"`` is the *baseline* controller: it applies the same
initial (minimum) capacity and records the same control signals as an
active policy, but never actuates — the static-provisioning run every
autoscaling experiment compares against.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Tuple

from repro.errors import ConfigurationError
from repro.plaindata import from_plain_dict
from repro.units import SAMPLE_PERIOD_S

STATIC = "static"
THRESHOLD = "threshold"
PID = "pid"
PREDICTIVE = "predictive"
CONTROLLER_KINDS = (STATIC, THRESHOLD, PID, PREDICTIVE)


@dataclass(frozen=True)
class ControllerSpec:
    """How one elastic controller observes and resizes tenant capacity.

    Capacity mapping: the policy emits a load *level* in ``[0, 1]``;
    the controller maps it linearly into the ``[min, max]`` bands below
    (snapped to the step sizes), hotplugging VCPUs to cover the CPU cap
    and — when a balloon band is configured — ballooning memory along.
    ``invert=True`` flips the mapping (capacity shrinks as load rises):
    the priority-aware throttle for antagonist tenants.
    """

    kind: str = THRESHOLD
    #: Domains this controller resizes (tenant-attached controllers
    #: replace this with the tenant's own VM).
    domains: Tuple[str, ...] = ("web-vm", "db-vm")
    #: Decision epoch.  Defaults to the 2 s sampling period so the
    #: control series align with the trace recorder's grid (wide-CSV
    #: exports require aligned series).
    interval_s: float = SAMPLE_PERIOD_S
    #: High load shrinks (instead of grows) capacity — antagonist throttling.
    invert: bool = False
    # -- CPU capacity band -------------------------------------------------
    min_cap_cores: float = 0.25
    max_cap_cores: float = 2.0
    step_cores: float = 0.25
    min_vcpus: int = 1
    max_vcpus: int = 2
    #: Weight multiplier at full level: ``weight = base * (1 + boost * level)``
    #: (0 disables weight actuation).
    weight_boost: float = 0.0
    # -- memory balloon band (0/0 disables ballooning) ---------------------
    balloon_min_mb: float = 0.0
    balloon_max_mb: float = 0.0
    balloon_step_mb: float = 256.0
    #: Front-end session capacity per GB of the first domain's memory:
    #: ballooning the web VM up raises the open-loop driver's session
    #: budget (MaxClients scales with memory).  0 leaves the budget alone.
    sessions_per_gb: float = 0.0
    # -- threshold / hysteresis policy -------------------------------------
    p95_high_ms: float = 100.0
    p95_low_ms: float = 25.0
    shed_high: float = 0.02
    up_step: float = 0.34
    down_step: float = 0.2
    calm_windows: int = 3
    # -- PID policy --------------------------------------------------------
    p95_target_ms: float = 60.0
    kp: float = 0.5
    ki: float = 0.1
    # -- predictive policy -------------------------------------------------
    ar_order: int = 2
    lead_windows: int = 2
    history_windows: int = 48
    #: Offered-rate ratio (vs. the calm baseline) mapped to level 1.0.
    surge_ref_ratio: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in CONTROLLER_KINDS:
            raise ConfigurationError(
                f"unknown controller kind {self.kind!r}; "
                f"choose from {CONTROLLER_KINDS}"
            )
        if not isinstance(self.domains, tuple):
            object.__setattr__(self, "domains", tuple(self.domains))
        if not self.domains:
            raise ConfigurationError("a controller needs at least one domain")
        if len(set(self.domains)) != len(self.domains):
            raise ConfigurationError(
                f"duplicate controller domains: {list(self.domains)}"
            )
        if self.interval_s <= 0:
            raise ConfigurationError("interval_s must be positive")
        if not 0 < self.min_cap_cores <= self.max_cap_cores:
            raise ConfigurationError(
                "need 0 < min_cap_cores <= max_cap_cores"
            )
        if self.step_cores <= 0:
            raise ConfigurationError("step_cores must be positive")
        if not 1 <= self.min_vcpus <= self.max_vcpus:
            raise ConfigurationError("need 1 <= min_vcpus <= max_vcpus")
        if self.weight_boost < 0:
            raise ConfigurationError("weight_boost must be >= 0")
        if self.balloon_min_mb < 0 or self.balloon_max_mb < 0:
            raise ConfigurationError("balloon bounds must be >= 0")
        if bool(self.balloon_min_mb) != bool(self.balloon_max_mb):
            raise ConfigurationError(
                "balloon_min_mb and balloon_max_mb must be set together"
            )
        if self.balloon_max_mb and (
            self.balloon_min_mb > self.balloon_max_mb
        ):
            raise ConfigurationError(
                "need balloon_min_mb <= balloon_max_mb"
            )
        if self.balloon_step_mb <= 0:
            raise ConfigurationError("balloon_step_mb must be positive")
        if self.sessions_per_gb < 0:
            raise ConfigurationError("sessions_per_gb must be >= 0")
        if self.sessions_per_gb > 0 and not self.balloon_max_mb:
            raise ConfigurationError(
                "sessions_per_gb needs a balloon band (the budget "
                "follows ballooned memory)"
            )
        if not 0 < self.p95_low_ms < self.p95_high_ms:
            raise ConfigurationError("need 0 < p95_low_ms < p95_high_ms")
        if self.shed_high <= 0:
            raise ConfigurationError("shed_high must be positive")
        if not 0 < self.up_step <= 1 or not 0 < self.down_step <= 1:
            raise ConfigurationError("up/down steps must be in (0, 1]")
        if self.calm_windows < 1:
            raise ConfigurationError("calm_windows must be >= 1")
        if self.p95_target_ms <= 0:
            raise ConfigurationError("p95_target_ms must be positive")
        if self.kp < 0 or self.ki < 0:
            raise ConfigurationError("PID gains must be >= 0")
        if self.ar_order < 1:
            raise ConfigurationError("ar_order must be >= 1")
        if self.lead_windows < 1:
            raise ConfigurationError("lead_windows must be >= 1")
        if self.history_windows < max(
            12, 4 * self.ar_order + self.lead_windows
        ):
            # Must cover the predictive policy's activation minimum
            # (policies.PredictivePolicy), or the AR branch could
            # never fire and "predictive" would silently degrade to
            # pure threshold behaviour.
            raise ConfigurationError(
                "history_windows too small: the predictive policy "
                f"needs >= max(12, 4 * ar_order + lead_windows) = "
                f"{max(12, 4 * self.ar_order + self.lead_windows)} "
                "windows of offered-rate history"
            )
        if self.surge_ref_ratio <= 1:
            raise ConfigurationError("surge_ref_ratio must be > 1")

    @property
    def active(self) -> bool:
        """True when the policy actuates (everything but ``static``)."""
        return self.kind != STATIC

    @property
    def balloon_enabled(self) -> bool:
        """True when a memory balloon band is configured."""
        return self.balloon_max_mb > 0

    def for_domain(self, domain: str) -> "ControllerSpec":
        """Copy retargeted at one domain (tenant-attached controllers)."""
        return replace(self, domains=(domain,))

    @classmethod
    def from_kind(cls, kind: str) -> "ControllerSpec":
        """Default-band spec for a CLI policy token."""
        return cls(kind=kind)

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        data["domains"] = list(self.domains)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ControllerSpec":
        """Reconstruct from a plain dict (config deserialization)."""
        return from_plain_dict(cls, data, "controller spec")
