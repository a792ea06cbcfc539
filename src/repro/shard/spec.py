"""Declarative description of a sharded fleet-of-fleets run.

A *pod* is one self-contained multi-server testbed — its own
simulator, random streams, placement engine and workloads — described
by an ordinary :class:`~repro.config.ExperimentConfig`.  A
:class:`FleetScenario` names a set of pods, a lockstep window length
and (optionally) a fleet optimizer; the shard coordinator
(:mod:`repro.shard.coordinator`) partitions the pods over worker
processes and advances them window by window.

Determinism contract: every pod's seed derives from the fleet seed and
the pod's *name* through SHA-256
(:func:`~repro.experiments.suite.derive_run_seed`), never from which
shard it landed on — the same discipline the suite runner uses — so a
fleet's per-pod traces are bit-identical across shard counts.
Everything here round-trips through plain dicts, because worker
processes receive their pod set as JSON-able payloads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Optional, Tuple

from repro.config import ExperimentConfig
from repro.errors import ConfigurationError
from repro.experiments.suite import derive_run_seed
from repro.plaindata import from_plain_dict
from repro.planning.budget import BudgetSpec

#: Lockstep window length must be a multiple of the 2 s trace sampling
#: period so boundaries never fall between recorder ticks.
SAMPLE_PERIOD_S = 2.0


@dataclass(frozen=True)
class OptimizerSpec:
    """Knobs of the coordinator-side fleet optimizer.

    The optimizer reads every pod's window signals and issues commands
    at window boundaries: admission-gated live migrations on hot pods
    (with a cap-down throttle as the denied path), budget throttles
    when the fleet's $-per-kilorequest overruns, and cross-pod
    evacuations for stranded guests.
    """

    #: Web p95 ceiling (ms) above which a pod counts as hot.
    slo_p95_ms: float = 40.0
    #: Cap (cores) an SLO throttle applies to the chosen antagonist
    #: when a migration is denied or unavailable.
    throttle_cap_cores: float = 1.0
    #: Interference relief (seconds of SLO-violating time avoided) a
    #: migration is predicted to buy — the admission control benefit
    #: side.  Default: one lockstep window.
    relief_horizon_s: float = 10.0
    #: Required relief-to-cost ratio for admitting a migration.
    admission_relief_ratio: float = 2.0
    #: Total voluntary migrations the optimizer may command per run.
    max_migrations: int = 4
    #: Economic envelope; None disables the budget lever.
    budget: Optional[BudgetSpec] = None

    def __post_init__(self) -> None:
        if self.budget is not None and not isinstance(
            self.budget, BudgetSpec
        ):
            object.__setattr__(
                self, "budget", BudgetSpec.from_dict(self.budget)
            )
        if self.slo_p95_ms <= 0:
            raise ConfigurationError("slo_p95_ms must be positive")
        if self.throttle_cap_cores <= 0:
            raise ConfigurationError("throttle_cap_cores must be positive")
        if self.relief_horizon_s <= 0:
            raise ConfigurationError("relief_horizon_s must be positive")
        if self.admission_relief_ratio <= 0:
            raise ConfigurationError(
                "admission_relief_ratio must be positive"
            )
        if self.max_migrations < 0:
            raise ConfigurationError("max_migrations must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerSpec":
        return from_plain_dict(cls, data, "optimizer spec")


@dataclass(frozen=True)
class PodSpec:
    """One pod: a named, self-contained multi-server testbed."""

    name: str
    config: ExperimentConfig

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("pod name must be non-empty")
        if "/" in self.name or "@" in self.name:
            # "/" structures seed ids; "@" tags evacuated-VM renames.
            raise ConfigurationError(
                f"pod name {self.name!r} must not contain '/' or '@'"
            )
        if not isinstance(self.config, ExperimentConfig):
            object.__setattr__(
                self, "config", ExperimentConfig.from_dict(self.config)
            )

    def to_dict(self) -> dict:
        return {"name": self.name, "config": self.config.to_dict()}


@dataclass(frozen=True)
class FleetScenario:
    """A named set of pods advancing in lockstep windows."""

    name: str
    pods: Tuple[PodSpec, ...]
    duration_s: float = 60.0
    window_s: float = 10.0
    seed: int = 42
    optimizer: Optional[OptimizerSpec] = None
    #: Coordinator-side deadline for one shard to deliver its window
    #: message before the run fails fast with a ShardTimeoutError.
    heartbeat_timeout_s: float = 300.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("fleet name must be non-empty")
        coerced = tuple(
            pod if isinstance(pod, PodSpec) else PodSpec(**pod)
            for pod in self.pods
        )
        object.__setattr__(self, "pods", coerced)
        if not self.pods:
            raise ConfigurationError("a fleet needs at least one pod")
        names = [pod.name for pod in self.pods]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate pod names: {names}")
        if self.optimizer is not None and not isinstance(
            self.optimizer, OptimizerSpec
        ):
            object.__setattr__(
                self, "optimizer", OptimizerSpec.from_dict(self.optimizer)
            )
        if self.duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        if self.window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        windows = self.duration_s / self.window_s
        if abs(windows - round(windows)) > 1e-9:
            raise ConfigurationError(
                f"duration_s ({self.duration_s}) must be a whole number "
                f"of windows ({self.window_s} s each)"
            )
        period = self.window_s / SAMPLE_PERIOD_S
        if abs(period - round(period)) > 1e-9:
            raise ConfigurationError(
                f"window_s ({self.window_s}) must be a multiple of the "
                f"{SAMPLE_PERIOD_S} s sampling period"
            )
        if self.heartbeat_timeout_s <= 0:
            raise ConfigurationError("heartbeat_timeout_s must be positive")

    # -- derived views -----------------------------------------------------

    @property
    def boundaries(self) -> Tuple[float, ...]:
        """The window-end times ``(window_s, 2*window_s, ..., duration)``."""
        count = round(self.duration_s / self.window_s)
        return tuple(
            round(k * self.window_s, 9) for k in range(1, count + 1)
        )

    def pod_seed(self, pod_name: str) -> int:
        """The pod's derived seed (shard-placement independent)."""
        return derive_run_seed(self.seed, f"{self.name}/{pod_name}")

    def pod_names(self) -> Tuple[str, ...]:
        return tuple(pod.name for pod in self.pods)

    def server_count(self) -> int:
        return sum(pod.config.servers for pod in self.pods)

    def vm_count(self) -> int:
        """Placed VMs at build time: the web pair + tenants, per pod."""
        return sum(2 + len(pod.config.tenants) for pod in self.pods)

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict:
        # Field by field: ``asdict`` would convert every pod's config
        # once more only for the pods entry to be replaced.
        data = {field.name: getattr(self, field.name) for field in fields(self)}
        data["pods"] = [pod.to_dict() for pod in self.pods]
        if self.optimizer is not None:
            data["optimizer"] = self.optimizer.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FleetScenario":
        return from_plain_dict(cls, data, "fleet scenario")
