"""Declarative vocabulary of the placement/migration subsystem.

:class:`VmRequest` describes what one VM asks of the fleet — the
placement policies consume a sequence of these.  :class:`FleetSpec`
describes the fleet controller: the signals it watches, the hysteresis
that keeps it from thrashing, and the live-migration model parameters.
Both are frozen, hashable plain data so they can ride inside a
scenario's cache fingerprint and serialize through
:class:`~repro.config.ExperimentConfig`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.plaindata import from_plain_dict
from repro.units import MB, SAMPLE_PERIOD_S

FIRST_FIT = "firstfit"
BEST_FIT = "bestfit"
BALANCE = "balance"
PRIORITY = "priority"
PLACEMENT_POLICIES = (FIRST_FIT, BEST_FIT, BALANCE, PRIORITY)

#: VCPU overcommit factor of a fleet: a server's schedulable VCPUs may
#: exceed its physical cores by this ratio (the credit scheduler
#: time-shares).  A one-server scenario's guests may oversubscribe its
#: cores without bound instead (``math.inf``): there is no other host
#: to spread them to, and oversubscription is what the consolidation
#: runs measure.  Memory reservations are hard on every host, so a VM
#: whose reservation does not fit is refused with ``PlacementError``.
DEFAULT_VCPU_OVERCOMMIT = 2.0


def server_names(count: int) -> Tuple[str, ...]:
    """The server names of a ``count``-server scenario, in index order."""
    return tuple(f"cloud-{index}" for index in range(1, count + 1))


@dataclass(frozen=True)
class VmRequest:
    """What one VM asks of the placement engine.

    Attributes:
        name: domain name the VM will be created under.
        vcpus: VCPU count (CPU reservation, overcommittable).
        memory_bytes: memory reservation (hard, never overcommitted).
        priority: gray-box workload class — positive for
            latency-sensitive (web) VMs, zero/negative for throughput
            (batch) VMs.  Only the ``priority`` policy reads it.
        group: affinity group; requests sharing a group are placed as
            one unit on one server (the web+db pair communicates over
            the software bridge and must stay co-located).
        movable: whether the fleet controller may live-migrate this VM
            (web tiers are pinned; batch tenants are movable).
    """

    name: str
    vcpus: int = 2
    memory_bytes: float = 2048 * MB
    priority: int = 0
    group: Optional[str] = None
    movable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("vm request needs a name")
        if self.vcpus < 1:
            raise ConfigurationError("vcpus must be >= 1")
        if self.memory_bytes <= 0:
            raise ConfigurationError("memory_bytes must be positive")


@dataclass(frozen=True)
class FleetSpec:
    """How the fleet controller observes the fleet and migrates VMs.

    The controller samples every ``interval_s``; a window is *hot* when
    the web p95 exceeds ``p95_high_ms`` or the watched web domain
    accrued more than ``ready_high_s`` core-seconds of CPU ready
    (steal) time inside the window.  After ``hot_windows`` consecutive
    hot windows it migrates one movable co-resident VM away from the
    web server — at most ``max_migrations`` per run, never more than
    one in flight, and never within ``cooldown_s`` of the previous
    migration (the hysteresis that keeps rebalancing from thrashing).

    The migration model: pre-copy rounds at
    ``migration_bandwidth_bps`` (rate-limited below the NIC line rate,
    like ``xl migrate``), a dirty-page rate of ``dirty_fraction_per_s``
    of the guest's current memory working set, rounds ending when the
    residual fits a ``downtime_target_s`` stop-and-copy window (or
    after ``max_precopy_rounds``), and traffic charged in
    ``chunk_bytes`` chunks so guest packets interleave with migration
    packets on the shared NICs.
    """

    #: When False the controller only *observes* (samples signals and
    #: records series) but never migrates — the no-migration baseline
    #: with directly comparable windowed telemetry, mirroring the
    #: elastic subsystem's ``static`` policy kind.
    active: bool = True
    interval_s: float = SAMPLE_PERIOD_S
    p95_high_ms: float = 50.0
    ready_high_s: float = 0.05
    hot_windows: int = 2
    cooldown_s: float = 30.0
    max_migrations: int = 4
    # -- failure detection -------------------------------------------------
    #: A server is declared *failed* after ``fail_windows`` consecutive
    #: windows in which it accrued more than ``fail_ready_s``
    #: core-seconds of CPU ready time — the signature of a crashed
    #: credit scheduler (every domain starves at once).  0 disables
    #: detection entirely (the pre-fault-subsystem behaviour; existing
    #: scenarios keep bit-identical traces).  On declaration the
    #: controller force-evacuates *every* guest domain off the failed
    #: server, pinned or not; forced migrations do not count against
    #: the voluntary ``max_migrations`` budget.
    fail_ready_s: float = 0.0
    fail_windows: int = 2
    # -- migration admission control ---------------------------------------
    #: When True every voluntary rebalancing migration is first run
    #: through :func:`repro.placement.admission.admit_migration`: the
    #: controller forecasts the pre-copy traffic and downtime from the
    #: candidate's live working set and only migrates when the
    #: predicted relief (remaining horizon x the hot signal's excess)
    #: exceeds ``admission_relief_ratio`` x the predicted cost.  False
    #: (the default) keeps the pre-admission behaviour — and therefore
    #: bit-identical traces — for every existing scenario.
    admission: bool = False
    admission_relief_ratio: float = 2.0
    # -- live-migration model ---------------------------------------------
    migration_bandwidth_bps: float = 62.5e6
    dirty_fraction_per_s: float = 0.01
    downtime_target_s: float = 0.3
    stop_copy_overhead_s: float = 0.03
    max_precopy_rounds: int = 8
    #: 1 MB chunks: ~8 ms of NIC occupancy each, so guest packets
    #: interleave with migration traffic instead of queueing behind
    #: whole-round transfers (real TCP interleaves at packet scale;
    #: chunks are the event-count-affordable approximation).
    chunk_bytes: float = 1 * MB

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ConfigurationError("interval_s must be positive")
        if self.p95_high_ms <= 0:
            raise ConfigurationError("p95_high_ms must be positive")
        if self.ready_high_s <= 0:
            raise ConfigurationError("ready_high_s must be positive")
        if self.hot_windows < 1:
            raise ConfigurationError("hot_windows must be >= 1")
        if self.cooldown_s < 0:
            raise ConfigurationError("cooldown_s must be >= 0")
        if self.max_migrations < 1:
            raise ConfigurationError("max_migrations must be >= 1")
        if self.fail_ready_s < 0:
            raise ConfigurationError("fail_ready_s must be >= 0")
        if self.fail_windows < 1:
            raise ConfigurationError("fail_windows must be >= 1")
        if self.admission_relief_ratio <= 0:
            raise ConfigurationError(
                "admission_relief_ratio must be positive"
            )
        if self.migration_bandwidth_bps <= 0:
            raise ConfigurationError(
                "migration_bandwidth_bps must be positive"
            )
        if not 0 < self.dirty_fraction_per_s < 1:
            raise ConfigurationError(
                "dirty_fraction_per_s must be in (0, 1)"
            )
        if self.downtime_target_s <= 0:
            raise ConfigurationError("downtime_target_s must be positive")
        if self.stop_copy_overhead_s < 0:
            raise ConfigurationError("stop_copy_overhead_s must be >= 0")
        if self.max_precopy_rounds < 1:
            raise ConfigurationError("max_precopy_rounds must be >= 1")
        if self.chunk_bytes <= 0:
            raise ConfigurationError("chunk_bytes must be positive")

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSpec":
        return from_plain_dict(cls, data, "fleet spec")


def validate_placement_policy(policy: str) -> str:
    """Return ``policy`` if known, else raise with the valid tokens."""
    if policy not in PLACEMENT_POLICIES:
        raise ConfigurationError(
            f"unknown placement policy {policy!r}; "
            f"choose from {PLACEMENT_POLICIES}"
        )
    return policy
