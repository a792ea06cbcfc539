"""Declarative fault specifications.

A :class:`FaultSpec` is the plain-data description of one injected
fault: what breaks (``kind``), when (``at_s`` plus an optional
sha256-seed-derived jitter window), for how long (``duration_s``; 0
means "until the horizon"), where (``target`` server or domain; empty
means "the web server / web VM", resolved at build time) and how hard
(``magnitude``, with a per-kind default).  A :class:`FaultSchedule` is
the ordered tuple of faults one scenario injects.

Both are frozen, hashable dataclasses so a schedule can ride inside a
scenario's cache fingerprint and serialize through
:class:`~repro.config.ExperimentConfig`, and both round-trip through
the CLI token syntax ``repro run --faults`` accepts::

    crash@60                 server crash 60 s in, until the horizon
    degrade_disk@30:20       degraded disk at t=30 for 20 s
    cap_theft@40:30:0.25     steal the victim's cap down to 0.25 cores
    crash@60/cloud-2         explicit target (server or domain)
    crash@60+bot_flood@90    "+"-joined faults form one schedule

Timing discipline matches the suite's seed derivation: the *resolved*
injection time is ``at_s`` plus a jitter drawn from
``sha256(seed:index:kind)`` mapped into ``[0, jitter_s)`` — the same
hash-not-RNG recipe as :func:`repro.experiments.suite.derive_run_seed`,
so fault onsets are reproducible across processes and worker counts
and never touch the simulation's RNG streams.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.plaindata import from_plain_dict

CRASH = "crash"
DEGRADE_DISK = "degrade_disk"
DEGRADE_NIC = "degrade_nic"
CAP_THEFT = "cap_theft"
DOM0_SATURATE = "dom0_saturate"
BOT_FLOOD = "bot_flood"
FLASH_CROWD = "flash_crowd"
FAULT_KINDS = (
    CRASH,
    DEGRADE_DISK,
    DEGRADE_NIC,
    CAP_THEFT,
    DOM0_SATURATE,
    BOT_FLOOD,
    FLASH_CROWD,
)

#: Per-kind meaning (and default) of ``magnitude``:
#:
#: * ``crash`` — residual fraction of the server's cores left to the
#:   credit scheduler (a crashed box is not *gone* from the fabric —
#:   its NIC still answers the evacuation — but compute collapses).
#: * ``degrade_disk`` / ``degrade_nic`` — slowdown factor on the
#:   backend (bandwidth divided, access latency multiplied).
#: * ``cap_theft`` — the cap (cores) the victim domain is left with.
#: * ``dom0_saturate`` — extra dom0 workers contending at weight 512.
#: * ``bot_flood`` — bot arrival rate in requests/s.
#: * ``flash_crowd`` — surge magnitude of the rate envelope.
DEFAULT_MAGNITUDE = {
    CRASH: 0.05,
    DEGRADE_DISK: 8.0,
    DEGRADE_NIC: 8.0,
    CAP_THEFT: 0.25,
    DOM0_SATURATE: 8.0,
    BOT_FLOOD: 150.0,
    FLASH_CROWD: 8.0,
}

#: Fault kinds whose ``target`` names a physical server (the rest
#: target a guest domain).
SERVER_TARGET_KINDS = (CRASH, DEGRADE_DISK, DEGRADE_NIC, DOM0_SATURATE)

#: Token separator between faults of one ``--faults`` schedule ("," is
#: taken by sweep-axis splitting).
SCHEDULE_SEPARATOR = "+"


def _derive_jitter(seed: int, index: int, spec: "FaultSpec") -> float:
    """Deterministic onset jitter in ``[0, spec.jitter_s)``.

    Same sha256 discipline as the suite's per-run seed derivation: a
    pure function of (seed, schedule position, kind), independent of
    every RNG stream the simulation draws from.
    """
    if spec.jitter_s <= 0.0:
        return 0.0
    digest = hashlib.sha256(
        f"{int(seed)}:{index}:{spec.kind}@{spec.at_s}".encode("utf-8")
    ).digest()
    unit = (int.from_bytes(digest[:8], "big") >> 11) / float(1 << 53)
    return unit * spec.jitter_s


@dataclass(frozen=True)
class FaultSpec:
    """One fault: kind, onset, duration, target and magnitude."""

    kind: str
    at_s: float
    #: Seconds until the fault self-clears; 0 means it holds to the
    #: horizon (recovery, if any, must come from a controller).
    duration_s: float = 0.0
    #: Target server (crash/degrade/dom0) or domain (cap theft).
    #: Empty resolves at build time to the server hosting the web VM
    #: (server kinds) or to ``web-vm`` itself (cap theft).  A scenario
    #: rejects any name that is not one of its VMs or, for the server
    #: kinds, one of its servers.
    target: str = ""
    #: Kind-specific severity; 0 picks the kind's default.
    magnitude: float = 0.0
    #: Width of the sha256-seed-derived onset jitter window.
    jitter_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {FAULT_KINDS}"
            )
        if self.at_s < 0:
            raise ConfigurationError("fault at_s must be >= 0")
        if self.duration_s < 0:
            raise ConfigurationError("fault duration_s must be >= 0")
        if self.magnitude < 0:
            raise ConfigurationError("fault magnitude must be >= 0")
        if self.jitter_s < 0:
            raise ConfigurationError("fault jitter_s must be >= 0")
        if self.kind == CRASH and self.magnitude >= 1.0:
            raise ConfigurationError(
                "crash magnitude is the residual core fraction; "
                "need < 1"
            )
        if self.kind in (DEGRADE_DISK, DEGRADE_NIC) and (
            0.0 < self.magnitude < 1.0
        ):
            raise ConfigurationError(
                "degrade magnitude is a slowdown factor; need >= 1"
            )
        if self.kind == FLASH_CROWD and 0.0 < self.magnitude < 1.0:
            raise ConfigurationError(
                "flash-crowd magnitude is a surge factor; need >= 1"
            )

    @property
    def effective_magnitude(self) -> float:
        """The magnitude with the kind default applied."""
        if self.magnitude > 0:
            return self.magnitude
        return DEFAULT_MAGNITUDE[self.kind]

    @property
    def server_target(self) -> bool:
        """True when ``target`` names a server rather than a domain."""
        return self.kind in SERVER_TARGET_KINDS

    # -- CLI syntax --------------------------------------------------------

    def as_cli_token(self) -> str:
        """The ``kind@at[:duration[:magnitude]][/target]`` token."""
        token = f"{self.kind}@{self.at_s:g}"
        if self.duration_s or self.magnitude:
            token += f":{self.duration_s:g}"
        if self.magnitude:
            token += f":{self.magnitude:g}"
        if self.target:
            token += f"/{self.target}"
        return token

    @classmethod
    def from_cli_token(cls, text: str) -> "FaultSpec":
        """Parse one ``kind@at[:duration[:magnitude]][/target]`` token."""
        token = text.strip()
        target = ""
        if "/" in token:
            token, target = token.split("/", 1)
            target = target.strip()
        if "@" not in token:
            raise ConfigurationError(
                f"fault token {text!r} needs kind@time, e.g. crash@60"
            )
        kind, timing = token.split("@", 1)
        kind = kind.strip()
        parts = timing.split(":")
        if len(parts) > 3:
            raise ConfigurationError(
                f"fault token {text!r} has too many ':' fields "
                "(at[:duration[:magnitude]])"
            )
        try:
            numbers = [float(part) for part in parts]
        except ValueError:
            raise ConfigurationError(
                f"fault token {text!r} has non-numeric timing fields"
            )
        at_s = numbers[0]
        duration_s = numbers[1] if len(numbers) > 1 else 0.0
        magnitude = numbers[2] if len(numbers) > 2 else 0.0
        return cls(
            kind=kind,
            at_s=at_s,
            duration_s=duration_s,
            target=target,
            magnitude=magnitude,
        )

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return from_plain_dict(cls, data, "fault spec")


@dataclass(frozen=True)
class ResolvedFault:
    """One fault with its seed-resolved inject/clear times."""

    spec: FaultSpec
    inject_at_s: float
    #: None when the fault holds to the horizon.
    clear_at_s: Optional[float]


@dataclass(frozen=True)
class FaultSchedule:
    """The ordered set of faults one scenario injects."""

    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        # Deserialized schedules arrive as lists of plain dicts.
        object.__setattr__(
            self,
            "faults",
            tuple(
                FaultSpec.from_dict(fault) if isinstance(fault, dict) else fault
                for fault in self.faults
            ),
        )
        if not self.faults:
            raise ConfigurationError(
                "a fault schedule needs at least one fault"
            )
        for fault in self.faults:
            if not isinstance(fault, FaultSpec):
                raise ConfigurationError(
                    f"schedule entries must be FaultSpec, got "
                    f"{type(fault).__name__}"
                )

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def kinds(self) -> Tuple[str, ...]:
        return tuple(fault.kind for fault in self.faults)

    def resolve(self, seed: int) -> Tuple[ResolvedFault, ...]:
        """Seed-resolved (inject, clear) times, sorted by onset.

        Pure plain-data function: the same (schedule, seed) resolves to
        bit-identical times in every process, which is what the suite's
        worker-count invariance rests on.
        """
        resolved = []
        for index, spec in enumerate(self.faults):
            inject = spec.at_s + _derive_jitter(seed, index, spec)
            clear = inject + spec.duration_s if spec.duration_s else None
            resolved.append(ResolvedFault(spec, inject, clear))
        resolved.sort(key=lambda r: (r.inject_at_s, r.spec.kind))
        return tuple(resolved)

    # -- CLI syntax --------------------------------------------------------

    def as_cli_string(self) -> str:
        """The ``--faults`` value this schedule corresponds to."""
        return SCHEDULE_SEPARATOR.join(
            fault.as_cli_token() for fault in self.faults
        )

    @classmethod
    def from_cli_string(cls, text: str) -> "FaultSchedule":
        """Parse a ``+``-joined list of fault tokens."""
        tokens = [
            token for token in text.split(SCHEDULE_SEPARATOR) if token.strip()
        ]
        if not tokens:
            raise ConfigurationError(
                f"--faults {text!r} names no faults"
            )
        return cls(
            faults=tuple(FaultSpec.from_cli_token(token) for token in tokens)
        )

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {"faults": [fault.to_dict() for fault in self.faults]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        return from_plain_dict(cls, data, "fault schedule")
