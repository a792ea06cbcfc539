"""Fault actuators: what each fault kind does to the live testbed.

An injector pairs an ``inject()`` with a ``clear()``; both are
idempotence-free single-shot actions the
:class:`~repro.faults.controller.FaultController` fires at the
schedule's resolved times.  Injectors save the exact pre-fault values
they overwrite and restore them verbatim on clear, so a cleared fault
leaves the hardware/scheduler state bit-identical to a run in which it
never fired (from the clear point onward).

What each kind touches:

* ``crash`` — collapses the credit scheduler's ``total_cores`` to a
  residual fraction.  Every domain on the server (dom0 included)
  starves, speed fractions collapse and CPU-ready time floods the
  per-server fleet signals — the detectable "server went dark" shape.
  The NIC keeps answering, which is what lets the fleet controller
  evacuate the domains off the box under pressure.
* ``degrade_disk`` / ``degrade_nic`` — divide the backend's bandwidth
  by the slowdown factor (and multiply disk access latency by it).
* ``cap_theft`` — a noisy neighbour steals the victim domain's credit
  cap: the cap is forced down to ``magnitude`` cores.  Clearing only
  restores the cap if no controller has re-actuated it meanwhile — an
  elastic controller's recovery must not be silently undone.
* ``dom0_saturate`` — parks extra workers on dom0's demand gauge; at
  weight 512 they crowd the guests out of the credit scheduler.
* ``bot_flood`` — a deterministic Poisson stream of bot sessions
  hammering the heaviest read interactions through the normal request
  path (the server pays for them; no client statistic counts them).
* ``flash_crowd`` — handled declaratively: the testbed composes a
  :class:`~repro.traffic.shapes.FlashCrowdShape` into the open-loop
  envelope at build time, so the injector itself is a no-op marker
  that exists to emit the inject/clear trace events.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.spec import (
    BOT_FLOOD,
    CAP_THEFT,
    CRASH,
    DEGRADE_DISK,
    DEGRADE_NIC,
    DOM0_SATURATE,
    FLASH_CROWD,
    FaultSpec,
)

#: Read-heavy RUBiS interactions a scraping bot hammers (cycled
#: deterministically, heaviest first).
BOT_INTERACTIONS = (
    "SearchItemsInCategory",
    "SearchItemsInRegion",
    "ViewItem",
    "BrowseCategories",
)


class Injector:
    """One fault's inject/clear actuator pair."""

    def inject(self) -> None:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


class ServerCrashInjector(Injector):
    """Collapse a server's schedulable cores to a residual fraction."""

    def __init__(self, hypervisor, residual_fraction: float) -> None:
        self.hypervisor = hypervisor
        self.residual = residual_fraction
        self._saved_cores: Optional[float] = None

    def inject(self) -> None:
        scheduler = self.hypervisor.scheduler
        self._saved_cores = scheduler.total_cores
        scheduler.total_cores = self._saved_cores * self.residual

    def clear(self) -> None:
        if self._saved_cores is not None:
            self.hypervisor.scheduler.total_cores = self._saved_cores
            self._saved_cores = None


class DiskDegradeInjector(Injector):
    """Slow a server's disk: bandwidth divided, latency multiplied."""

    def __init__(self, server, factor: float) -> None:
        self.server = server
        self.factor = factor
        self._saved = None

    def inject(self) -> None:
        disk = self.server.disk
        self._saved = (
            disk.read_bandwidth_bps,
            disk.write_bandwidth_bps,
            disk.access_latency_s,
        )
        disk.read_bandwidth_bps = self._saved[0] / self.factor
        disk.write_bandwidth_bps = self._saved[1] / self.factor
        disk.access_latency_s = self._saved[2] * self.factor

    def clear(self) -> None:
        if self._saved is not None:
            disk = self.server.disk
            (
                disk.read_bandwidth_bps,
                disk.write_bandwidth_bps,
                disk.access_latency_s,
            ) = self._saved
            self._saved = None


class NicDegradeInjector(Injector):
    """Divide a server NIC's bandwidth by the slowdown factor."""

    def __init__(self, server, factor: float) -> None:
        self.server = server
        self.factor = factor
        self._saved: Optional[float] = None

    def inject(self) -> None:
        nic = self.server.nic
        self._saved = nic.bandwidth_bps
        nic.bandwidth_bps = self._saved / self.factor

    def clear(self) -> None:
        if self._saved is not None:
            self.server.nic.bandwidth_bps = self._saved
            self._saved = None


class CapTheftInjector(Injector):
    """Force a victim domain's credit cap down to the stolen residue."""

    def __init__(self, hypervisor, domain_name: str, stolen_cap: float) -> None:
        self.hypervisor = hypervisor
        self.domain_name = domain_name
        self.stolen_cap = stolen_cap
        self._saved_cap: Optional[float] = None

    def inject(self) -> None:
        domain = self.hypervisor.domain(self.domain_name)
        self._saved_cap = domain.cap_cores
        self.hypervisor.set_cap_cores(domain, self.stolen_cap)

    def clear(self) -> None:
        if self._saved_cap is None:
            return
        domain = self.hypervisor.domain(self.domain_name)
        # Restore only if the theft is still in force: an elastic
        # controller that already re-raised the cap owns it now.
        if domain.cap_cores == self.stolen_cap:
            self.hypervisor.set_cap_cores(domain, self._saved_cap)
        self._saved_cap = None


class Dom0SaturateInjector(Injector):
    """Park extra workers on dom0 (weight 512 crowds the guests)."""

    def __init__(self, hypervisor, extra_workers: int) -> None:
        self.hypervisor = hypervisor
        self.extra_workers = extra_workers
        self._parked = 0

    def inject(self) -> None:
        self.hypervisor.dom0.active_workers += self.extra_workers
        self._parked = self.extra_workers

    def clear(self) -> None:
        if self._parked:
            self.hypervisor.dom0.active_workers -= self._parked
            self._parked = 0


class _BotSession:
    """Minimal session shim: the request path reads ``session_id``.

    A bot is a one-request visit, so its one request is the first of
    its visit (``requests_sent``, which request tracing reads).
    """

    __slots__ = ("session_id",)

    requests_sent = 1

    def __init__(self, session_id: int) -> None:
        self.session_id = session_id


class BotFloodInjector(Injector):
    """Deterministic Poisson bot traffic through the request path.

    Bots ride the exact send path real sessions use, so the web/db
    tiers, the dom0 backends and every probe pay for them — but their
    responses terminate here, never in the client statistics.  The
    arrival gaps draw from a dedicated ``faults.botflood`` stream, so a
    flood never perturbs any pre-existing RNG stream.
    """

    def __init__(
        self,
        sim,
        deployment,
        rate_rps: float,
        rng: np.random.Generator,
    ) -> None:
        self.sim = sim
        self.deployment = deployment
        self.rate_rps = rate_rps
        self.rng = rng
        self.bots_sent = 0
        self.bots_answered = 0
        self._active = False
        self._pending = None

    def inject(self) -> None:
        self._active = True
        self._schedule_next()

    def clear(self) -> None:
        self._active = False
        if self._pending is not None:
            self.sim.cancel(self._pending)
            self._pending = None

    def _schedule_next(self) -> None:
        gap = self.rng.exponential(1.0 / self.rate_rps)
        self._pending = self.sim.schedule(gap, self._fire)

    def _fire(self) -> None:
        self._pending = None
        if not self._active:
            return
        interaction = BOT_INTERACTIONS[
            self.bots_sent % len(BOT_INTERACTIONS)
        ]
        # Negative ids keep bot sessions disjoint from every real
        # session id the drivers hand out.
        session = _BotSession(-1 - self.bots_sent)
        self.bots_sent += 1
        self.deployment.send(session, interaction, self._answered)
        self._schedule_next()

    def _answered(self, request) -> None:
        self.bots_answered += 1


class MarkerInjector(Injector):
    """No-op actuator for declaratively applied faults (flash crowd).

    The fault's effect is baked into the build (the traffic envelope);
    this marker exists so the controller still emits the
    ``fault.inject``/``fault.clear`` events at the resolved times.
    """

    def inject(self) -> None:
        pass

    def clear(self) -> None:
        pass


def build_injector(
    spec: FaultSpec,
    hypervisor,
    deployment,
    rng_factory,
) -> Injector:
    """Construct the actuator for one resolved fault.

    ``hypervisor`` is the target's (already resolved by the testbed),
    ``deployment`` the web deployment (bot floods ride its send path)
    and ``rng_factory`` a named-stream factory (``streams.stream``).
    """
    magnitude = spec.effective_magnitude
    if spec.kind == CRASH:
        return ServerCrashInjector(hypervisor, magnitude)
    if spec.kind == DEGRADE_DISK:
        return DiskDegradeInjector(hypervisor.server, magnitude)
    if spec.kind == DEGRADE_NIC:
        return NicDegradeInjector(hypervisor.server, magnitude)
    if spec.kind == CAP_THEFT:
        return CapTheftInjector(
            hypervisor, spec.target or "web-vm", magnitude
        )
    if spec.kind == DOM0_SATURATE:
        return Dom0SaturateInjector(hypervisor, int(round(magnitude)))
    if spec.kind == BOT_FLOOD:
        return BotFloodInjector(
            deployment.sim,
            deployment,
            magnitude,
            rng_factory(f"faults.botflood.{spec.at_s:g}"),
        )
    if spec.kind == FLASH_CROWD:
        return MarkerInjector()
    raise ConfigurationError(  # pragma: no cover - guarded by FaultSpec
        f"unhandled fault kind {spec.kind!r}"
    )
