"""Declarative traffic specifications.

A :class:`TrafficSpec` is the plain-data description of how load is
offered to a deployment — the traffic analogue of
:class:`~repro.experiments.scenarios.Scenario`.  It is a frozen,
hashable dataclass so it can ride inside a scenario's cache key, and it
round-trips through the CLI string syntax
(``closed`` / ``poisson`` / ``mmpp`` / ``bmodel`` / ``trace:<path>``)
that ``repro run --traffic`` accepts.

``build_driver`` turns a spec into a live
:class:`~repro.traffic.driver.OpenLoopDriver` wired to a deployment's
send function; the experiment runner calls it whenever a scenario
carries a non-closed spec.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.errors import AnalysisError, ConfigurationError
from repro.rubis.client import SendFn
from repro.rubis.transitions import TransitionMatrix
from repro.rubis.workload import SessionType, WorkloadMix
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.traffic.arrivals import (
    ArrivalProcess,
    BModelProcess,
    MMPPProcess,
    ModulatedProcess,
    PoissonProcess,
)
from repro.traffic.driver import OpenLoopDriver
from repro.traffic.shapes import RateShape
from repro.traffic.trace import RateTrace, TraceReplayProcess
from repro.units import SAMPLE_PERIOD_S

CLOSED = "closed"
POISSON = "poisson"
MMPP = "mmpp"
BMODEL = "bmodel"
TRACE = "trace"
TRAFFIC_KINDS = (CLOSED, POISSON, MMPP, BMODEL, TRACE)

#: RNG stream the open-loop machinery draws from by default.  Distinct
#: from "clients" so adding open-loop runs never perturbs closed-loop
#: draws (the engine's A/B-ablation guarantee).
DEFAULT_STREAM = "traffic"


@dataclass(frozen=True)
class TrafficSpec:
    """How load is offered: the driver kind plus its knobs.

    ``rate_rps=None`` means "match the closed-loop long-run intensity"
    (``mix.clients / mix.think_time_s``), which makes open-vs-closed
    comparisons of the same scenario apples-to-apples by default.
    """

    kind: str = CLOSED
    rate_rps: Optional[float] = None
    shape: Optional[RateShape] = None
    trace_path: Optional[str] = None
    trace_column: Optional[str] = None
    session_budget: Optional[int] = None
    requests_per_session: int = 1
    #: Shed-arrival retry policy: a shed visit retries up to
    #: ``retry_max`` times with deterministic exponential backoff
    #: before abandoning (0 = the classic immediate-abandon semantics).
    retry_max: int = 0
    retry_backoff_s: float = 2.0
    #: MMPP defaults: a base regime and a burst regime at
    #: ``mmpp_burst_ratio`` times the base rate, alternating.
    mmpp_burst_ratio: float = 4.0
    mmpp_base_sojourn_s: float = 40.0
    mmpp_burst_sojourn_s: float = 10.0
    #: b-model cascade knobs (see BModelProcess).
    bmodel_bias: float = 0.7
    bmodel_window_s: float = 64.0
    bmodel_levels: int = 6
    #: Base name of the engine RNG streams the driver draws from.  Two
    #: independent streams are derived: ``<stream>.arrivals`` feeds the
    #: arrival process and ``<stream>.sessions`` the per-session draws,
    #: so admission decisions and session behaviour can never perturb
    #: the offered arrival times (the open-loop invariant).
    stream: str = DEFAULT_STREAM

    def __post_init__(self) -> None:
        if self.kind not in TRAFFIC_KINDS:
            raise ConfigurationError(
                f"unknown traffic kind {self.kind!r}; "
                f"choose from {TRAFFIC_KINDS}"
            )
        if self.rate_rps is not None and self.rate_rps <= 0:
            raise ConfigurationError("rate_rps must be positive")
        if self.kind == TRACE and not self.trace_path:
            raise ConfigurationError("trace traffic needs trace_path")
        if self.kind != TRACE and self.trace_path:
            raise ConfigurationError(
                f"trace_path is only valid with kind={TRACE!r}"
            )
        if self.kind == TRACE and not (
            os.path.isfile(self.trace_path)
            and os.access(self.trace_path, os.R_OK)
        ):
            raise ConfigurationError(
                f"trace {self.trace_path!r} is not a readable file"
            )
        if self.session_budget is not None and self.session_budget < 1:
            raise ConfigurationError("session_budget must be >= 1")
        if self.requests_per_session < 1:
            raise ConfigurationError("requests_per_session must be >= 1")
        if self.retry_max < 0:
            raise ConfigurationError("retry_max must be >= 0")
        if self.retry_backoff_s <= 0:
            raise ConfigurationError("retry_backoff_s must be positive")
        if self.mmpp_burst_ratio <= 0:
            raise ConfigurationError("mmpp_burst_ratio must be positive")
        if self.mmpp_base_sojourn_s <= 0 or self.mmpp_burst_sojourn_s <= 0:
            raise ConfigurationError("MMPP sojourns must be positive")

    @property
    def open_loop(self) -> bool:
        """True for every kind the OpenLoopDriver serves."""
        return self.kind != CLOSED

    def with_rate(self, rate_rps: float) -> "TrafficSpec":
        """Copy with an explicit base rate."""
        return replace(self, rate_rps=rate_rps)

    def effective_rate_rps(self, mix: WorkloadMix) -> float:
        """The base rate: explicit, or matched to the closed loop."""
        if self.rate_rps is not None:
            return self.rate_rps
        return mix.clients / mix.think_time_s

    # -- CLI syntax --------------------------------------------------------

    def as_cli_string(self) -> str:
        """The ``--traffic`` token this spec corresponds to."""
        if self.kind == TRACE:
            return f"{TRACE}:{self.trace_path}"
        return self.kind

    @classmethod
    def from_cli_string(
        cls,
        text: str,
        rate_rps: Optional[float] = None,
        session_budget: Optional[int] = None,
    ) -> "TrafficSpec":
        """Parse a ``--traffic`` token into a spec.

        Accepted forms: ``closed``, ``poisson``, ``mmpp``, ``bmodel``
        and ``trace:<path>``.
        """
        token = text.strip()
        if token.startswith(f"{TRACE}:"):
            path = token[len(TRACE) + 1 :].strip()
            if not path:
                raise ConfigurationError("trace:<path> needs a path")
            return cls(
                kind=TRACE,
                trace_path=path,
                rate_rps=rate_rps,
                session_budget=session_budget,
            )
        if token == TRACE:
            raise ConfigurationError(
                "trace traffic needs a path: use trace:<path>"
            )
        if token not in TRAFFIC_KINDS:
            raise ConfigurationError(
                f"unknown traffic {text!r}; choose from "
                f"{TRAFFIC_KINDS[:-1]} or trace:<path>"
            )
        return cls(
            kind=token, rate_rps=rate_rps, session_budget=session_budget
        )


def build_process(
    spec: TrafficSpec, mix: WorkloadMix, rng: np.random.Generator
) -> ArrivalProcess:
    """Construct the arrival process a spec describes.

    When the spec carries a shape, the stationary base is built at the
    envelope's peak rate and wrapped in thinning (see
    :class:`~repro.traffic.arrivals.ModulatedProcess`), so the
    *unshaped* base intensity equals ``effective_rate_rps``.
    """
    if not spec.open_loop:
        raise ConfigurationError("closed-loop specs have no arrival process")
    rate = spec.effective_rate_rps(mix)
    boost = spec.shape.max_factor() if spec.shape is not None else 1.0
    if spec.kind == POISSON:
        base: ArrivalProcess = PoissonProcess(rate * boost, rng)
    elif spec.kind == MMPP:
        # Pick the base-regime rate so the *time-averaged* rate over the
        # alternating base/burst cycle equals the requested rate.
        t_base = spec.mmpp_base_sojourn_s
        t_burst = spec.mmpp_burst_sojourn_s
        ratio = spec.mmpp_burst_ratio
        base_rate = (
            rate * boost * (t_base + t_burst)
            / (t_base + ratio * t_burst)
        )
        base = MMPPProcess(
            rates_rps=(base_rate, base_rate * ratio),
            mean_sojourn_s=(t_base, t_burst),
            rng=rng,
        )
    elif spec.kind == BMODEL:
        base = BModelProcess(
            rate * boost,
            rng,
            bias=spec.bmodel_bias,
            window_s=spec.bmodel_window_s,
            levels=spec.bmodel_levels,
        )
    elif spec.kind == TRACE:
        try:
            trace = RateTrace.from_file(spec.trace_path, spec.trace_column)
        except (AnalysisError, OSError) as error:
            raise ConfigurationError(
                f"cannot replay trace {spec.trace_path!r}: {error}"
            ) from error
        if spec.rate_rps is not None:
            # Explicit rate rescales the trace to that mean intensity.
            mean = trace.mean_rate_rps()
            if mean <= 0:
                raise ConfigurationError(
                    f"trace {spec.trace_path!r} has zero mean rate; "
                    "cannot rescale"
                )
            trace = trace.scaled(spec.rate_rps / mean)
        if boost != 1.0:
            trace = trace.scaled(boost)
        base = TraceReplayProcess(trace, rng)
    else:  # pragma: no cover - guarded by __post_init__
        raise ConfigurationError(f"unhandled traffic kind {spec.kind!r}")
    if spec.shape is not None:
        return ModulatedProcess(base, spec.shape, rng)
    return base


def build_driver(
    spec: TrafficSpec,
    sim: Simulator,
    mix: WorkloadMix,
    send_fn: SendFn,
    streams: RandomStreams,
    matrices: Dict[SessionType, TransitionMatrix],
    meter_interval_s: float = SAMPLE_PERIOD_S,
) -> OpenLoopDriver:
    """Build the live open-loop driver a spec describes.

    The arrival process and the per-session behaviour draw from two
    independent named streams: the offered arrival times are therefore
    bit-identical across runs that differ only in session budget,
    session length, or anything else downstream of admission.
    """
    process = build_process(spec, mix, streams.stream(f"{spec.stream}.arrivals"))
    return OpenLoopDriver(
        sim,
        mix,
        send_fn,
        streams.stream(f"{spec.stream}.sessions"),
        matrices,
        process,
        session_budget=spec.session_budget,
        requests_per_session=spec.requests_per_session,
        meter_interval_s=meter_interval_s,
        retry_max=spec.retry_max,
        retry_backoff_s=spec.retry_backoff_s,
    )
