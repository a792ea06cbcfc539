"""Demand sampling: interaction profiles -> concrete resource demands.

An :class:`Interaction` carries *relative* work units; the
:class:`DemandScaling` maps them to absolute cycles and bytes.  The
calibration module derives one scaling per environment from the paper's
published per-resource targets (see ``repro.experiments.calibration``),
so every scaling constant is traceable to a number in the paper.

The sampler has a deterministic twin, :meth:`DemandSampler.expected_demand`,
which computes the *stationary expectation* of each demand field under a
given transition matrix using exactly the same formulas as the stochastic
path.  Calibration inverts that expectation; keeping both code paths in
one class is what makes the calibration exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import exp
from typing import Optional

import numpy as np

from repro.apps.requests import ResourceDemand
from repro.errors import ConfigurationError
from repro.rubis.database import BufferPool
from repro.rubis.interactions import Interaction, get_interaction
from repro.rubis.transitions import TransitionMatrix
from repro.units import KB


@dataclass(frozen=True)
class DemandScaling:
    """Environment-specific absolute scales applied to interaction profiles."""

    #: Cycles per web-tier work unit (guest-visible in the virtualized
    #: environment, host-visible on bare metal — the difference encodes
    #: the virtualized cycle-accounting inflation the paper measures).
    web_cycles_per_unit: float = 2.0e6
    #: Cycles per db-tier work unit.
    db_cycles_per_unit: float = 1.0e5
    #: HTTP request size (URL + headers + cookies).
    request_bytes: float = 420.0
    #: Multiplier on the interaction's nominal response size.
    response_scale: float = 1.0
    #: SQL text bytes per query.
    query_bytes_per_query: float = 160.0
    #: Result-set framing bytes per query.
    result_base_bytes: float = 80.0
    #: Result bytes per returned row (rows beyond the cap are aggregates).
    result_bytes_per_row: float = 6.0
    #: Maximum rows materialized into a result set (LIMIT-style).
    result_row_cap: float = 40.0
    #: Multiplier applied to query+result bytes (db-link calibration knob).
    db_net_scale: float = 1.0
    #: Web-tier bytes written per request (access log + session state).
    web_log_bytes_per_request: float = 1400.0
    #: Database bytes written per written row (row + index + binlog).
    db_write_bytes_per_row: float = 600.0
    #: Row count above which a query spills a filesort to disk.
    spill_threshold_rows: float = 50.0
    #: Spill bytes per touched row once over the threshold.
    spill_bytes_per_row: float = 8.0
    #: Coefficient of variation of the lognormal demand noise.
    demand_cv: float = 0.30

    def __post_init__(self) -> None:
        for name in (
            "web_cycles_per_unit",
            "db_cycles_per_unit",
            "request_bytes",
            "response_scale",
            "query_bytes_per_query",
            "result_base_bytes",
            "result_bytes_per_row",
            "db_net_scale",
            "web_log_bytes_per_request",
            "db_write_bytes_per_row",
            "spill_bytes_per_row",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.demand_cv < 0:
            raise ConfigurationError("demand_cv must be non-negative")

    def rescaled(self, **changes) -> "DemandScaling":
        """Copy with some fields replaced (used by calibration)."""
        return replace(self, **changes)


class DemandSampler:
    """Samples :class:`ResourceDemand` records for interactions."""

    def __init__(
        self,
        scaling: DemandScaling,
        buffer_pool: BufferPool,
        rng: np.random.Generator,
    ) -> None:
        self.scaling = scaling
        self.buffer_pool = buffer_pool
        self.rng = rng
        self._row_bytes = buffer_pool.database.mean_row_bytes()
        #: cv -> (mu, sigma) of the matching lognormal, computed once per
        #: distinct cv instead of log1p/sqrt on every draw.
        self._noise_params: dict = {}
        #: interaction name -> precomputed deterministic demand bases
        #: (everything in :meth:`sample` that does not involve a draw).
        self._profiles: dict = {}

    # -- stochastic path -------------------------------------------------

    def sample(self, interaction_name: str) -> ResourceDemand:
        """Draw the demand of one request for ``interaction_name``.

        The deterministic bases are precomputed per interaction (the
        scaling is immutable), so a draw costs only the noise factors
        and the buffer-pool access: three generator calls, in this
        order, the response noise, the buffer-pool binomial, then the
        web, db, write, log and request noise as one block of standard
        normals.  Each noise factor is ``exp(mu + sigma * z)``, which is
        exactly what ``Generator.lognormal(mu, sigma)`` computes from
        the one standard normal it consumes, so the stream and every
        trace are bit-identical to one lognormal call per factor.
        ``math.exp`` is the same libm ``exp`` numpy calls; ``np.exp``
        is not, and can differ in the last bit.  The identity also needs
        numpy to compute ``mu + sigma * z`` without a fused multiply-add,
        as its x86-64 builds do (``tests/rubis/test_demand.py`` checks
        it against one lognormal call per factor).
        """
        profile = self._profiles.get(interaction_name)
        if profile is None:
            profile = self._build_profile(interaction_name)
        (response_base, response_params, web_base, db_base, db_queries,
         rows_touched, db_write_base, web_log_base, request_base,
         query_bytes, result_bytes, writes, demand_params, log_params,
         req_params) = profile
        rng = self.rng
        normal = rng.standard_normal
        if response_params is not None:
            mu, sigma = response_params
            response_bytes = response_base * exp(mu + sigma * normal())
        else:
            response_bytes = response_base
        db_read = self.buffer_pool.access(rng, rows_touched, self._row_bytes)
        if demand_params is not None:
            mu, sigma = demand_params
            z_web, z_db, z_write, z_log, z_req = normal(5).tolist()
            web_cycles = web_base * exp(mu + sigma * z_web)
            db_cycles = db_base * exp(mu + sigma * z_db)
            db_write_bytes = db_write_base * exp(mu + sigma * z_write)
        else:
            web_cycles, db_cycles, db_write_bytes = (
                web_base, db_base, db_write_base
            )
            z_log, z_req = normal(2).tolist()
        # Positional construction in ResourceDemand field order (kwarg
        # binding on an 11-field dataclass showed up on profiles).
        return ResourceDemand(
            web_cycles,
            db_cycles,
            db_queries,
            db_read,
            db_write_bytes,
            web_log_base * exp(log_params[0] + log_params[1] * z_log),
            request_base * exp(req_params[0] + req_params[1] * z_req),
            response_bytes,
            query_bytes,
            result_bytes,
            writes,
        )

    def _lognormal_params(self, cv: float) -> Optional[tuple]:
        """(mu, sigma) of the unit-mean lognormal for ``cv`` (None if 0).

        Python floats, so a noise factor's ``mu + sigma * z`` is plain
        double arithmetic.
        """
        if cv <= 0:
            return None
        params = self._noise_params.get(cv)
        if params is None:
            sigma2 = np.log1p(cv * cv)
            params = (float(-sigma2 / 2.0), float(np.sqrt(sigma2)))
            self._noise_params[cv] = params
        return params

    def _build_profile(self, interaction_name: str) -> tuple:
        ix = get_interaction(interaction_name)
        s = self.scaling
        profile = (
            ix.response_kb * KB * s.response_scale,
            self._lognormal_params(ix.response_cv),
            ix.web_work * s.web_cycles_per_unit,
            ix.db_work * s.db_cycles_per_unit,
            ix.db_queries,
            ix.rows_touched,
            self._db_write_bytes(ix),
            s.web_log_bytes_per_request,
            s.request_bytes,
            self._query_bytes(ix),
            self._result_bytes(ix),
            ix.writes,
            self._lognormal_params(s.demand_cv),
            self._lognormal_params(0.15),
            self._lognormal_params(0.10),
        )
        self._profiles[interaction_name] = profile
        return profile

    # -- shared deterministic formulas -----------------------------------

    def _query_bytes(self, ix: Interaction) -> float:
        return ix.db_queries * self.scaling.query_bytes_per_query * (
            self.scaling.db_net_scale
        )

    def _result_bytes(self, ix: Interaction) -> float:
        if ix.db_queries == 0:
            return 0.0
        s = self.scaling
        returned_rows = min(ix.rows_touched, s.result_row_cap)
        per_query = s.result_base_bytes * ix.db_queries
        return (per_query + returned_rows * s.result_bytes_per_row) * (
            s.db_net_scale
        )

    def _db_write_bytes(self, ix: Interaction) -> float:
        s = self.scaling
        written = ix.rows_written * s.db_write_bytes_per_row
        spill = 0.0
        if ix.rows_touched >= s.spill_threshold_rows:
            spill = ix.rows_touched * s.spill_bytes_per_row
        return written + spill

    def _expected_db_read_bytes(self, ix: Interaction) -> float:
        if ix.rows_touched <= 0:
            return 0.0
        rows_per_page = max(
            1.0, BufferPool.PAGE_BYTES / max(self._row_bytes, 1.0)
        )
        pages = max(1, int(np.ceil(ix.rows_touched / rows_per_page)))
        miss_probability = 1.0 - self.buffer_pool.hit_ratio()
        return pages * miss_probability * BufferPool.PAGE_BYTES

    # -- deterministic expectation ----------------------------------------

    def expected_demand(self, matrix: TransitionMatrix) -> ResourceDemand:
        """Stationary per-request expectation of every demand field.

        Mirrors :meth:`sample` field by field with all noise factors at
        their (unit) means; calibration relies on this exactness.
        """
        pi = matrix.stationary_distribution()
        s = self.scaling
        expected = ResourceDemand()
        for state, probability in pi.items():
            ix = get_interaction(state)
            expected.web_cycles += (
                probability * ix.web_work * s.web_cycles_per_unit
            )
            expected.db_cycles += (
                probability * ix.db_work * s.db_cycles_per_unit
            )
            expected.db_disk_read_bytes += (
                probability * self._expected_db_read_bytes(ix)
            )
            expected.db_disk_write_bytes += (
                probability * self._db_write_bytes(ix)
            )
            expected.web_disk_write_bytes += (
                probability * s.web_log_bytes_per_request
            )
            expected.request_bytes += probability * s.request_bytes
            expected.response_bytes += (
                probability * ix.response_kb * KB * s.response_scale
            )
            expected.query_bytes += probability * self._query_bytes(ix)
            expected.result_bytes += probability * self._result_bytes(ix)
        return expected
