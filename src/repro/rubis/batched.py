"""Array-native RUBiS request engine (the batched epoch-2 engine).

The classic engine walks every request through ~6.5 heap events and a
chain of Python frames.  This module replaces that per-request machinery
with cohort processing: a :class:`~repro.sim.process.PeriodicProcess`
drain tick (every :data:`~repro.sim.batched.DRAIN_INTERVAL_S` seconds)
collects every session whose next send falls inside the tick, draws
transitions and demands as arrays, pushes the whole cohort through the
request path with vectorized device recursions, and writes counters back
in bulk.  Controllers, faults, migrations, probes and every other
subsystem keep running through the tuple heap unchanged — they observe
the same monotonic counters, station statistics, memory gauges and
session stats the classic engine maintains.

Two drivers mirror the classic traffic drivers one-for-one:

* :class:`BatchedClosedDriver` — the closed-loop population
  (think/send/wait loops, ramp-up, synchronized burst waves);
* :class:`BatchedOpenDriver` — the open-loop driver.  It consumes the
  *same* ``"<stream>.arrivals"`` RNG stream through the same
  :func:`~repro.traffic.spec.build_process`, so the offered arrival
  times are bit-identical to the classic engine at matched seeds.  Its
  drain costs per array, not per offer: it takes a tick's arrivals in
  one call, gates each admission pass with one array expression
  (:func:`admission_pass`), and admits and sheds whole arrays, with
  the same draws, slots and retries a walk over single offers makes.

A drain runs one or more *waves*; a wave is one cohort pushed through
:meth:`BatchedPhysics.process`, so what a wave costs beyond its rows is
paid again by every wave.  The request path therefore keeps one record
per hop (:class:`_Hop`: request, query out and in, result out and in,
response, web write, db write, db read) and one per tier
(:class:`_Tier`).  A record caches identities only (the device, its
counters, the owners, dom0's backend) and is rebuilt when a live
migration rebinds a context to another hypervisor; everything a fault
can change (bandwidths, disk latency, the device busy times, scheduler
fractions) is re-read at every drain start.  A wave gathers its
per-interaction columns once, sums each hop's bytes once, and serves
each tier-to-tier transfer's sending and receiving lanes with one
:func:`~repro.sim.batched.lindley` pass.  Both drivers step both
session types with one draw per wave and fold the per-interaction
request counts into the session stats once per drain.

The batched engine is a deliberate RNG epoch: request-path randomness
moves to the ``batched.*`` streams (drawn as arrays), so traces are
*equivalent in distribution* to the classic engine — verified by
``tests/integration/test_engine_equivalence.py`` — but not bit-identical.
Classic traces are untouched: the ``batched.*`` stream names are new, and
:class:`~repro.sim.random.RandomStreams` derives streams independently
by name.

Documented approximations (all bounded by one drain tick or absorbed by
the distributional tolerances):

* device contention is resolved stage-by-stage within a drain, not in
  global time order (NIC/disk utilization in the paper scenarios is low
  enough that the reordering is statistically invisible);
* per-request counter updates land when the drain processes the cohort,
  smearing them by less than one tick inside the 2 s sampling period;
* the scheduler speed fraction is sampled once per drain per tier (the
  classic engine samples it at each service start);
* station backlog observations are occupancy estimates;
* a burst wave releases its clients at the wave time but they are picked
  up by the next drain (≤ one tick late);
* with a ``session_budget``, open-loop admission replays the gate
  against exact intra-window finish times via a fixpoint (run waves →
  credit completions → re-admit), matching the classic slot-recycling
  gate; only when the budget binds *tightly* can admission order differ
  from the classic event interleaving by a bounded handful of sessions
  per tick (exact when no budget is set);
* the ``vcpu_contention`` refinement uses the scheduler fraction without
  the per-worker time-sharing term.
"""

from __future__ import annotations

from math import ceil
from typing import Dict, List, Optional

import numpy as np

from repro.errors import CapacityError, ConfigurationError
from repro.rubis.client import SessionStats
from repro.rubis.database import BufferPool
from repro.rubis.transitions import TransitionMatrix
from repro.rubis.workload import SessionType, WorkloadMix
from repro.sim.batched import DRAIN_INTERVAL_S, DRAIN_PRIORITY, FcfsPool, lindley
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.traffic.driver import AdmissionLedger
from repro.units import SAMPLE_PERIOD_S
from repro.virt.io_backend import DOM0_OWNER

PAGE_BYTES = BufferPool.PAGE_BYTES


#: The per-interaction quantities a wave needs, one row each of
#: :attr:`_InteractionTable.cols`; a wave gathers them all at once.
#: The web, db and write bases are adjacent rows (:data:`_DEMAND`), so
#: one ``(3, n)`` block of noise scales all three.
_COLUMNS = (
    "response_mu", "response_sigma", "response_base", "web_base",
    "db_base", "db_write_base", "web_log_base", "request_base",
    "db_queries", "query_bytes", "result_bytes", "commits",
)
_DEMAND = slice(3, 6)

# A wave's sums, maxima and any-tests: the reductions ``x.sum()``,
# ``x.max()`` and ``x.any()`` make, without their Python-level frame in
# ``numpy._core._methods``.
_sum = np.add.reduce
_max = np.maximum.reduce
_any = np.logical_or.reduce


class _InteractionTable:
    """Column-oriented view of the demand profiles, one column per interaction.

    Built from the :class:`~repro.rubis.demand.DemandSampler` profiles so
    every base value and noise parameter is *the same number* the classic
    engine uses — the engines can only differ in which stream the noise
    factors are drawn from.

    ``cols`` holds the :data:`_COLUMNS` rows, so one ``cols[:, g]``
    gathers a whole cohort.  ``commits`` is 1.0 for an interaction that
    commits and reaches the database; ``pages`` (buffer-pool pages
    touched, the binomial trial count) is an integer row of its own.
    ``response_params`` is the one response-noise ``(mu, sigma)`` pair
    every interaction shares, or None when they differ.
    """

    def __init__(self, sampler, names) -> None:
        self.names: List[str] = list(names)
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.names)}
        n = len(self.names)
        self.cols = np.zeros((len(_COLUMNS), n))
        self.pages = np.zeros(n, dtype=np.int64)
        row = dict(zip(_COLUMNS, self.cols))
        row_bytes = max(sampler._row_bytes, 1.0)
        rows_per_page = max(PAGE_BYTES / row_bytes, 1.0)
        demand_params = log_params = req_params = None
        for i, name in enumerate(self.names):
            (response_base, response_params, web_base, db_base, db_queries,
             rows_touched, db_write_base, web_log_base, request_base,
             query_bytes, result_bytes, writes, demand_params, log_params,
             req_params) = sampler._build_profile(name)
            row["response_base"][i] = response_base
            if response_params is not None:
                row["response_mu"][i] = response_params[0]
                row["response_sigma"][i] = response_params[1]
            row["web_base"][i] = web_base
            row["db_base"][i] = db_base
            row["db_queries"][i] = db_queries
            if rows_touched > 0:
                self.pages[i] = max(1, ceil(rows_touched / rows_per_page))
            row["db_write_base"][i] = db_write_base
            row["web_log_base"][i] = web_log_base
            row["request_base"][i] = request_base
            row["query_bytes"][i] = query_bytes
            row["result_bytes"][i] = result_bytes
            row["commits"][i] = bool(writes) and db_queries > 0
        # The cv-derived (mu, sigma) pairs are shared across interactions.
        self.demand_params = demand_params
        self.log_params = log_params
        self.req_params = req_params
        pairs = set(zip(row["response_mu"].tolist(),
                        row["response_sigma"].tolist()))
        self.response_params = pairs.pop() if len(pairs) == 1 else None

    def draw(self, rng: np.random.Generator, g: np.ndarray,
             miss_probability: float) -> tuple:
        """A cohort's demand arrays, noise drawn, and its page misses.

        Returns ``(response_bytes, web_cycles, db_cycles,
        db_write_bytes, web_log_bytes, request_bytes, queries,
        query_bytes, result_bytes, commits, pages, missed)``, aligned
        with ``g``: the :data:`_COLUMNS` rows past the response
        parameters, the first six scaled by their noise factors, then
        the buffer-pool pages each row touches and how many missed.

        The draws keep the classic per-request order (response noise,
        buffer-pool binomial, demand noise x3, log, request) and consume
        the stream of one call per quantity.  Two calls are merged where
        that stream does not change: the response noise is one
        scalar-parameter call when every interaction shares its pair
        (the per-row parameters would all be that pair), and the web, db
        and write noise is one ``(3, n)`` call, whose C-order fill is
        the three calls' stream.
        """
        n = g.size
        cols = self.cols[:, g]
        (response_mu, response_sigma, response_bytes, web_cycles, db_cycles,
         db_write_bytes, web_log_bytes, request_bytes, queries, query_bytes,
         result_bytes, commits) = cols
        # The rows are views of ``cols``: each noise multiplies in place.
        shared = self.response_params
        if shared is None:
            response_bytes *= rng.lognormal(response_mu, response_sigma)
        else:
            response_bytes *= rng.lognormal(shared[0], shared[1], n)
        pages = self.pages[g]
        missed = rng.binomial(pages, miss_probability)
        if self.demand_params is not None:
            mu, sigma = self.demand_params
            demand = cols[_DEMAND]
            demand *= rng.lognormal(mu, sigma, (3, n))
        mu, sigma = self.log_params
        web_log_bytes *= rng.lognormal(mu, sigma, n)
        mu, sigma = self.req_params
        request_bytes *= rng.lognormal(mu, sigma, n)
        return (
            response_bytes, web_cycles, db_cycles, db_write_bytes,
            web_log_bytes, request_bytes, queries, query_bytes, result_bytes,
            commits, pages, missed,
        )


class _MatrixWalk:
    """Vectorized transition stepping for both session types at once.

    The browse and bid matrices are stacked into one CDF table: a
    session's state is its row in the stack, the bid rows follow the
    browse rows, and shorter rows are padded with +inf.  ``cdf_rows[s]``
    is exactly the per-state CDF the classic ``next_state`` bisects, and
    ``argmax(row > u)``, the first entry above ``u``, reproduces
    ``bisect_right(row, u)`` element-for-element: a row never falls,
    its last CDF entry is exactly 1.0 > u and the pads are +inf, so the
    first entry above ``u`` is also the count of entries at or below
    it.  The local-state distribution is identical to a per-session
    walk.
    """

    def __init__(
        self,
        matrices: Dict[SessionType, TransitionMatrix],
        table: _InteractionTable,
    ) -> None:
        chains = (matrices[SessionType.BROWSE], matrices[SessionType.BID])
        cdfs = [np.asarray(matrix._cdfs) for matrix in chains]
        rows = sum(cdf.shape[0] for cdf in cdfs)
        self.cdf_rows = np.full((rows, max(c.shape[1] for c in cdfs)), np.inf)
        #: First stacked row of each state's own matrix.
        self.base = np.empty(rows, dtype=np.int64)
        to_global: List[int] = []
        initial: List[int] = []
        first = 0
        for matrix, cdf in zip(chains, cdfs):
            last = first + cdf.shape[0]
            self.cdf_rows[first:last, :cdf.shape[1]] = cdf
            self.base[first:last] = first
            to_global.extend(table.index[state] for state in matrix.states)
            initial.append(first + matrix.states.index(matrix.initial_state))
            first = last
        self.to_global = np.asarray(to_global, dtype=np.int64)
        #: Stacked initial state per session type index.
        self.initial = np.asarray(initial, dtype=np.int64)

    def step(
        self, rng: np.random.Generator, stype: np.ndarray, states: np.ndarray
    ) -> np.ndarray:
        """Next stacked states of a cohort (``stype``/``states`` aligned).

        One uniform per row.  The draws go to the browse rows first and
        then to the bid rows, each in cohort order, which is the stream
        one draw call per session type would consume.
        """
        draws = np.empty(states.size)
        draws[stype.argsort(kind="stable")] = rng.random(states.size)
        local = (self.cdf_rows[states] > draws[:, None]).argmax(axis=1)
        return local + self.base[states]


def _update_station(station, occupancy, waits, durations) -> None:
    """Mirror the per-request station statistics for a drained cohort.

    Backlog observations are occupancy-derived estimates: requests that
    never waited observe 1 (the classic fast path), queued requests
    observe their queue depth.  ``waits`` is None when nobody waited.
    """
    n = occupancy.size
    stats = station.stats
    stats.arrivals += n
    stats.completions += n
    stats.total_service_s += float(_sum(durations))
    if waits is None:
        backlog, peak = n, 1
    else:
        stats.total_wait_s += float(_sum(waits))
        observed = np.where(
            waits > 0.0,
            np.maximum(occupancy - station.workers, 1),
            1,
        )
        backlog, peak = _sum(observed), int(_max(observed))
    stats.backlog_sum += float(backlog)
    stats._observations += n
    if peak > stats.peak_backlog:
        stats.peak_backlog = peak
    occ_peak = int(_max(occupancy))
    if occ_peak > station._window_peak:
        station._window_peak = occ_peak


class _PoolAdapter:
    """Lets the migration pause actuator reach the batched pools.

    Registered on the execution contexts next to the (idle) classic
    stations, so ``rescale_in_flight`` stretches the carried worker-free
    times exactly like it stretches classic in-flight completions.
    """

    def __init__(self, sim: Simulator, pool: FcfsPool) -> None:
        self.sim = sim
        self.pool = pool

    def rescale_in_flight(self, factor: float) -> int:
        return self.pool.rescale_remaining(self.sim.now, factor)


class _Tier:
    """Where one tier's CPU work and per-request overheads land.

    Holds the identities of one execution context (its CPU ledger's
    counter dict, its owner, its hypervisor when virtualized) and,
    refreshed every drain, the cycle costs and the scheduler-granted
    seconds per cycle.
    """

    __slots__ = (
        "context", "hypervisor", "ledger", "owner", "overhead_owner",
        "request_cycles", "commit_cycles", "s_per_cycle", "pure_per_cycle",
    )

    def __init__(self, context, hypervisor) -> None:
        self.context = context
        self.hypervisor = hypervisor
        server = context.server if hypervisor is None else hypervisor.server
        self.ledger = server.cpu.ledger._cycles
        self.owner = context.owner
        # Hypercalls and commit barriers are dom0's work on a
        # hypervisor, the host kernel's (charged to the tier) on bare
        # metal.
        self.overhead_owner = (
            context.owner if hypervisor is None else DOM0_OWNER
        )

    def refresh(self) -> None:
        hypervisor = self.hypervisor
        if hypervisor is None:
            os_model = self.context.os_model
            self.request_cycles = os_model.syscall_cycles_per_request
            self.commit_cycles = os_model.commit_cycles
            self.s_per_cycle = 1.0 / self.context.server.cpu.frequency_hz
            self.pure_per_cycle = self.s_per_cycle
            return
        self.request_cycles = hypervisor.overhead.hypercall_cycles_per_request
        self.commit_cycles = hypervisor.overhead.commit_cycles
        frequency = hypervisor.server.cpu.frequency_hz
        fraction = hypervisor.scheduler.speed_fraction(
            self.context.domain.name
        )
        self.s_per_cycle = 1.0 / (frequency * fraction)
        # Pure (uncontended) rate: the span reconstruction reports
        # actual − pure as the credit-scheduler ready inflation.
        self.pure_per_cycle = 1.0 / frequency

    def account(
        self, count: int, scale: float, cycles_total: float, commits: int = 0
    ) -> None:
        """Charge ``count`` requests' overhead, their CPU cycles and
        ``commits`` commit barriers, in that order.

        Each charge is :meth:`CycleLedger.charge
        <repro.hardware.cpu.CycleLedger.charge>` inlined, its check on a
        negative count included.
        """
        if self.hypervisor is not None:
            self.hypervisor.requests_accounted += count
        ledger = self.ledger
        overhead_owner = self.overhead_owner
        overhead = count * self.request_cycles * scale
        if overhead < 0:
            raise CapacityError(
                f"negative cycle charge {overhead} for {overhead_owner!r}"
            )
        try:
            ledger[overhead_owner] += overhead
        except KeyError:
            ledger[overhead_owner] = overhead
        owner = self.owner
        if cycles_total < 0:
            raise CapacityError(
                f"negative cycle charge {cycles_total} for {owner!r}"
            )
        try:
            ledger[owner] += cycles_total
        except KeyError:
            ledger[owner] = cycles_total
        if commits:
            cycles = commits * self.commit_cycles
            if cycles < 0:
                raise CapacityError(
                    f"negative cycle charge {cycles} for {overhead_owner!r}"
                )
            # The overhead charge above made the key.
            ledger[overhead_owner] += cycles


#: Per hop direction: the device's busy register, its rate attribute,
#: its per-owner byte counters, and the dom0 backend's per-guest ones.
_DIRECTIONS = {
    "rx": ("_rx_busy_until", "bandwidth_bps", "_rx_bytes", "_vm_rx"),
    "tx": ("_tx_busy_until", "bandwidth_bps", "_tx_bytes", "_vm_tx"),
    "read": ("_busy_until", "read_bandwidth_bps", "_bytes_read", "_vm_read"),
    "write": (
        "_busy_until", "write_bandwidth_bps", "_bytes_written", "_vm_written",
    ),
}


class _Hop:
    """One hop of the request path: its byte accounting and its lane.

    A hop moves bytes through one device queue: a NIC direction or a
    disk.  On a hypervisor the bytes cross dom0's split driver first,
    which counts them per guest, amplifies them and charges dom0 per
    byte; on bare metal the host OS amplifies them.

    The stage sweep visits a shared device out of global time order
    (all request transfers, then all query transfers, ...), so one
    common frontier would floor a later stage's early transfers behind
    the previous stage's last completion.  Each hop therefore gets its
    own lane seeded from the device's busy time at drain start:
    serialization *within* a hop is exact (Lindley) and cross-hop
    contention inside one drain is not modeled — a documented
    approximation, negligible at the paper's device utilizations.
    Every wave of a drain starts from that same seed; ``frontier`` is
    the latest completion over the drain's waves.

    Only identities are cached: the device, its counters, the owners,
    the backend and dom0's CPU ledger.  :meth:`refresh` re-reads
    everything else every drain, because faults change bandwidths and
    latencies mid-run.
    """

    __slots__ = (
        "device", "busy", "rate_attr", "disk", "direction", "counters",
        "owner", "backend", "guest", "guest_owner", "ledger", "os_model",
        "seed", "frontier", "rate", "latency", "amplification",
        "cycles_per_byte", "deferred",
    )

    def __init__(self, context, hypervisor, direction: str) -> None:
        busy, rate_attr, counters, guest = _DIRECTIONS[direction]
        self.direction = direction
        self.disk = direction in ("read", "write")
        self.busy = busy
        self.rate_attr = rate_attr
        if hypervisor is None:
            self.backend = self.guest = None
            self.os_model = context.os_model
            self.owner = context.owner
            host = context.server
        else:
            # dom0's split driver fronts the server's device.
            self.backend = host = (
                hypervisor.block_backend if self.disk
                else hypervisor.net_backend
            )
            self.guest = getattr(self.backend, guest)
            self.guest_owner = context.owner
            self.ledger = self.backend.cpu.ledger._cycles
            self.owner = DOM0_OWNER
        self.device = host.disk if self.disk else host.nic
        self.counters = getattr(self.device, counters)

    def refresh(self) -> None:
        device = self.device
        self.seed = self.frontier = getattr(device, self.busy)
        self.rate = getattr(device, self.rate_attr)
        self.latency = device.access_latency_s if self.disk else 0.0
        backend = self.backend
        if backend is None:
            self.amplification = (
                self.os_model.disk_accounting_factor if self.disk
                else self.os_model.net_accounting_factor
            )
            self.deferred = False
            return
        self.amplification = backend._amplification
        self.cycles_per_byte = backend._cycles_per_byte
        # A write-batching block backend defers guest writes to its
        # flusher instead of queueing them on the disk.
        self.deferred = (
            self.direction == "write" and backend.overhead.batch_writes
        )

    def book(self, n: int, logical_total, physical_total: float) -> None:
        """Count one batch's bytes (and its dom0 cycles on a hypervisor).

        The dom0 charge is :meth:`CycleLedger.charge
        <repro.hardware.cpu.CycleLedger.charge>` inlined, its check on a
        negative count included.
        """
        backend = self.backend
        if backend is not None:
            guest = self.guest
            try:
                guest[self.guest_owner] += logical_total
            except KeyError:
                guest[self.guest_owner] = logical_total
            cycles = physical_total * self.cycles_per_byte
            if cycles < 0:
                raise CapacityError(
                    f"negative cycle charge {cycles} for {DOM0_OWNER!r}"
                )
            ledger = self.ledger
            try:
                ledger[DOM0_OWNER] += cycles
            except KeyError:
                ledger[DOM0_OWNER] = cycles
            if self.deferred:
                backend._pending_write_bytes += physical_total
                return
        counters = self.counters
        try:
            counters[self.owner] += physical_total
        except KeyError:
            counters[self.owner] = physical_total
        if self.disk:
            self.device.requests_served += n
        else:
            self.device.packets[self.direction] += n


class BatchedPhysics:
    """Pushes request cohorts through the two-tier request path.

    One instance per deployment.  :meth:`begin_drain` refreshes the
    device seeds, rates and scheduler fractions (rebuilding the hop and
    tier records when a live migration has rebound a context to another
    hypervisor); :meth:`process` runs one cohort; :meth:`end_drain`
    writes device state back and refreshes the scheduler demand gauges.
    """

    def __init__(self, sim: Simulator, deployment, rng, tracer=None) -> None:
        self.sim = sim
        self.deployment = deployment
        self.rng = rng
        #: Request tracer (:class:`repro.obs.tracing.RequestTracer`) of
        #: a ``trace_sample > 0`` run.  Spans are *reconstructed* from
        #: the cohort arrays at drain time — tracing never forces the
        #: classic path and consumes no randomness.
        self.tracer = tracer
        sampler = deployment.demand_sampler
        from repro.rubis.interactions import INTERACTIONS

        self.table = _InteractionTable(sampler, sorted(INTERACTIONS))
        self.buffer_pool = deployment.buffer_pool
        self.virtualized = deployment.environment == "virtualized"
        self.web_pool = FcfsPool(deployment.config.php.workers)
        self.db_pool = FcfsPool(deployment.config.mysql.workers)
        deployment.web_context.register_station(
            _PoolAdapter(sim, self.web_pool)
        )
        deployment.db_context.register_station(
            _PoolAdapter(sim, self.db_pool)
        )
        self._web_scale = deployment.config.php.request_account_scale
        self._db_scale = deployment.config.mysql.request_account_scale
        self._bound = None
        self._wave = 0

    # -- drain lifecycle ---------------------------------------------------

    def _bind(self, web_hv, db_hv) -> None:
        """Build the tier and hop records for the current placement."""
        web = self.deployment.web_context
        db = self.deployment.db_context
        self._bound = (web_hv, db_hv)
        self._web = _Tier(web, web_hv)
        self._db = _Tier(db, db_hv)
        self._request = _Hop(web, web_hv, "rx")
        self._query_out = _Hop(web, web_hv, "tx")
        self._query_in = _Hop(db, db_hv, "rx")
        self._result_out = _Hop(db, db_hv, "tx")
        self._result_in = _Hop(web, web_hv, "rx")
        self._response = _Hop(web, web_hv, "tx")
        self._web_write = _Hop(web, web_hv, "write")
        self._db_write = _Hop(db, db_hv, "write")
        self._db_read = _Hop(db, db_hv, "read")
        self._hops = (
            self._request, self._query_out, self._query_in,
            self._result_out, self._result_in, self._response,
            self._web_write, self._db_write, self._db_read,
        )
        # Several hops share one physical device queue; end_drain
        # carries the latest frontier over all of them.
        queues: dict = {}
        for hop in self._hops:
            queues.setdefault((id(hop.device), hop.busy), []).append(hop)
        self._queues = tuple(
            (hops[0].device, hops[0].busy, tuple(hops))
            for hops in queues.values()
        )

    def begin_drain(self) -> None:
        d = self.deployment
        if self.virtualized:
            web_hv = d.web_context.hypervisor
            db_hv = d.db_context.hypervisor
        else:
            web_hv = db_hv = None
        bound = self._bound
        if bound is None or bound[0] is not web_hv or bound[1] is not db_hv:
            # First drain, or a live migration rebound a context.
            self._bind(web_hv, db_hv)
        self._web.refresh()
        self._db.refresh()
        for hop in self._hops:
            hop.refresh()
        # Waves inside one drain window overlap in time: each is
        # scheduled against the window-start pool state and the waves
        # are folded back into one carried state at end_drain.
        self._wave = 0
        self._web_free0 = self.web_pool.snapshot()
        self._db_free0 = self.db_pool.snapshot()
        self._web_comps: list = []
        self._db_comps: list = []

    def end_drain(self, horizon: float) -> None:
        self.web_pool.merge_window(self._web_free0, self._web_comps)
        self.db_pool.merge_window(self._db_free0, self._db_comps)
        for device, busy, hops in self._queues:
            setattr(device, busy, max(hop.frontier for hop in hops))
        if self.virtualized:
            d = self.deployment
            d.web_context.domain.active_workers = self.web_pool.busy_count(
                horizon
            )
            d.db_context.domain.active_workers = self.db_pool.busy_count(
                horizon
            )

    # -- hops ----------------------------------------------------------------

    def _flow(self, hop: _Hop, times, logical):
        """One hop's batch; returns its completions (None when deferred)."""
        physical = logical * hop.amplification
        hop.book(
            times.size,
            float(_sum(logical)) if hop.backend is not None else None,
            float(_sum(physical)),
        )
        if hop.deferred:
            return None
        services = physical / hop.rate
        if hop.latency:
            services += hop.latency
        completions, frontier = lindley(times, services, hop.seed)
        if frontier > hop.frontier:
            hop.frontier = frontier
        return completions

    def _transfer(self, out: _Hop, into: _Hop, times, logical):
        """Bytes from one tier to the other; returns arrival completions.

        Nothing reads the sending lane's completions, and when both
        lanes amplify alike and run at one rate they queue the same
        services at the same times, so one :func:`lindley` pass serves
        both.  Both lanes are NIC directions, which add no latency.
        """
        if (
            out.amplification != into.amplification
            or out.rate != into.rate
        ):
            self._flow(out, times, logical)
            return self._flow(into, times, logical)
        n = times.size
        physical = logical * out.amplification
        logical_total = (
            float(_sum(logical)) if out.backend is not None else None
        )
        physical_total = float(_sum(physical))
        out.book(n, logical_total, physical_total)
        into.book(n, logical_total, physical_total)
        completions, frontier, out_frontier = lindley(
            times, physical / out.rate, into.seed, out.seed
        )
        if frontier > into.frontier:
            into.frontier = frontier
        if out_frontier > out.frontier:
            out.frontier = out_frontier
        return completions

    # -- the request path ---------------------------------------------------

    def process(
        self, t0: np.ndarray, g: np.ndarray, trace=None
    ) -> np.ndarray:
        """Run one cohort through the request path.

        ``t0`` (sorted nondecreasing) are the client send times and ``g``
        the global interaction indices, aligned.  Returns the response
        delivery times in the same order.

        ``trace``, when given, is ``(mask, session_ids, seqs)`` aligned
        with the cohort; sampled rows get their span trees reconstructed
        from the stage intermediates after the cohort completes.  The
        capture touches no RNG and no device state, so traced physics is
        bit-identical to untraced physics.
        """
        d = self.deployment
        n = t0.size
        emit = None
        if trace is not None and self.tracer is not None:
            mask = trace[0]
            if _any(mask):
                emit = mask.nonzero()[0]
        self._wave += 1
        if self._wave > 1:
            # A later wave overlaps the earlier ones in time; serve it
            # from the window-start pool state (see begin_drain).
            self.web_pool.restore(self._web_free0)
            self.db_pool.restore(self._db_free0)

        # Demand draws, all at once (see _InteractionTable.draw).
        pool = self.buffer_pool
        (response_bytes, web_cycles, db_cycles, db_write_bytes,
         web_log_bytes, request_bytes, queries, query_bytes, result_bytes,
         commits, pages, missed) = self.table.draw(
            self.rng, g, pool._miss_probability
        )
        misses = int(_sum(missed))
        pool.hits += int(_sum(pages)) - misses
        pool.misses += misses

        # Stage A: client -> web ingress.
        web_arrive = (
            self._flow(self._request, t0, request_bytes) + d._lat_client_web
        )

        # Stage W: the PHP worker pool.
        web = self._web
        web_durations = web_cycles * web.s_per_cycle
        starts, wd, occupancy = self.web_pool.schedule(
            web_arrive, web_durations
        )
        self._web_comps.append(wd)
        waits = None if starts is web_arrive else starts - web_arrive
        web.account(n, self._web_scale, float(_sum(web_cycles)))
        _update_station(d.php_tier.station, occupancy, waits, web_durations)
        d.php_tier.requests_handled += n

        # Web completion side effects: access log + session store writes.
        order = wd.argsort(kind="stable")
        wd_o = wd[order]
        self._flow(self._web_write, wd_o, web_log_bytes[order])

        has_db = queries > 0
        t_ready = wd.copy()  # per-request time the response leaves the web tier
        db_arrive_f = db_start_f = db_done_f = blocked_f = None
        if emit is not None:
            # Cohort-aligned scatter targets for the span reconstruction.
            db_arrive_f = np.full(n, np.nan)
            db_start_f = np.full(n, np.nan)
            db_done_f = np.full(n, np.nan)
            blocked_f = np.zeros(n)
        db_o = has_db[order]
        if _any(db_o):
            # The db-bound rows in web-completion order, ties by row.
            sub = order[db_o]
            # Stage Q: query out of the web tier, into the db tier.
            db_arrive = self._transfer(
                self._query_out, self._query_in, wd_o[db_o], query_bytes[sub]
            ) + d._lat_web_db

            # Stage D: the MySQL worker pool.  Miss reads are submitted
            # at the queue-arrival time (exact whenever the request does
            # not wait, which is the overwhelmingly common case).
            db = self._db
            sub_cycles = db_cycles[sub]
            db_durations = sub_cycles * db.s_per_cycle
            sub_missed = missed[sub]
            if _any(sub_missed):
                r = sub_missed.nonzero()[0]
                read_done = self._flow(
                    self._db_read, db_arrive[r],
                    sub_missed[r] * float(PAGE_BYTES),
                )
                blocked = np.maximum(read_done - db_arrive[r], 0.0)
                db_durations[r] += blocked
                if emit is not None:
                    blocked_f[sub[r]] = blocked
            db_starts, dd, db_occ = self.db_pool.schedule(
                db_arrive, db_durations
            )
            if emit is not None:
                db_arrive_f[sub] = db_arrive
                db_start_f[sub] = db_starts
                db_done_f[sub] = dd
            self._db_comps.append(dd)
            db_waits = None if db_starts is db_arrive else db_starts - db_arrive
            # Whole-number columns, zero off ``sub``: the sums are exact.
            commit_count = int(_sum(commits))
            db.account(
                sub.size, self._db_scale, float(_sum(sub_cycles)),
                commit_count,
            )
            _update_station(
                d.mysql_tier.station, db_occ, db_waits, db_durations
            )
            d.mysql_tier.queries_executed += int(_sum(queries))
            d.mysql_tier.commits += commit_count

            # Db completion side effects and the result hop back.
            dorder = dd.argsort(kind="stable")
            dd_o = dd[dorder]
            sub_o = sub[dorder]
            write_bytes = db_write_bytes[sub_o]
            writes = write_bytes > 0
            if _any(writes):
                w = writes.nonzero()[0]
                self._flow(self._db_write, dd_o[w], write_bytes[w])
            t_ready[sub_o] = self._transfer(
                self._result_out, self._result_in, dd_o, result_bytes[sub_o]
            ) + d._lat_db_web

        # Stage S: response egress back to the client.
        sorder = t_ready.argsort(kind="stable")
        t_done = np.empty(n)
        t_done[sorder] = self._flow(
            self._response, t_ready[sorder], response_bytes[sorder]
        ) + d._lat_web_client
        if emit is not None:
            self._emit_traces(
                emit, trace[1], trace[2], t0, g, web_arrive, starts, wd,
                web_cycles, db_cycles, has_db, db_arrive_f, db_start_f,
                db_done_f, blocked_f, t_ready, t_done,
            )
        return t_done

    def _emit_traces(
        self, idx, sids, seqs, t0, g, web_arrive, web_starts, wd,
        web_cycles, db_cycles, has_db, db_arrive, db_start, db_done,
        blocked, t_ready, t_done,
    ) -> None:
        """Reconstruct span trees for the sampled cohort rows.

        Pure bookkeeping over already-computed stage arrays; runs after
        the cohort's physics so it cannot perturb device state.  The
        spans mirror the classic engine's chain: request ingress, web
        CPU (queue/pure/ready split), query hop, db CPU, synchronous
        miss read, result hop, response egress.
        """
        # Deferred import: repro.obs pulls controllers/faults/planning,
        # which must not become import-time dependencies of the engine.
        from repro.obs.tracing import RequestTrace, Span

        names = self.table.names
        traces = self.tracer.traces
        web_pure_rate = self._web.pure_per_cycle
        db_pure_rate = self._db.pure_per_cycle
        for i in idx:
            i = int(i)
            spans = [
                Span(
                    "net.request", "net", float(t0[i]), 0.0,
                    float(web_arrive[i] - t0[i]), 0.0,
                )
            ]
            queue = max(float(web_starts[i] - web_arrive[i]), 0.0)
            actual = float(wd[i] - web_starts[i])
            pure = float(web_cycles[i]) * web_pure_rate
            spans.append(
                Span(
                    "cpu.web", "cpu", float(web_arrive[i]), queue, pure,
                    max(actual - pure, 0.0),
                )
            )
            if has_db[i]:
                spans.append(
                    Span(
                        "net.query", "net", float(wd[i]), 0.0,
                        float(db_arrive[i] - wd[i]), 0.0,
                    )
                )
                db_queue = max(float(db_start[i] - db_arrive[i]), 0.0)
                blk = float(blocked[i])
                db_actual = float(db_done[i] - db_start[i]) - blk
                db_pure = float(db_cycles[i]) * db_pure_rate
                spans.append(
                    Span(
                        "cpu.db", "cpu", float(db_arrive[i]), db_queue,
                        db_pure, max(db_actual - db_pure, 0.0),
                    )
                )
                if blk > 0.0:
                    spans.append(
                        Span(
                            "disk.db_read", "disk",
                            float(db_done[i]) - blk, 0.0, blk, 0.0,
                        )
                    )
                spans.append(
                    Span(
                        "net.result", "net", float(db_done[i]), 0.0,
                        float(t_ready[i] - db_done[i]), 0.0,
                    )
                )
            spans.append(
                Span(
                    "net.response", "net", float(t_ready[i]), 0.0,
                    float(t_done[i] - t_ready[i]), 0.0,
                )
            )
            traces.append(
                RequestTrace(
                    session_id=int(sids[i]),
                    seq=int(seqs[i]),
                    interaction=names[int(g[i])],
                    engine="batched",
                    start_s=float(t0[i]),
                    end_s=float(t_done[i]),
                    spans=tuple(spans),
                )
            )


def _record_requests(
    stats: SessionStats, names, cohorts: List[np.ndarray]
) -> None:
    """Fold one drain's interaction indices into the session stats."""
    g = np.concatenate(cohorts)
    stats.requests_sent += g.size
    counts = np.bincount(g, minlength=len(names))
    per = stats.per_interaction
    for i in counts.nonzero()[0].tolist():
        name = names[i]
        per[name] = per.get(name, 0) + int(counts[i])


def _record_responses(stats: SessionStats, times: np.ndarray) -> None:
    stats.responses_received += times.size
    stats.total_response_time_s += float(_sum(times))
    reservoir = stats.response_times_s
    room = SessionStats.MAX_SAMPLES - len(reservoir)
    if room > 0:
        reservoir.extend(times[:room].tolist())
    if stats._window_sinks:
        values = times.tolist()
        for sink in stats._window_sinks:
            sink.extend(values)


class BatchedClosedDriver:
    """Closed-loop population as column arrays.

    Drop-in for :class:`~repro.rubis.client.ClientPopulation`: same
    ``stats``/``start``/``active_session_count``/``burst_times`` surface,
    same ramp-up, session-type and burst semantics — with the per-session
    think loop replaced by ``wake``/``done_at`` arrays drained in bulk.
    """

    def __init__(
        self,
        sim: Simulator,
        mix: WorkloadMix,
        deployment,
        streams,
        matrices: Dict[SessionType, TransitionMatrix],
        ramp_s: float = 10.0,
        meter=None,
        tracer=None,
    ) -> None:
        if ramp_s < 0:
            raise ConfigurationError("ramp_s must be non-negative")
        self.sim = sim
        self.mix = mix
        self.rng = streams.stream("batched.clients")
        self.physics = BatchedPhysics(
            sim, deployment, streams.stream("batched.demand"), tracer=tracer
        )
        self.tracer = tracer
        self.stats = SessionStats()
        self.meter = meter
        n = mix.clients
        # Session types drawn exactly like the classic constructor: one
        # uniform per client against the browse fraction.
        draws = self.rng.uniform(size=n)
        self.stype = (draws >= mix.browse_fraction).astype(np.int8)
        self.walks = _MatrixWalk(matrices, self.physics.table)
        self.state = self.walks.initial[self.stype]
        self.wake = np.full(n, np.inf)
        self.done_at = np.full(n, -np.inf)
        # Per-session request counter; mirrors the classic
        # ``ClientSession.requests_sent`` so the trace sampler sees the
        # same (session_id, seq) coordinates on both engines.
        self.sent = np.zeros(n, dtype=np.int64)
        self._ramp_s = float(ramp_s)
        self.burst_times: Dict[SessionType, tuple] = {}
        self._process: Optional[PeriodicProcess] = None

    def active_session_count(self) -> int:
        return self.stype.size

    @property
    def throughput_estimate(self) -> float:
        return self.mix.clients / self.mix.think_time_s

    def start(self) -> None:
        rng = self.rng
        n = self.stype.size
        self.wake = rng.uniform(0.0, max(self._ramp_s, 1e-9), n)
        for session_type in SessionType:
            schedule = self.mix.burst_schedule(session_type)
            times = schedule.sample_times(rng)
            self.burst_times[session_type] = times
            for burst_time in times:
                self.sim.schedule_at(
                    burst_time,
                    self._fire_burst,
                    session_type,
                    schedule.fraction,
                )
        self._process = PeriodicProcess(
            self.sim,
            DRAIN_INTERVAL_S,
            self._drain,
            priority=DRAIN_PRIORITY,
            name="batched-drain",
        ).start()

    def _fire_burst(self, session_type: SessionType, fraction: float) -> None:
        now = self.sim.now
        type_index = 0 if session_type is SessionType.BROWSE else 1
        candidates = np.nonzero(
            (self.stype == type_index)
            & (self.done_at <= now)
            & (self.wake > now)
        )[0]
        count = int(candidates.size * fraction)
        if count <= 0:
            return
        chosen = self.rng.choice(candidates.size, size=count, replace=False)
        self.wake[candidates[chosen]] = now

    def _drain(self, tick_time: float) -> None:
        physics = self.physics
        walks = self.walks
        stats = self.stats
        mix_think = self.mix.think_time_s
        cohorts: List[np.ndarray] = []
        while True:
            due = (self.wake <= tick_time).nonzero()[0]
            if due.size == 0:
                break
            if not cohorts:
                physics.begin_drain()
            due = due[self.wake[due].argsort(kind="stable")]
            t0 = self.wake[due]
            # Step the chains (vectorized CDF inversion).
            nxt = walks.step(self.rng, self.stype[due], self.state[due])
            self.state[due] = nxt
            g = walks.to_global[nxt]
            cohorts.append(g)
            if self.meter is not None:
                self.meter.record_batch(t0)
            trace = None
            if self.tracer is not None:
                self.sent[due] += 1
                seqs = self.sent[due]
                trace = (
                    self.tracer.sampler.sample_array(due, seqs), due, seqs
                )
            t_done = physics.process(t0, g, trace)
            _record_responses(stats, t_done - t0)
            thinks = self.rng.exponential(mix_think, due.size)
            self.done_at[due] = t_done
            self.wake[due] = t_done + thinks
        if cohorts:
            physics.end_drain(tick_time)
            _record_requests(stats, physics.table.names, cohorts)


def admission_pass(
    offers: np.ndarray, finishes: np.ndarray, budget: int, in_flight: int
) -> np.ndarray:
    """Which offers one walk of the session-budget gate admits.

    The walk takes the time-sorted ``offers`` in order and admits an
    offer iff the sessions in flight at its time stay below ``budget``:
    ``in_flight``, plus the offers it admitted before, plus the
    ``finishes`` (sorted) that fall after the offer.  With ``a_i``
    offers admitted before offer ``i`` and room ``s_i = max(budget -
    in_flight - later_i, 0)``, the walk is ``a_{i+1} = min(a_i + 1,
    max(a_i, s_i))``.  The room never shrinks along the sorted offers,
    so ``a_i <= s_i`` throughout and the walk unrolls to ``a_{i+1} =
    min(i + 1, i + min_{j<=i}(s_j - j))``: one array expression in
    place of a walk with a bisection per offer.  Offer ``i`` is
    admitted iff ``a_{i+1} > a_i``.
    """
    later = finishes.size - finishes.searchsorted(offers, "right")
    room = np.maximum(budget - in_flight - later, 0)
    index = np.arange(offers.size)
    admitted = np.minimum(
        index + 1, np.minimum.accumulate(room - index) + index
    )
    return admitted > np.concatenate(([0], admitted[:-1]))


def _sorted_finishes(finishes: List[np.ndarray]) -> np.ndarray:
    return np.sort(np.concatenate(finishes)) if finishes else np.empty(0)


class BatchedOpenDriver(AdmissionLedger):
    """Open-loop driver over column arrays.

    Shares :class:`~repro.traffic.driver.OpenLoopDriver`'s admission
    ledger, so both engines count and report arrivals alike.  The
    arrival process is built from the same ``"<stream>.arrivals"`` RNG
    stream, so offered arrival times are bit-identical to the classic
    engine; admission, transitions and think times draw from the new
    ``batched.sessions`` stream.

    A drain handles its offers as arrays: it takes the tick's arrivals
    in one :meth:`~repro.traffic.arrivals.ArrivalProcess.take_through`,
    gates each admission pass with :func:`admission_pass`, and admits
    and sheds whole arrays of offers.  Every result equals a walk that
    admits one offer at a time: an admission pass draws one uniform per
    admitted offer in a single call, and takes free slots in the order
    one pop per offer would (growing the slot arrays mid-pass when they
    run out), because the stable sort of a wave breaks ties in ``wake``
    by slot.  Shed offers wait as two arrays, due time and attempt, in
    the order they were shed.
    """

    def __init__(
        self,
        sim: Simulator,
        mix: WorkloadMix,
        deployment,
        streams,
        matrices: Dict[SessionType, TransitionMatrix],
        process,
        session_budget: Optional[int] = None,
        requests_per_session: int = 1,
        meter_interval_s: float = SAMPLE_PERIOD_S,
        retry_max: int = 0,
        retry_backoff_s: float = 2.0,
        tracer=None,
    ) -> None:
        super().__init__(
            process, session_budget, requests_per_session, meter_interval_s,
            retry_max, retry_backoff_s,
        )
        self.sim = sim
        self.mix = mix
        self.rng = streams.stream("batched.sessions")
        self.physics = BatchedPhysics(
            sim, deployment, streams.stream("batched.demand"), tracer=tracer
        )
        self.tracer = tracer
        self.walks = _MatrixWalk(matrices, self.physics.table)
        # Session slots (SoA with a free list).  A free slot holds
        # ``wake = inf``, so ``wake <= tick`` selects the due sessions.
        capacity = 64
        self.wake = np.full(capacity, np.inf)
        self.stype = np.zeros(capacity, dtype=np.int8)
        self.state = np.zeros(capacity, dtype=np.int64)
        self.remaining = np.zeros(capacity, dtype=np.int64)
        # Monotonic per-session serial (the classic driver's session_id);
        # slots are recycled, serials are not, so the trace sampler keys
        # on a stable identity.
        self.serial = np.zeros(capacity, dtype=np.int64)
        self._next_serial = 0
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        # Pending retries: due time and attempt number, in shed order.
        self._retry_due = np.empty(0)
        self._retry_attempt = np.empty(0, dtype=np.int64)
        self._drain_process: Optional[PeriodicProcess] = None

    def start(self) -> None:
        if self._started:
            raise ConfigurationError("driver already started")
        self._started = True
        self._drain_process = PeriodicProcess(
            self.sim,
            DRAIN_INTERVAL_S,
            self._drain,
            priority=DRAIN_PRIORITY,
            name="batched-drain",
        ).start()

    # -- slot management ----------------------------------------------------

    def _grow(self) -> None:
        old = self.wake.size
        new = old * 2
        for name in ("wake", "stype", "state", "remaining", "serial"):
            array = getattr(self, name)
            grown = np.zeros(new, dtype=array.dtype)
            grown[:old] = array
            setattr(self, name, grown)
        self.wake[old:] = np.inf
        self._free.extend(range(new - 1, old - 1, -1))

    def _take_slots(self, count: int) -> List[int]:
        """``count`` free slots, in the order that many pops give them."""
        free = self._free
        slots: List[int] = []
        while True:
            take = min(count - len(slots), len(free))
            if take:
                slots.extend(reversed(free[-take:]))
                del free[-take:]
            if len(slots) == count:
                return slots
            self._grow()

    def _admit(self, times: np.ndarray) -> None:
        """Start one session per offer, at the offer's time, in order."""
        count = int(times.size)
        if not count:
            return
        self.arrivals_admitted += count
        self._in_flight += count
        slots = np.asarray(self._take_slots(count))
        draws = self.rng.uniform(size=count)
        types = (draws >= self.mix.browse_fraction).astype(np.int8)
        self.stype[slots] = types
        self.state[slots] = self.walks.initial[types]
        self.remaining[slots] = self.requests_per_session
        self.wake[slots] = times
        self.serial[slots] = np.arange(
            self._next_serial, self._next_serial + count
        )
        self._next_serial += count

    def _shed(self, times: np.ndarray, attempts: np.ndarray) -> None:
        """Each shed offer retries with backoff or, out of tries, abandons."""
        retry = attempts < self.retry_max
        retried = int(_sum(retry))
        self.arrivals_retried += retried
        self.arrivals_abandoned += int(attempts.size) - retried
        if retried:
            tries = attempts[retry]
            self._retry_due = np.concatenate((
                self._retry_due,
                times[retry] + self.retry_backoff_s * 2.0 ** tries,
            ))
            self._retry_attempt = np.concatenate(
                (self._retry_attempt, tries + 1)
            )

    def _take_due_retries(self, tick_time: float):
        """Remove and return the retries due by ``tick_time``, in shed order."""
        due = self._retry_due <= tick_time
        times = self._retry_due[due]
        attempts = self._retry_attempt[due]
        if times.size:
            self._retry_due = self._retry_due[~due]
            self._retry_attempt = self._retry_attempt[~due]
        return times, attempts

    # -- the drain ----------------------------------------------------------

    def _drain(self, tick_time: float) -> None:
        cohorts: List[np.ndarray] = []

        # 1. Offer this tick's arrivals (and due retries) in time order.
        times = self.process.take_through(tick_time)
        if times.size:
            self.meter.record_batch(times)
            self.arrivals_offered += int(times.size)
        attempts = np.zeros(times.size, dtype=np.int64)
        retry_times, retry_attempts = self._take_due_retries(tick_time)
        if retry_times.size:
            times = np.concatenate((times, retry_times))
            attempts = np.concatenate((attempts, retry_attempts))
            order = times.argsort(kind="stable")
            times, attempts = times[order], attempts[order]

        budget = self.session_budget
        if budget is None:
            # No gate: every offer starts a session at its arrival time.
            self._admit(times)
            times = times[:0]

        # 2. Alternate wave processing with budgeted admission until a
        #    fixpoint.  The classic gate frees a slot the instant a
        #    session finishes, so an offer is shed only if the sessions
        #    *in flight at its arrival time* fill the budget.  Finish
        #    times only become known once a cohort runs through physics,
        #    so: run the due waves, collect exact session finish times,
        #    re-walk the still-pending offers against "active now plus
        #    window finishes after the offer", admit the newly
        #    admissible, and repeat.  Each productive pass admits at
        #    least one offer, so the loop is bounded by the offer count;
        #    in the common non-saturated case it converges in two or
        #    three passes (first the carried budget, then the offers
        #    freed by completions inside the window).
        finishes: List[np.ndarray] = []
        while True:
            self._run_waves(tick_time, cohorts, finishes)
            if not times.size:
                break
            admit = admission_pass(
                times, _sorted_finishes(finishes), budget, self._in_flight
            )
            if not _any(admit):
                break
            self._admit(times[admit])
            times, attempts = times[~admit], attempts[~admit]

        # 3. Offers no completion could save are genuinely shed; only
        #    first attempts count as shed arrivals.
        if times.size:
            self.arrivals_shed += int(_sum(attempts == 0))
            self._shed(times, attempts)
            # Retries scheduled by the sheds above may fall inside this
            # very window; give them one more gate walk, in (time,
            # attempt) order, so a backoff shorter than the tick is not
            # silently deferred.
            times, attempts = self._take_due_retries(tick_time)
            if times.size:
                order = np.lexsort((attempts, times))
                times, attempts = times[order], attempts[order]
                admit = admission_pass(
                    times, _sorted_finishes(finishes), budget,
                    self._in_flight,
                )
                self._admit(times[admit])
                self._shed(times[~admit], attempts[~admit])
                self._run_waves(tick_time, cohorts, finishes)

        if cohorts:
            physics = self.physics
            physics.end_drain(tick_time)
            _record_requests(self.stats, physics.table.names, cohorts)

    def _run_waves(
        self, tick_time: float, cohorts: List[np.ndarray],
        finishes: List[np.ndarray],
    ) -> None:
        """Process due request waves until no session wakes inside the tick.

        Appends each wave's interaction indices to ``cohorts`` (the
        drain calls ``physics.begin_drain`` before its first wave) and
        the exact finish times of the sessions that complete to
        ``finishes`` (the admission gate's evidence).
        """
        physics = self.physics
        walks = self.walks
        stats = self.stats
        while True:
            due = (self.wake <= tick_time).nonzero()[0]
            if due.size == 0:
                break
            if not cohorts:
                physics.begin_drain()
            due = due[self.wake[due].argsort(kind="stable")]
            t0 = self.wake[due]
            nxt = walks.step(self.rng, self.stype[due], self.state[due])
            self.state[due] = nxt
            g = walks.to_global[nxt]
            cohorts.append(g)
            trace = None
            if self.tracer is not None:
                sids = self.serial[due]
                # Classic seq: remaining is decremented before send, so
                # the first request of a session carries seq == 1.
                seqs = self.requests_per_session - self.remaining[due] + 1
                trace = (
                    self.tracer.sampler.sample_array(sids, seqs), sids, seqs
                )
            t_done = physics.process(t0, g, trace)
            _record_responses(stats, t_done - t0)
            self.remaining[due] -= 1
            finished = self.remaining[due] <= 0
            if _any(finished):
                done_slots = due[finished]
                self.wake[done_slots] = np.inf
                self._free.extend(done_slots.tolist())
                self.sessions_completed += int(done_slots.size)
                self._in_flight -= int(done_slots.size)
                finishes.append(t_done[finished])
            live = due[~finished]
            if live.size:
                thinks = self.rng.exponential(
                    self.mix.think_time_s, live.size
                )
                self.wake[live] = t_done[~finished] + thinks
