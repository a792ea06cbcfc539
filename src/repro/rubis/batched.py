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
  times are bit-identical to the classic engine at matched seeds.

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

from bisect import bisect_right
from math import ceil
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
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


class _InteractionTable:
    """Column-oriented view of the demand profiles, one row per interaction.

    Built from the :class:`~repro.rubis.demand.DemandSampler` profiles so
    every base value and noise parameter is *the same number* the classic
    engine uses — the engines can only differ in which stream the noise
    factors are drawn from.
    """

    def __init__(self, sampler, names) -> None:
        self.names: List[str] = list(names)
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.names)}
        n = len(self.names)
        self.response_base = np.zeros(n)
        self.response_mu = np.zeros(n)
        self.response_sigma = np.zeros(n)
        self.web_base = np.zeros(n)
        self.db_base = np.zeros(n)
        self.db_queries = np.zeros(n)
        self.pages = np.zeros(n, dtype=np.int64)
        self.db_write_base = np.zeros(n)
        self.web_log_base = np.zeros(n)
        self.request_base = np.zeros(n)
        self.query_bytes = np.zeros(n)
        self.result_bytes = np.zeros(n)
        self.writes = np.zeros(n, dtype=bool)
        row_bytes = max(sampler._row_bytes, 1.0)
        rows_per_page = max(PAGE_BYTES / row_bytes, 1.0)
        demand_params = log_params = req_params = None
        for i, name in enumerate(self.names):
            (response_base, response_params, web_base, db_base, db_queries,
             rows_touched, db_write_base, web_log_base, request_base,
             query_bytes, result_bytes, writes, demand_params, log_params,
             req_params) = sampler._build_profile(name)
            self.response_base[i] = response_base
            if response_params is not None:
                self.response_mu[i] = response_params[0]
                self.response_sigma[i] = response_params[1]
            self.web_base[i] = web_base
            self.db_base[i] = db_base
            self.db_queries[i] = db_queries
            if rows_touched > 0:
                self.pages[i] = max(1, ceil(rows_touched / rows_per_page))
            self.db_write_base[i] = db_write_base
            self.web_log_base[i] = web_log_base
            self.request_base[i] = request_base
            self.query_bytes[i] = query_bytes
            self.result_bytes[i] = result_bytes
            self.writes[i] = bool(writes)
        # The cv-derived (mu, sigma) pairs are shared across interactions.
        self.demand_params = demand_params
        self.log_params = log_params
        self.req_params = req_params


class _MatrixWalk:
    """Vectorized transition stepping for one matrix.

    ``cdf_rows[s]`` is exactly the per-state CDF the classic
    ``next_state`` bisects; ``(row <= u).sum()`` reproduces
    ``bisect_right(row, u)`` element-for-element, so the local-state
    distribution is identical to a per-session walk.
    """

    def __init__(self, matrix: TransitionMatrix, table: _InteractionTable):
        self.matrix = matrix
        self.cdf_rows = np.asarray(matrix._cdfs)
        self.to_global = np.asarray(
            [table.index[state] for state in matrix.states], dtype=np.int64
        )
        self.initial_index = matrix.states.index(matrix.initial_state)

    def step(self, rng: np.random.Generator, states: np.ndarray) -> np.ndarray:
        draws = rng.random(states.size)
        return (self.cdf_rows[states] <= draws[:, None]).sum(axis=1)


def _bump(counters: dict, owner: str, amount: float) -> None:
    try:
        counters[owner] += amount
    except KeyError:
        counters[owner] = amount


def _update_station(station, occupancy, waits, durations) -> None:
    """Mirror the per-request station statistics for a drained cohort.

    Backlog observations are occupancy-derived estimates: requests that
    never waited observe 1 (the classic fast path), queued requests
    observe their queue depth.
    """
    n = occupancy.size
    stats = station.stats
    stats.arrivals += n
    stats.completions += n
    stats.total_service_s += float(durations.sum())
    if waits is not None:
        stats.total_wait_s += float(waits.sum())
        observed = np.where(
            waits > 0.0,
            np.maximum(occupancy - station.workers, 1),
            1,
        )
    else:
        observed = np.ones(n, dtype=np.int64)
    stats.backlog_sum += float(observed.sum())
    stats._observations += n
    peak = int(observed.max())
    if peak > stats.peak_backlog:
        stats.peak_backlog = peak
    occ_peak = int(occupancy.max())
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


class BatchedPhysics:
    """Pushes request cohorts through the two-tier request path.

    One instance per deployment.  :meth:`begin_drain` snapshots device
    busy state and the per-tier execution handles (re-resolved every
    drain so live migrations that rebind a context take effect at the
    next tick); :meth:`process` runs one cohort; :meth:`end_drain`
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
        self._views: dict = {}
        self._wave = 0

    # -- drain lifecycle ---------------------------------------------------

    def begin_drain(self) -> None:
        self._views = {}
        # Waves inside one drain window overlap in time: each is
        # scheduled against the window-start pool state and the waves
        # are folded back into one carried state at end_drain.
        self._wave = 0
        self._web_free0 = self.web_pool.snapshot()
        self._db_free0 = self.db_pool.snapshot()
        self._web_comps: list = []
        self._db_comps: list = []
        d = self.deployment
        if self.virtualized:
            self._hv_web = d.web_context.hypervisor
            self._hv_db = d.db_context.hypervisor
            web_frac = self._hv_web.scheduler.speed_fraction(
                d.web_context.domain.name
            )
            db_frac = self._hv_db.scheduler.speed_fraction(
                d.db_context.domain.name
            )
            self._web_s_per_cycle = 1.0 / (
                self._hv_web.server.cpu.frequency_hz * web_frac
            )
            self._db_s_per_cycle = 1.0 / (
                self._hv_db.server.cpu.frequency_hz * db_frac
            )
            # Pure (uncontended) rates: the span reconstruction reports
            # actual − pure as the credit-scheduler ready inflation.
            self._web_pure_per_cycle = (
                1.0 / self._hv_web.server.cpu.frequency_hz
            )
            self._db_pure_per_cycle = (
                1.0 / self._hv_db.server.cpu.frequency_hz
            )
        else:
            self._web_s_per_cycle = 1.0 / d.web_server.cpu.frequency_hz
            self._db_s_per_cycle = 1.0 / d.db_server.cpu.frequency_hz
            self._web_pure_per_cycle = self._web_s_per_cycle
            self._db_pure_per_cycle = self._db_s_per_cycle

    def end_drain(self, horizon: float) -> None:
        self.web_pool.merge_window(self._web_free0, self._web_comps)
        self.db_pool.merge_window(self._db_free0, self._db_comps)
        # Several hops (lanes) share one physical device; the carried
        # busy frontier is the latest completion over all of them.
        merged: dict = {}
        for (dev_id, kind, direction, _lane, _wave), view in self._views.items():
            key = (dev_id, kind, direction)
            prior = merged.get(key)
            if prior is None or view[0] > prior[0]:
                merged[key] = view
        for (_, kind, direction), view in merged.items():
            device = view[1]
            if kind == "nic":
                if direction == "rx":
                    device._rx_busy_until = view[0]
                else:
                    device._tx_busy_until = view[0]
            else:
                device._busy_until = view[0]
        self._views = {}
        if self.virtualized:
            d = self.deployment
            d.web_context.domain.active_workers = self.web_pool.busy_count(
                horizon
            )
            d.db_context.domain.active_workers = self.db_pool.busy_count(
                horizon
            )

    # -- device views ------------------------------------------------------

    def _view(self, device, kind: str, direction: str, lane: str) -> list:
        """Busy-frontier view of one device for one *hop* (lane).

        The stage sweep visits a shared device out of global time
        order (all stage-A transfers, then all stage-Q transfers, ...),
        so one common frontier would floor a later stage's early
        transfers behind the previous stage's last completion.  Each
        hop therefore gets its own lane seeded from the device's real
        busy time: serialization *within* a hop is exact (Lindley) and
        cross-hop contention inside one drain is not modeled — a
        documented approximation, negligible at the paper's device
        utilizations.
        """
        key = (id(device), kind, direction, lane, self._wave)
        view = self._views.get(key)
        if view is None:
            if kind == "nic":
                busy = (
                    device._rx_busy_until
                    if direction == "rx"
                    else device._tx_busy_until
                )
            else:
                busy = device._busy_until
            view = [busy, device]
            self._views[key] = view
        return view

    def _nic_flow(
        self, nic, direction, times, physical, owner, lane
    ) -> np.ndarray:
        view = self._view(nic, "nic", direction, lane)
        completions, view[0] = lindley(
            times, physical / nic.bandwidth_bps, view[0]
        )
        counters = nic._rx_bytes if direction == "rx" else nic._tx_bytes
        _bump(counters, owner, float(physical.sum()))
        nic.packets[direction] += times.size
        return completions

    def _disk_flow(self, disk, kind, times, physical, owner, lane) -> np.ndarray:
        view = self._view(disk, "disk", "", lane)
        bandwidth = (
            disk.read_bandwidth_bps
            if kind == "read"
            else disk.write_bandwidth_bps
        )
        completions, view[0] = lindley(
            times, disk.access_latency_s + physical / bandwidth, view[0]
        )
        counters = disk._bytes_read if kind == "read" else disk._bytes_written
        _bump(counters, owner, float(physical.sum()))
        disk.requests_served += times.size
        return completions

    # -- tier-level operations (virtualized vs bare-metal) ------------------

    def _net(
        self, tier: str, direction: str, times, logical, lane: str
    ) -> np.ndarray:
        """Guest/host network transfer for one cohort; returns completions."""
        context = (
            self.deployment.web_context
            if tier == "web"
            else self.deployment.db_context
        )
        if self.virtualized:
            hv = self._hv_web if tier == "web" else self._hv_db
            backend = hv.net_backend
            vm = backend._vm_rx if direction == "rx" else backend._vm_tx
            _bump(vm, context.owner, float(logical.sum()))
            physical = logical * backend._amplification
            backend._charge(
                DOM0_OWNER, float(physical.sum()) * backend._cycles_per_byte
            )
            return self._nic_flow(
                backend.nic, direction, times, physical, DOM0_OWNER, lane
            )
        physical = logical * context.os_model.net_accounting_factor
        return self._nic_flow(
            context.server.nic, direction, times, physical, context.owner,
            lane,
        )

    def _disk_write(self, tier: str, times, logical) -> None:
        """Asynchronous write-back (access log, dirty pages, binlog)."""
        context = (
            self.deployment.web_context
            if tier == "web"
            else self.deployment.db_context
        )
        if self.virtualized:
            hv = self._hv_web if tier == "web" else self._hv_db
            backend = hv.block_backend
            _bump(backend._vm_written, context.owner, float(logical.sum()))
            physical = logical * backend._amplification
            backend._charge(
                DOM0_OWNER, float(physical.sum()) * backend._cycles_per_byte
            )
            if backend.overhead.batch_writes:
                backend._pending_write_bytes += float(physical.sum())
            else:
                self._disk_flow(
                    backend.disk, "write", times, physical, DOM0_OWNER,
                    f"{tier}.write",
                )
            return
        physical = logical * context.os_model.disk_accounting_factor
        self._disk_flow(
            context.server.disk, "write", times, physical, context.owner,
            f"{tier}.write",
        )

    def _db_disk_read(self, times, logical) -> np.ndarray:
        """Synchronous buffer-pool miss reads; returns completions."""
        context = self.deployment.db_context
        if self.virtualized:
            backend = self._hv_db.block_backend
            _bump(backend._vm_read, context.owner, float(logical.sum()))
            physical = logical * backend._amplification
            backend._charge(
                DOM0_OWNER, float(physical.sum()) * backend._cycles_per_byte
            )
            return self._disk_flow(
                backend.disk, "read", times, physical, DOM0_OWNER, "db.read"
            )
        physical = logical * context.os_model.disk_accounting_factor
        return self._disk_flow(
            context.server.disk, "read", times, physical, context.owner,
            "db.read",
        )

    def _account_requests(self, tier: str, count: int, scale: float) -> None:
        context = (
            self.deployment.web_context
            if tier == "web"
            else self.deployment.db_context
        )
        if self.virtualized:
            hv = self._hv_web if tier == "web" else self._hv_db
            hv.requests_accounted += count
            hv.server.cpu.charge(
                DOM0_OWNER,
                count * hv.overhead.hypercall_cycles_per_request * scale,
            )
        else:
            context.server.cpu.charge(
                context.owner,
                count * context.os_model.syscall_cycles_per_request * scale,
            )

    def _account_commits(self, count: int) -> None:
        context = self.deployment.db_context
        if self.virtualized:
            self._hv_db.server.cpu.charge(
                DOM0_OWNER, count * self._hv_db.overhead.commit_cycles
            )
        else:
            context.server.cpu.charge(
                context.owner, count * context.os_model.commit_cycles
            )

    def _charge_cpu(self, tier: str, cycles_total: float) -> None:
        context = (
            self.deployment.web_context
            if tier == "web"
            else self.deployment.db_context
        )
        if self.virtualized:
            hv = self._hv_web if tier == "web" else self._hv_db
            hv.server.cpu.charge(context.owner, cycles_total)
        else:
            context.server.cpu.charge(context.owner, cycles_total)

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
        table = self.table
        rng = self.rng
        n = t0.size
        emit = None
        if trace is not None and self.tracer is not None:
            mask = trace[0]
            if mask.any():
                emit = np.nonzero(mask)[0]
        self._wave += 1
        if self._wave > 1:
            # A later wave overlaps the earlier ones in time; serve it
            # from the window-start pool state (see begin_drain).
            self.web_pool.restore(self._web_free0)
            self.db_pool.restore(self._db_free0)

        # Demand draws, all at once (classic order per request: response
        # noise, buffer-pool binomial, demand noise x3, log, request).
        response_noise = rng.lognormal(
            table.response_mu[g], table.response_sigma[g]
        )
        response_bytes = table.response_base[g] * response_noise
        pages = table.pages[g]
        missed = rng.binomial(pages, self.buffer_pool._miss_probability)
        pool = self.buffer_pool
        pool.hits += int((pages - missed).sum())
        pool.misses += int(missed.sum())
        db_read_bytes = missed * float(PAGE_BYTES)
        if table.demand_params is not None:
            mu, sigma = table.demand_params
            web_noise = rng.lognormal(mu, sigma, n)
            db_noise = rng.lognormal(mu, sigma, n)
            write_noise = rng.lognormal(mu, sigma, n)
        else:
            web_noise = db_noise = write_noise = np.ones(n)
        web_cycles = table.web_base[g] * web_noise
        db_cycles = table.db_base[g] * db_noise
        db_write_bytes = table.db_write_base[g] * write_noise
        log_mu, log_sigma = table.log_params
        web_log_bytes = table.web_log_base[g] * rng.lognormal(
            log_mu, log_sigma, n
        )
        req_mu, req_sigma = table.req_params
        request_bytes = table.request_base[g] * rng.lognormal(
            req_mu, req_sigma, n
        )
        queries = table.db_queries[g]
        query_bytes = table.query_bytes[g]
        result_bytes = table.result_bytes[g]
        commits = table.writes[g]

        # Stage A: client -> web ingress.
        c1 = self._net("web", "rx", t0, request_bytes, "request")
        web_arrive = c1 + d._lat_client_web

        # Stage W: the PHP worker pool.
        web_durations = web_cycles * self._web_s_per_cycle
        starts, wd, occupancy = self.web_pool.schedule(
            web_arrive, web_durations
        )
        self._web_comps.append(wd)
        waits = None
        if starts is not web_arrive:
            waits = starts - web_arrive
        self._account_requests("web", n, self._web_scale)
        self._charge_cpu("web", float(web_cycles.sum()))
        _update_station(d.php_tier.station, occupancy, waits, web_durations)
        d.php_tier.requests_handled += n

        # Web completion side effects: access log + session store writes.
        order = np.argsort(wd, kind="stable")
        self._disk_write("web", wd[order], web_log_bytes[order])

        has_db = queries > 0
        t_ready = wd.copy()  # per-request time the response leaves the web tier
        db_arrive_f = db_start_f = db_done_f = blocked_f = None
        if emit is not None:
            # Cohort-aligned scatter targets for the span reconstruction.
            db_arrive_f = np.full(n, np.nan)
            db_start_f = np.full(n, np.nan)
            db_done_f = np.full(n, np.nan)
            blocked_f = np.zeros(n)
        if has_db.any():
            sub = np.nonzero(has_db)[0]
            sub = sub[np.argsort(wd[sub], kind="stable")]
            wd_s = wd[sub]
            # Stage Q: query out of the web tier, into the db tier.
            self._net("web", "tx", wd_s, query_bytes[sub], "query")
            c2 = self._net("db", "rx", wd_s, query_bytes[sub], "query")
            db_arrive = c2 + d._lat_web_db

            # Stage D: the MySQL worker pool.  Miss reads are submitted
            # at the queue-arrival time (exact whenever the request does
            # not wait, which is the overwhelmingly common case).
            db_durations = db_cycles[sub] * self._db_s_per_cycle
            reads = db_read_bytes[sub] > 0
            if reads.any():
                r = np.nonzero(reads)[0]
                read_done = self._db_disk_read(
                    db_arrive[r], db_read_bytes[sub][r]
                )
                blocked = read_done - db_arrive[r]
                np.add.at(db_durations, r, np.maximum(blocked, 0.0))
                if emit is not None:
                    blocked_f[sub[r]] = np.maximum(blocked, 0.0)
            db_starts, dd, db_occ = self.db_pool.schedule(
                db_arrive, db_durations
            )
            if emit is not None:
                db_arrive_f[sub] = db_arrive
                db_start_f[sub] = db_starts
                db_done_f[sub] = dd
            self._db_comps.append(dd)
            db_waits = None
            if db_starts is not db_arrive:
                db_waits = db_starts - db_arrive
            self._account_requests("db", sub.size, self._db_scale)
            self._charge_cpu("db", float(db_cycles[sub].sum()))
            _update_station(
                d.mysql_tier.station, db_occ, db_waits, db_durations
            )
            d.mysql_tier.queries_executed += int(queries[sub].sum())
            commit_count = int(commits[sub].sum())
            if commit_count:
                d.mysql_tier.commits += commit_count
                self._account_commits(commit_count)

            # Db completion side effects and the result hop back.
            dorder = np.argsort(dd, kind="stable")
            dd_o = dd[dorder]
            sub_o = sub[dorder]
            writes_mask = db_write_bytes[sub_o] > 0
            if writes_mask.any():
                w = np.nonzero(writes_mask)[0]
                self._disk_write("db", dd_o[w], db_write_bytes[sub_o][w])
            self._net("db", "tx", dd_o, result_bytes[sub_o], "result")
            c3 = self._net("web", "rx", dd_o, result_bytes[sub_o], "result")
            t_ready[sub_o] = c3 + d._lat_db_web

        # Stage S: response egress back to the client.
        sorder = np.argsort(t_ready, kind="stable")
        c4 = self._net(
            "web", "tx", t_ready[sorder], response_bytes[sorder], "response"
        )
        t_done = np.empty(n)
        t_done[sorder] = c4 + d._lat_web_client
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
        web_pure_rate = self._web_pure_per_cycle
        db_pure_rate = self._db_pure_per_cycle
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


def _record_requests(stats: SessionStats, names, g: np.ndarray) -> None:
    stats.requests_sent += g.size
    counts = np.bincount(g, minlength=len(names))
    per = stats.per_interaction
    for i in np.nonzero(counts)[0]:
        name = names[i]
        per[name] = per.get(name, 0) + int(counts[i])


def _record_responses(stats: SessionStats, times: np.ndarray) -> None:
    stats.responses_received += times.size
    stats.total_response_time_s += float(times.sum())
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
        draws = np.array([self.rng.uniform() for _ in range(n)])
        self.stype = (draws >= mix.browse_fraction).astype(np.int8)
        self.walks = (
            _MatrixWalk(matrices[SessionType.BROWSE], self.physics.table),
            _MatrixWalk(matrices[SessionType.BID], self.physics.table),
        )
        self.state = np.empty(n, dtype=np.int64)
        for t in (0, 1):
            self.state[self.stype == t] = self.walks[t].initial_index
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
        self.wake = np.array(
            [rng.uniform(0.0, max(self._ramp_s, 1e-9)) for _ in range(n)]
        )
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
        table = physics.table
        names = table.names
        stats = self.stats
        mix_think = self.mix.think_time_s
        began = False
        while True:
            due = np.nonzero(self.wake <= tick_time)[0]
            if due.size == 0:
                break
            if not began:
                physics.begin_drain()
                began = True
            due = due[np.argsort(self.wake[due], kind="stable")]
            t0 = self.wake[due]
            # Step the chains (per session type, vectorized CDF inversion).
            g = np.empty(due.size, dtype=np.int64)
            for t in (0, 1):
                mask = self.stype[due] == t
                if mask.any():
                    walk = self.walks[t]
                    nxt = walk.step(self.rng, self.state[due[mask]])
                    self.state[due[mask]] = nxt
                    g[mask] = walk.to_global[nxt]
            _record_requests(stats, names, g)
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
        if began:
            physics.end_drain(tick_time)


class BatchedOpenDriver(AdmissionLedger):
    """Open-loop driver over column arrays.

    Shares :class:`~repro.traffic.driver.OpenLoopDriver`'s admission
    ledger, so both engines count and report arrivals alike.  The
    arrival process is built from the same ``"<stream>.arrivals"`` RNG
    stream, so offered arrival times are bit-identical to the classic
    engine; admission, transitions and think times draw from the new
    ``batched.sessions`` stream.
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
        self.walks = (
            _MatrixWalk(matrices[SessionType.BROWSE], self.physics.table),
            _MatrixWalk(matrices[SessionType.BID], self.physics.table),
        )
        # Session slots (SoA with a free list).
        capacity = 64
        self.wake = np.full(capacity, np.inf)
        self.stype = np.zeros(capacity, dtype=np.int8)
        self.state = np.zeros(capacity, dtype=np.int64)
        self.remaining = np.zeros(capacity, dtype=np.int64)
        self.active = np.zeros(capacity, dtype=bool)
        # Monotonic per-session serial (the classic driver's session_id);
        # slots are recycled, serials are not, so the trace sampler keys
        # on a stable identity.
        self.serial = np.zeros(capacity, dtype=np.int64)
        self._next_serial = 0
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._pending_arrival: Optional[float] = None
        self._retries: List[tuple] = []  # (due_time, attempt)
        self._drain_process: Optional[PeriodicProcess] = None

    def start(self) -> None:
        if self._started:
            raise ConfigurationError("driver already started")
        self._started = True
        self._pending_arrival = self.process.next_arrival()
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
        for name in ("wake", "stype", "state", "remaining", "active",
                     "serial"):
            array = getattr(self, name)
            grown = np.zeros(new, dtype=array.dtype)
            grown[:old] = array
            setattr(self, name, grown)
        self.wake[old:] = np.inf
        self._free.extend(range(new - 1, old - 1, -1))

    def _admit(self, t: float) -> None:
        self.arrivals_admitted += 1
        self._in_flight += 1
        if not self._free:
            self._grow()
        slot = self._free.pop()
        type_index = 0 if self.rng.uniform() < self.mix.browse_fraction else 1
        self.stype[slot] = type_index
        self.state[slot] = self.walks[type_index].initial_index
        self.remaining[slot] = self.requests_per_session
        self.wake[slot] = t
        self.active[slot] = True
        self.serial[slot] = self._next_serial
        self._next_serial += 1

    def _handle_shed(self, t: float, attempt: int) -> None:
        if attempt < self.retry_max:
            self.arrivals_retried += 1
            delay = self.retry_backoff_s * (2.0 ** attempt)
            self._retries.append((t + delay, attempt + 1))
        else:
            self.arrivals_abandoned += 1

    # -- the drain ----------------------------------------------------------

    def _drain(self, tick_time: float) -> None:
        physics = self.physics
        began = False

        # 1. Offer this tick's arrivals (and due retries) in time order.
        arrivals: List[float] = []
        t = self._pending_arrival
        while t is not None and t <= tick_time:
            arrivals.append(t)
            t = self.process.next_arrival()
        self._pending_arrival = t
        if arrivals:
            times = np.asarray(arrivals)
            self.meter.record_batch(times)
            self.arrivals_offered += len(arrivals)
        due_retries = [r for r in self._retries if r[0] <= tick_time]
        if due_retries:
            self._retries = [r for r in self._retries if r[0] > tick_time]
        pending = [(t, 0, False) for t in arrivals] + [
            (t, attempt, True) for (t, attempt) in due_retries
        ]
        pending.sort(key=lambda o: o[0])

        budget = self.session_budget
        if budget is None:
            # No gate: every offer starts a session at its arrival time.
            for offer_time, _attempt, _is_retry in pending:
                self._admit(offer_time)
            pending = []

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
        finishes: List[float] = []
        while True:
            began = self._run_waves(tick_time, began, finishes)
            if not pending:
                break
            finishes.sort()
            still: List[tuple] = []
            progressed = False
            for offer_time, attempt, is_retry in pending:
                in_flight_at_offer = self._in_flight + (
                    len(finishes)
                    - bisect_right(finishes, offer_time)
                )
                if in_flight_at_offer < budget:
                    self._admit(offer_time)
                    progressed = True
                else:
                    still.append((offer_time, attempt, is_retry))
            pending = still
            if not progressed:
                break

        # 3. Offers no completion could save are genuinely shed.
        for offer_time, attempt, is_retry in pending:
            if not is_retry:
                self.arrivals_shed += 1
            self._handle_shed(offer_time, attempt)
        if pending:
            # Retries scheduled by the sheds above may fall inside this
            # very window; give them one more gate walk so a backoff
            # shorter than the tick is not silently deferred.
            due_again = [r for r in self._retries if r[0] <= tick_time]
            if due_again:
                self._retries = [
                    r for r in self._retries if r[0] > tick_time
                ]
                finishes.sort()
                for offer_time, attempt in sorted(due_again):
                    in_flight_at_offer = self._in_flight + (
                        len(finishes)
                        - bisect_right(finishes, offer_time)
                    )
                    if in_flight_at_offer < budget:
                        self._admit(offer_time)
                    else:
                        self._handle_shed(offer_time, attempt)
                began = self._run_waves(tick_time, began, finishes)

        if began:
            physics.end_drain(tick_time)

    def _run_waves(
        self, tick_time: float, began: bool, finishes: List[float]
    ) -> bool:
        """Process due request waves until no session wakes inside the tick.

        Appends the exact finish time of every session that completes to
        ``finishes`` (the admission gate's evidence) and returns whether
        ``physics.begin_drain`` has been called.
        """
        physics = self.physics
        names = physics.table.names
        stats = self.stats
        while True:
            due = np.nonzero(self.active & (self.wake <= tick_time))[0]
            if due.size == 0:
                break
            if not began:
                physics.begin_drain()
                began = True
            due = due[np.argsort(self.wake[due], kind="stable")]
            t0 = self.wake[due]
            g = np.empty(due.size, dtype=np.int64)
            for type_index in (0, 1):
                mask = self.stype[due] == type_index
                if mask.any():
                    walk = self.walks[type_index]
                    nxt = walk.step(self.rng, self.state[due[mask]])
                    self.state[due[mask]] = nxt
                    g[mask] = walk.to_global[nxt]
            _record_requests(stats, names, g)
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
            if finished.any():
                done_slots = due[finished]
                self.active[done_slots] = False
                self.wake[done_slots] = np.inf
                self._free.extend(int(s) for s in done_slots)
                self.sessions_completed += int(done_slots.size)
                self._in_flight -= int(done_slots.size)
                finishes.extend(float(v) for v in t_done[finished])
            live = due[~finished]
            if live.size:
                thinks = self.rng.exponential(
                    self.mix.think_time_s, live.size
                )
                self.wake[live] = t_done[~finished] + thinks
        return began
