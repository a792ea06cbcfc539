"""Deployment wiring: RUBiS tiers on a virtualized or bare-metal testbed.

A deployment wires the paper's two tiers into one of its two
environments:

* :class:`VirtualizedDeployment` — two guest VMs (web+app, MySQL) on a
  Xen-like hypervisor it is given (Section 4.1).  The host, its dom0
  and its cluster are built by
  :class:`~repro.placement.engine.PlacementEngine`; the deployment only
  creates its two domains there.  The VMs share the server, so
  inter-tier traffic crosses the software bridge with local latency.
* :class:`BareMetalDeployment` — the two tiers on *separate* physical
  servers of a private cluster (Section 4.2), so inter-tier traffic
  crosses the switch; the paper invokes this "longer communication
  delay in the non-virtualized system" when discussing the earlier RAM
  jumps.

Both expose the same ``send`` function to the client population and the
same tier/contexts to the monitoring layer, so every other part of the
pipeline is environment-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.apps.requests import Request
from repro.apps.tier import (
    BareMetalContext,
    ExecutionContext,
    OsActivityModel,
    VirtualizedContext,
)
from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster
from repro.rubis.database import BufferPool, RubisDatabase
from repro.rubis.demand import DemandSampler, DemandScaling
from repro.rubis.memorymodel import MemoryProfile, TierMemoryModel
from repro.rubis.mysqltier import MysqlTier, MysqlTierConfig
from repro.rubis.phptier import PhpTier, PhpTierConfig
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.units import GB, MB
from repro.virt.hypervisor import Hypervisor

WEB_TIER = "web"
DB_TIER = "db"
CLIENT_ENDPOINT = "client"

#: Default sizing of the paper's web/db guest VMs.  Shared with the
#: placement layer, whose feasibility bookkeeping must match the
#: domains the deployment actually creates.
DEFAULT_VM_VCPUS = 2
DEFAULT_VM_MEMORY_BYTES = 2 * GB


@dataclass
class DeploymentConfig:
    """Environment-independent deployment parameters."""

    scaling: DemandScaling = field(default_factory=DemandScaling)
    web_memory: MemoryProfile = field(
        default_factory=lambda: MemoryProfile(base_mb=280.0)
    )
    db_memory: MemoryProfile = field(
        default_factory=lambda: MemoryProfile(
            base_mb=115.0,
            per_session_kb=4.0,
            cache_growth_mb=60.0,
            noise_mb=3.0,
            jump_mb=0.0,
            max_jumps=0,
        )
    )
    php: PhpTierConfig = field(default_factory=PhpTierConfig)
    mysql: MysqlTierConfig = field(default_factory=MysqlTierConfig)
    buffer_pool_bytes: float = 384 * MB
    #: RUBiS touches a small hot set (active items and their bids) for
    #: almost all accesses; with a warmed pool the hit ratio sits near
    #: 99.4 %, which keeps the db tier CPU-bound as the paper observes.
    buffer_pool_hot_fraction: float = 0.05
    buffer_pool_hot_access: float = 0.99
    database: RubisDatabase = field(default_factory=RubisDatabase)


class Deployment:
    """Common request-path logic for both environments."""

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        cluster: Cluster,
        config: Optional[DeploymentConfig] = None,
    ) -> None:
        self.sim = sim
        self.streams = streams
        self.config = config or DeploymentConfig()
        self.cluster = cluster
        self.buffer_pool = BufferPool(
            capacity_bytes=self.config.buffer_pool_bytes,
            database=self.config.database,
            hot_fraction=self.config.buffer_pool_hot_fraction,
            hot_access_probability=self.config.buffer_pool_hot_access,
        )
        self.demand_sampler = DemandSampler(
            self.config.scaling, self.buffer_pool, streams.stream("demand")
        )
        self.population = None  # set by the runner once clients exist
        #: Request tracer (:class:`repro.obs.tracing.RequestTracer`) of
        #: a ``trace_sample > 0`` run; None keeps the request path free
        #: of tracing work entirely.
        self.tracer = None
        # Subclasses must assign these in _build().
        self.web_context: ExecutionContext = None
        self.db_context: ExecutionContext = None
        self.php_tier: PhpTier = None
        self.mysql_tier: MysqlTier = None
        self.web_memory_model: TierMemoryModel = None
        self.db_memory_model: TierMemoryModel = None
        self._build()
        if self.web_context is None or self.db_context is None:
            raise ConfigurationError("deployment subclass did not build tiers")
        # Placement is fixed once _build ran, so the four request-path
        # latencies are constants; resolving them per hop was measurable.
        fabric = self.cluster.fabric
        self._lat_client_web = fabric.latency(CLIENT_ENDPOINT, WEB_TIER)
        self._lat_web_db = fabric.latency(WEB_TIER, DB_TIER)
        self._lat_db_web = fabric.latency(DB_TIER, WEB_TIER)
        self._lat_web_client = fabric.latency(WEB_TIER, CLIENT_ENDPOINT)

    # -- subclass surface ---------------------------------------------------

    def _build(self) -> None:
        raise NotImplementedError

    @property
    def environment(self) -> str:
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------------

    def _active_sessions(self) -> int:
        # Works for either traffic driver: the closed-loop population
        # reports its (fixed) pool size, the open-loop driver its
        # in-flight transient sessions.
        if self.population is None:
            return 0
        return self.population.active_session_count()

    def _make_tiers(self) -> None:
        self.php_tier = PhpTier(self.sim, self.web_context, self.config.php)
        self.mysql_tier = MysqlTier(self.sim, self.db_context, self.config.mysql)
        self.web_memory_model = TierMemoryModel(
            self.sim,
            self.web_context,
            self.config.web_memory,
            self.php_tier.station,
            self.streams.stream("memory.web"),
            active_sessions_fn=self._active_sessions,
        )
        self.db_memory_model = TierMemoryModel(
            self.sim,
            self.db_context,
            self.config.db_memory,
            self.mysql_tier.station,
            self.streams.stream("memory.db"),
            active_sessions_fn=self._active_sessions,
        )

    # -- the request path -------------------------------------------------------

    def send(
        self,
        session,
        interaction: str,
        on_response: Callable[[Request], None],
    ) -> None:
        """Entry point used by client sessions (the ``SendFn``).

        The continuation rides on the request itself (``on_response``)
        so every later stage passes stable bound methods around; the
        per-request closures this replaced were a measurable share of
        the request-path cost.
        """
        demand = self.demand_sampler.sample(interaction)
        sim = self.sim
        request = Request(session.session_id, interaction, demand, sim.now)
        request.on_response = on_response
        if self.tracer is not None:
            # RNG-free sampling decision; the physics below is
            # bit-identical whether or not the request is sampled.
            request.trace = self.tracer.begin(session, interaction, sim.now)
        transfer = self.web_context.net_receive(demand.request_bytes) - sim.now
        if transfer < 0.0:
            transfer = 0.0
        if request.trace is not None:
            request.trace.add_net(
                "net.request", sim.now, transfer + self._lat_client_web
            )
        sim.schedule(
            transfer + self._lat_client_web,
            self.php_tier.handle, request, self._web_done,
        )

    def _web_done(self, request: Request) -> None:
        demand = request.demand
        if demand.db_queries > 0:
            sim = self.sim
            self.web_context.net_transmit(demand.query_bytes)
            transfer = self.db_context.net_receive(demand.query_bytes) - sim.now
            if transfer < 0.0:
                transfer = 0.0
            if request.trace is not None:
                request.trace.add_net(
                    "net.query", sim.now, transfer + self._lat_web_db
                )
            sim.schedule(
                transfer + self._lat_web_db,
                self.mysql_tier.handle, request, self._db_done,
            )
        else:
            self._respond(request)

    def _db_done(self, request: Request) -> None:
        demand = request.demand
        sim = self.sim
        self.db_context.net_transmit(demand.result_bytes)
        transfer = self.web_context.net_receive(demand.result_bytes) - sim.now
        if transfer < 0.0:
            transfer = 0.0
        if request.trace is not None:
            request.trace.add_net(
                "net.result", sim.now, transfer + self._lat_db_web
            )
        sim.schedule(
            transfer + self._lat_db_web, self._respond, request
        )

    def _respond(self, request: Request) -> None:
        sim = self.sim
        transfer = (
            self.web_context.net_transmit(request.demand.response_bytes)
            - sim.now
        )
        if transfer < 0.0:
            transfer = 0.0
        if request.trace is not None:
            request.trace.add_net(
                "net.response", sim.now, transfer + self._lat_web_client
            )
            self.tracer.commit(request.trace)
        sim.schedule(
            transfer + self._lat_web_client,
            request.on_response,
            request,
        )

    def shutdown(self) -> None:
        """Disarm the deployment's periodic processes.

        A virtualized host's processes are its engine's to stop
        (:meth:`~repro.placement.engine.PlacementEngine.shutdown`).
        """
        self.web_memory_model.stop()
        self.db_memory_model.stop()


class VirtualizedDeployment(Deployment):
    """Both tiers in VMs on a hypervisor the deployment is given.

    The host is built elsewhere — by
    :class:`~repro.placement.engine.PlacementEngine`, which also owns
    its lifecycle — and ``cluster`` is the cluster it lives in.  The
    deployment creates ``web-vm`` and ``db-vm`` there, sized
    :data:`DEFAULT_VM_VCPUS` / :data:`DEFAULT_VM_MEMORY_BYTES` like the
    testbed's placement requests, so on a shared host they are two
    domains among co-resident tenants, sharing the credit scheduler and
    the dom0 I/O backends.  The tiers reach the host through
    ``web_context.hypervisor`` and ``web_context.domain``, which follow
    a live migration.
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        hypervisor: Hypervisor,
        cluster: Cluster,
        config: Optional[DeploymentConfig] = None,
    ) -> None:
        self._hypervisor = hypervisor
        super().__init__(sim, streams, cluster, config)

    @property
    def environment(self) -> str:
        return "virtualized"

    def _build(self) -> None:
        hypervisor = self._hypervisor
        web_domain, db_domain = (
            hypervisor.create_domain(
                name,
                vcpu_count=DEFAULT_VM_VCPUS,
                memory_bytes=DEFAULT_VM_MEMORY_BYTES,
            )
            for name in ("web-vm", "db-vm")
        )
        self.web_context = VirtualizedContext(hypervisor, web_domain)
        self.db_context = VirtualizedContext(hypervisor, db_domain)
        fabric = self.cluster.fabric
        fabric.place(WEB_TIER, hypervisor.server.name)
        fabric.place(DB_TIER, hypervisor.server.name)
        fabric.place(CLIENT_ENDPOINT, "client-host")
        self._make_tiers()


class BareMetalDeployment(Deployment):
    """Each tier on its own physical server, no hypervisor."""

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        config: Optional[DeploymentConfig] = None,
        web_os_model: Optional[OsActivityModel] = None,
        db_os_model: Optional[OsActivityModel] = None,
    ) -> None:
        self._web_os_model = web_os_model or OsActivityModel()
        self._db_os_model = db_os_model or OsActivityModel()
        super().__init__(sim, streams, Cluster(), config)

    @property
    def environment(self) -> str:
        return "bare-metal"

    def _build(self) -> None:
        self.web_server = self.cluster.add_server("web-pm")
        self.db_server = self.cluster.add_server("db-pm")
        self.web_context = BareMetalContext(
            self.sim, self.web_server, "pm:web", self._web_os_model
        )
        self.db_context = BareMetalContext(
            self.sim, self.db_server, "pm:db", self._db_os_model
        )
        fabric = self.cluster.fabric
        fabric.place(WEB_TIER, "web-pm")
        fabric.place(DB_TIER, "db-pm")
        fabric.place(CLIENT_ENDPOINT, "client-host")
        self._make_tiers()

    def shutdown(self) -> None:
        super().shutdown()
        self.web_context.shutdown()
        self.db_context.shutdown()
