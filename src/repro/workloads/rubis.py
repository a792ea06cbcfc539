"""The RUBiS web workload as a :class:`~repro.workloads.base.Workload`.

This is the paper's interactive tenant: the two-tier RUBiS deployment
plus its traffic driver — the closed-loop client population by default,
or an :class:`~repro.traffic.driver.OpenLoopDriver` when the scenario
carries an open-loop traffic spec.  The wiring (stream names,
construction order, probe entities ``web``/``db``) is exactly the
pre-refactor experiment runner's, so single-tenant scenarios keep
bit-identical traces through the workload abstraction.
"""

from __future__ import annotations

from typing import List, Optional

from repro.monitoring.probes import ContextProbe, Probe
from repro.rubis.batched import BatchedClosedDriver, BatchedOpenDriver
from repro.rubis.client import ClientPopulation
from repro.rubis.deployment import Deployment
from repro.rubis.transitions import bidding_matrix, browsing_matrix
from repro.rubis.workload import SessionType
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.traffic.driver import ArrivalMeter
from repro.traffic.spec import build_driver as build_traffic_driver
from repro.traffic.spec import build_process as build_traffic_process
from repro.workloads.base import Workload


def _metered_send(meter: ArrivalMeter, sim: Simulator, send_fn):
    """Wrap a deployment send function to count offered arrivals."""

    def metered(session, interaction, on_response):
        meter.record(sim.now)
        send_fn(session, interaction, on_response)

    return metered


class RubisWorkload(Workload):
    """RUBiS tiers plus their traffic driver, as one tenant."""

    name = "web"

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        scenario,
        deployment: Deployment,
        meter_arrivals: bool = False,
    ) -> None:
        self.sim = sim
        self.scenario = scenario
        self.deployment = deployment
        matrices = {
            SessionType.BROWSE: browsing_matrix(),
            SessionType.BID: bidding_matrix(),
        }
        traffic = scenario.traffic
        batched = scenario.batched
        self.meter: Optional[ArrivalMeter] = None
        self.tracer = None
        if scenario.trace_sample > 0.0:
            # Deferred import: tracing lives in repro.obs, which is not
            # an import-time dependency of the workload layer.
            from repro.obs.tracing import RequestTracer

            self.tracer = RequestTracer(
                scenario.seed, scenario.trace_sample, scenario.engine
            )
        if traffic is not None and traffic.open_loop:
            if batched:
                process = build_traffic_process(
                    traffic,
                    scenario.mix,
                    streams.stream(f"{traffic.stream}.arrivals"),
                )
                self.population = BatchedOpenDriver(
                    sim,
                    scenario.mix,
                    deployment,
                    streams,
                    matrices,
                    process,
                    session_budget=traffic.session_budget,
                    requests_per_session=traffic.requests_per_session,
                    retry_max=traffic.retry_max,
                    retry_backoff_s=traffic.retry_backoff_s,
                    tracer=self.tracer,
                )
            else:
                self.population = build_traffic_driver(
                    traffic,
                    sim,
                    scenario.mix,
                    deployment.send,
                    streams,
                    matrices,
                )
            self.meter = self.population.meter
        elif batched:
            meter = ArrivalMeter() if meter_arrivals else None
            self.population = BatchedClosedDriver(
                sim,
                scenario.mix,
                deployment,
                streams,
                matrices,
                ramp_s=scenario.ramp_s,
                meter=meter,
                tracer=self.tracer,
            )
            self.meter = meter
        else:
            send_fn = deployment.send
            if meter_arrivals:
                self.meter = ArrivalMeter()
                send_fn = _metered_send(self.meter, sim, send_fn)
            self.population = ClientPopulation(
                sim,
                scenario.mix,
                send_fn,
                streams.stream("clients"),
                matrices,
                ramp_s=scenario.ramp_s,
            )
        deployment.population = self.population
        if self.tracer is not None and not batched:
            # Classic engines trace in-band: the deployment stamps a
            # builder onto each sampled request at send time.
            deployment.tracer = self.tracer

    # -- Workload interface ------------------------------------------------

    def probes(self) -> List[Probe]:
        deployment = self.deployment
        return [
            ContextProbe(
                "web",
                deployment.web_context,
                requests_fn=lambda: deployment.php_tier.requests_handled,
            ),
            ContextProbe(
                "db",
                deployment.db_context,
                requests_fn=lambda: (
                    deployment.mysql_tier.station.stats.completions
                ),
            ),
        ]

    def start(self) -> None:
        self.population.start()

    def shutdown(self) -> None:
        self.deployment.shutdown()

    @property
    def stats(self):
        return self.population.stats

    @property
    def open_loop(self) -> bool:
        return self.scenario.open_loop

    def summary(self) -> dict:
        stats = self.population.stats
        out = {
            "kind": "rubis",
            "requests_completed": stats.responses_received,
            "mean_response_time_s": stats.mean_response_time_s,
        }
        if self.open_loop:
            out.update(self.population.summary())
        return out
