"""A1 — Ablation: credit-scheduler caps under CPU pressure.

DESIGN.md calls out the credit scheduler as a load-bearing design
choice.  This ablation drives a small, hot population (short think
time) against the web VM and sweeps a CPU cap on its domain: capping
must stretch response times while the demand-side guest cycle counters
stay roughly constant — showing the scheduler, not the workload model,
sets the speed.
"""

from repro.experiments.testbed import calibrated_environment
from repro.monitoring.probes import ContextProbe
from repro.monitoring.sampler import TraceRecorder
from repro.placement.engine import PlacementEngine
from repro.rubis.client import ClientPopulation
from repro.rubis.deployment import VirtualizedDeployment
from repro.rubis.transitions import bidding_matrix, browsing_matrix
from repro.rubis.workload import SessionType, WorkloadMix
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

DURATION_S = 60.0
CAPS = (0.0, 0.5, 0.1)  # uncapped, half a core, a tenth of a core


def run_with_cap(cap_cores: float):
    calibrated = calibrated_environment("virtualized")
    sim = Simulator()
    streams = RandomStreams(seed=11)
    engine = PlacementEngine(sim, 1, overhead=calibrated.overhead)
    deployment = VirtualizedDeployment(
        sim,
        streams,
        engine.hypervisors["cloud-1"],
        engine.cluster,
        config=calibrated.deployment_config,
    )
    deployment.web_context.domain.cap_cores = cap_cores
    mix = WorkloadMix(
        "stress", browse_fraction=1.0, think_time_s=0.4, clients=120
    )
    population = ClientPopulation(
        sim,
        mix,
        deployment.send,
        streams.stream("clients"),
        {
            SessionType.BROWSE: browsing_matrix(),
            SessionType.BID: bidding_matrix(),
        },
        ramp_s=5.0,
    )
    deployment.population = population
    recorder = TraceRecorder(
        sim,
        [ContextProbe("web", deployment.web_context)],
        "virtualized",
        "stress",
    )
    population.start()
    sim.run_until(DURATION_S)
    recorder.stop()
    deployment.shutdown()
    engine.shutdown()
    return {
        "cap": cap_cores,
        "mean_response_s": population.stats.mean_response_time_s,
        "throughput_rps": population.stats.responses_received / DURATION_S,
        "web_cpu_per_sample": recorder.traces.get(
            "web", "cpu_cycles"
        ).without_warmup(10.0).mean(),
    }


def test_scheduler_cap_ablation(benchmark):
    rows = benchmark.pedantic(
        lambda: [run_with_cap(cap) for cap in CAPS], rounds=1, iterations=1
    )
    print()
    print(f"{'cap (cores)':>12s} {'resp (ms)':>10s} {'X (rps)':>9s} "
          f"{'guest cycles/2s':>16s}")
    for row in rows:
        print(
            f"{row['cap'] or 'uncapped':>12} "
            f"{row['mean_response_s'] * 1000:>10.2f} "
            f"{row['throughput_rps']:>9.1f} "
            f"{row['web_cpu_per_sample']:>16.3g}"
        )
        benchmark.extra_info[f"cap_{row['cap']}.resp_ms"] = round(
            row["mean_response_s"] * 1000, 2
        )
    uncapped, half, tight = rows
    # Tighter caps stretch response times monotonically.
    assert tight["mean_response_s"] > half["mean_response_s"]
    assert half["mean_response_s"] >= uncapped["mean_response_s"]
    # The tight cap visibly throttles service.
    assert tight["mean_response_s"] > 2 * uncapped["mean_response_s"]
