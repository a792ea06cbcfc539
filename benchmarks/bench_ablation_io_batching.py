"""A2 — Ablation: dom0 write batching (the split-driver I/O mechanism).

DESIGN.md calls out dom0's backend batching as a load-bearing design
choice behind the environments' different disk behaviour: the backend
coalesces hundreds of small guest writes into one large physical
request per flush interval, which is why the virtualized physical disk
stream is made of few, large, smooth operations while bare metal sees
the raw per-request pattern (the paper's Q4 contrast).

This ablation disables batching (``OverheadModel.batch_writes=False``)
and measures the physical request stream: the request count must
explode and the mean request size collapse, while total bytes are
conserved.
"""

import dataclasses

from repro.experiments.calibration import calibrate_virtualized
from repro.placement.engine import PlacementEngine
from repro.rubis.client import ClientPopulation
from repro.rubis.deployment import VirtualizedDeployment
from repro.rubis.transitions import bidding_matrix, browsing_matrix
from repro.rubis.workload import SessionType, WorkloadMix
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

DURATION_S = 120.0


def run_with_batching(batch_writes: bool):
    calibrated = calibrate_virtualized()
    overhead = dataclasses.replace(
        calibrated.overhead, batch_writes=batch_writes
    )
    sim = Simulator()
    streams = RandomStreams(seed=23)
    engine = PlacementEngine(sim, 1, overhead=overhead)
    host = engine.hypervisors["cloud-1"]
    deployment = VirtualizedDeployment(
        sim,
        streams,
        host,
        engine.cluster,
        config=calibrated.deployment_config,
    )
    mix = WorkloadMix("browsing", browse_fraction=1.0, clients=1000)
    population = ClientPopulation(
        sim,
        mix,
        deployment.send,
        streams.stream("clients"),
        {
            SessionType.BROWSE: browsing_matrix(),
            SessionType.BID: bidding_matrix(),
        },
    )
    deployment.population = population
    population.start()
    sim.run_until(DURATION_S)
    deployment.shutdown()
    engine.shutdown()
    disk = host.server.disk
    total_bytes = disk.bytes_read("dom0") + disk.bytes_written("dom0")
    return {
        "requests": disk.requests_served,
        "total_bytes": total_bytes,
        "bytes_per_request": total_bytes / max(disk.requests_served, 1),
    }


def test_io_batching_ablation(benchmark):
    def ablate():
        return {
            "batched": run_with_batching(True),
            "unbatched": run_with_batching(False),
        }

    out = benchmark.pedantic(ablate, rounds=1, iterations=1)
    print()
    for label, row in out.items():
        print(
            f"{label:<10s} physical requests={row['requests']:>7d} "
            f"bytes/request={row['bytes_per_request']:>10.0f} "
            f"total MB={row['total_bytes'] / 1e6:>7.1f}"
        )
        benchmark.extra_info[f"{label}.requests"] = row["requests"]
        benchmark.extra_info[f"{label}.bytes_per_request"] = round(
            row["bytes_per_request"]
        )
    batched, unbatched = out["batched"], out["unbatched"]
    # Mechanism: batching coalesces many guest writes per flush.
    assert unbatched["requests"] > 10 * batched["requests"]
    assert batched["bytes_per_request"] > 10 * unbatched["bytes_per_request"]
    # ...while conserving the bytes moved.
    assert unbatched["total_bytes"] < 1.10 * batched["total_bytes"]
    assert unbatched["total_bytes"] > 0.90 * batched["total_bytes"]
