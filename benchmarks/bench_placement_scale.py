"""P5 — event throughput vs. fleet size (placement-layer scaling).

A multi-server testbed multiplies the per-server background machinery:
every extra `PhysicalServer` brings its own credit-scheduler epoch
process, dom0 housekeeping, I/O backends and dom0 probe.  This bench
answers two questions:

* **events/s vs. server count** — the same consolidated workload
  (web pair + one batch tenant per extra server) run on fleets of
  1/2/4/8 servers: throughput must degrade sub-linearly (the
  per-server fixed cost is bounded, so a bigger fleet hosting
  proportionally more tenants should not collapse).  Each fleet also
  reports its placement *load imbalance* — max/mean committed VCPUs
  across servers — so a policy regression that piles tenants onto one
  server shows up in the bench output;
* **migration cost in wall-clock** — the `migration_rebalance`
  scenario vs. its watch-only baseline on the same seed: the ~3.5 GiB
  chunked pre-copy adds thousands of NIC events; its wall-clock
  surcharge must stay a small multiple of the baseline.

Quick mode: set ``REPRO_BENCH_QUICK=1`` to shrink horizons so the file
runs in a few seconds (the CI smoke configuration).
"""

import os
import time

from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import (
    fleet_consolidation_scenario,
    migration_rebalance_scenario,
)
from repro.workloads.base import TenantSpec

QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip() in ("1", "true", "yes")

DURATION_S = 40.0 if QUICK else 120.0
CLIENTS = 150 if QUICK else 400
SERVER_COUNTS = (1, 2, 4, 8)
#: The rebalance scenario needs enough load to cross the fleet
#: controller's hot-signal thresholds *and* enough horizon for the
#: ~60 s pre-copy to finish, so the migration bench keeps the PR-3
#: interference-study scale even in quick mode.
MIGRATION_DURATION_S = 90.0 if QUICK else 120.0
MIGRATION_CLIENTS = 400


def _fleet_spec(servers: int):
    """The scaling workload: one batch tenant per server beyond the web's."""
    from dataclasses import replace

    tenants = tuple(
        TenantSpec(name=f"batch{i}" if i else "batch")
        for i in range(max(1, servers - 1))
    )
    base = fleet_consolidation_scenario(
        duration_s=DURATION_S,
        clients=CLIENTS,
        servers=servers,
        placement="priority" if servers > 1 else "firstfit",
    )
    return replace(base, name=f"fleet_scale_s{servers}", tenants=tenants)


def _load_imbalance(spec) -> float:
    """Max/mean committed VCPUs across servers of the built placement
    (1.0 = perfectly even; only placed servers count toward the mean)."""
    from repro.experiments.runner import prepare_run

    prepared = prepare_run(spec)
    engine = prepared.testbed.engine
    committed = [load.committed_vcpus for load in engine.server_loads()]
    mean = sum(committed) / len(committed)
    return max(committed) / mean if mean else 1.0


def test_events_per_second_vs_server_count(benchmark):
    """Simulated-request throughput of the harness across fleet sizes."""

    def run():
        rates = {}
        imbalance = {}
        for servers in SERVER_COUNTS:
            spec = _fleet_spec(servers)
            imbalance[servers] = _load_imbalance(spec)
            start = time.perf_counter()
            result = run_scenario(spec)
            wall = time.perf_counter() - start
            rates[servers] = result.requests_completed / wall
        return rates, imbalance

    rates, imbalance = benchmark.pedantic(run, rounds=1, iterations=1)
    for servers, rate in rates.items():
        benchmark.extra_info[f"req_per_s_s{servers}"] = round(rate)
        benchmark.extra_info[f"imbalance_s{servers}"] = round(
            imbalance[servers], 3
        )
    print(
        "\nplacement scale: "
        + ", ".join(
            f"{servers} server(s)={rate:,.0f} req/s "
            f"(imbalance {imbalance[servers]:.2f}x)"
            for servers, rate in rates.items()
        )
    )
    # Per-server fixed costs must stay bounded: an 8-server fleet
    # hosting the same web workload plus 7 tenants may be slower than
    # one server, but not by an order of magnitude.
    assert rates[SERVER_COUNTS[-1]] > rates[1] / 10.0
    # The priority policy spreads batch tenants: no server may carry
    # more than 3x the mean committed VCPUs on any fleet size.
    for servers, ratio in imbalance.items():
        assert ratio <= 3.0, (
            f"{servers}-server placement is lopsided ({ratio:.2f}x)"
        )


def test_migration_wall_clock_surcharge(benchmark):
    """Wall-clock cost of one chunked live migration vs. watch-only."""

    def run():
        start = time.perf_counter()
        watch = run_scenario(
            migration_rebalance_scenario(
                duration_s=MIGRATION_DURATION_S,
                clients=MIGRATION_CLIENTS,
                fleet=False,
            )
        )
        wall_watch = time.perf_counter() - start
        start = time.perf_counter()
        moved = run_scenario(
            migration_rebalance_scenario(
                duration_s=MIGRATION_DURATION_S,
                clients=MIGRATION_CLIENTS,
                fleet=True,
            )
        )
        wall_moved = time.perf_counter() - start
        migrations = moved.control_reports["fleet"]["migrations"]
        return wall_watch, wall_moved, migrations

    wall_watch, wall_moved, migrations = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    surcharge = wall_moved / wall_watch - 1.0
    benchmark.extra_info["migrations"] = len(migrations)
    benchmark.extra_info["surcharge_fraction"] = round(surcharge, 3)
    print(
        f"\nmigration surcharge: {wall_watch:.2f}s -> {wall_moved:.2f}s "
        f"({surcharge:+.1%}) for {len(migrations)} migration(s)"
    )
    assert migrations, "the bench scenario must actually migrate"
    # A few thousand chunk events on a multi-hundred-thousand-event
    # run: the surcharge must stay well below one extra baseline run.
    assert wall_moved < 3.0 * wall_watch
