"""P6 — sharded fleet scaling (events/s, requests/s, wall-clock vs. shards).

The shard coordinator's pitch is *scale without drift*: partitioning a
fleet over worker processes must change wall-clock only, never the
physics.  This bench runs the datacenter fleet (25 pods x 4 servers x
40 VMs = 100 servers / 1000 VMs; quick mode shrinks it to 4 pods) at
1/2/4 shards and reports:

* **events/s, requests/s and wall-clock per shard count** — the
  PERFORMANCE.md scaling table row.  Both rates are per host second.
  Events/s compares shard counts of one version only: an idle host's
  scheduler epoch fires no event, so a version that skips more of
  them fires fewer events for the same simulated work.  Requests/s
  compares versions;
* **merged-fingerprint equality** — the determinism acceptance check,
  asserted on every pair of shard counts;
* **per-shard load imbalance** — events executed by the busiest shard
  over the mean, from the round-robin pod partition.

Quick mode: set ``REPRO_BENCH_QUICK=1`` to shrink the fleet so the
file runs in tens of seconds (the CI smoke configuration).
"""

import os
import time

from repro.shard import datacenter_fleet, run_fleet, shard_partition

QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip() in ("1", "true", "yes")

PODS = 4 if QUICK else 25
DURATION_S = 30.0 if QUICK else 60.0
CLIENTS = 60 if QUICK else 100
SHARD_COUNTS = (1, 2, 4)


def _fleet():
    return datacenter_fleet(
        pods=PODS, duration_s=DURATION_S, clients=CLIENTS
    )


def _shard_imbalance(result, shards: int) -> float:
    """Busiest shard's event count over the mean (1.0 = even)."""
    partition = shard_partition(result.fleet.pod_names(), shards)
    per_shard = [
        sum(result.pods[name]["events_fired"] for name in group)
        for group in partition
    ]
    mean = sum(per_shard) / len(per_shard)
    return max(per_shard) / mean if mean else 1.0


def test_events_per_second_vs_shard_count(benchmark):
    """The scaling table: same fleet, same fingerprint, N workers."""

    def run():
        rows = {}
        for shards in SHARD_COUNTS:
            fleet = _fleet()
            start = time.perf_counter()
            result = run_fleet(fleet, shards=shards)
            wall = time.perf_counter() - start
            rows[shards] = {
                "wall_s": wall,
                "events": result.events_fired,
                "events_per_s": result.events_fired / wall,
                "requests_per_s": result.requests_completed / wall,
                "sha": result.merged_sha256,
                "imbalance": _shard_imbalance(result, shards),
            }
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for shards, row in rows.items():
        benchmark.extra_info[f"events_per_s_x{shards}"] = round(
            row["events_per_s"]
        )
        benchmark.extra_info[f"requests_per_s_x{shards}"] = round(
            row["requests_per_s"]
        )
        benchmark.extra_info[f"wall_s_x{shards}"] = round(row["wall_s"], 2)
        benchmark.extra_info[f"imbalance_x{shards}"] = round(
            row["imbalance"], 3
        )
    print(
        f"\nshard scale ({PODS} pods, {PODS * 4} servers, "
        f"{PODS * 40} VMs):"
    )
    for shards, row in rows.items():
        print(
            f"  {shards} shard(s): {row['wall_s']:6.1f}s wall, "
            f"{row['events_per_s']:>9,.0f} events/s, "
            f"{row['requests_per_s']:>7,.0f} requests/s, "
            f"imbalance {row['imbalance']:.2f}x, "
            f"sha {row['sha'][:16]}"
        )
    fingerprints = {row["sha"] for row in rows.values()}
    assert len(fingerprints) == 1, (
        f"merged fingerprints diverged across shard counts: {rows}"
    )
    # Round-robin over homogeneous pods must stay near-even.
    for shards, row in rows.items():
        assert row["imbalance"] <= 1.5, (
            f"{shards}-shard partition is lopsided "
            f"({row['imbalance']:.2f}x)"
        )
