"""Engine baselines: fingerprints and cross-engine equivalence metrics.

The batched engine (PERFORMANCE.md "Epoch 2") is a deliberate RNG
epoch: its traces are equivalent to the classic engine in distribution,
not bitwise.  That bargain only holds if three properties stay pinned:

1. **Classic bit-stability** — the classic engine's traces at a given
   seed never move (the epoch-1 guarantee every earlier baseline test
   relies on).
2. **Batched self-determinism** — the batched engine is just as
   reproducible run-to-run and process-to-process at a given seed.
3. **Cross-engine equivalence** — at matched seeds the two engines
   agree in distribution: two-sample KS on response times, relative
   error on throughput/utilization/ready aggregates, and per-figure
   series-mean ratios.

This module holds the pieces shared between ``scripts/rebaseline.py``
(which pins 1 and 2 into ``tests/baselines/engine_fingerprints.json``)
and ``tests/integration/test_engine_equivalence.py`` (which enforces
all three).

The paper cells exercise no fault, budget, request trace or migration.
:func:`path_cells` adds three batched cells that do, pinned for
self-determinism only: the engines still disagree under contention, so
they carry no cross-engine bound.

:func:`result_fingerprint` hashes the core series only, so no pin
above sees a value of the 518-metric registry.  :func:`registry_cells`
are three runs made with the full columnar registry, and
:func:`registry_fingerprint` hashes their column names and matrix.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro.experiments.scenarios import (
    ENGINES,
    Scenario,
    autoscaled_flash_crowd_scenario,
    detect_and_evacuate_scenario,
    flash_crowd_window,
    open_loop_scenario,
    scenario,
    with_engine,
)
from repro.faults.spec import CAP_THEFT, FaultSchedule, FaultSpec
from repro.traffic.spec import TrafficSpec

#: Settings of the pinned baseline cells.  Short enough that the full
#: two-engine sweep stays test-suite friendly, long enough (30 sampling
#: periods, tens of thousands of requests in the closed cells) that the
#: distributional comparisons have teeth.
BASELINE_DURATION_S = 60.0
BASELINE_SEED = 7
BASELINE_OPEN_RATE_RPS = 120.0

#: Where the pinned fingerprints live, relative to the repo root.
FINGERPRINT_PATH = Path("tests") / "baselines" / "engine_fingerprints.json"


def matrix_cells() -> Tuple[Tuple[str, str], ...]:
    """The paper's 2 (environment) x 2 (mix) closed-loop run matrix."""
    return (
        ("virtualized", "browsing"),
        ("virtualized", "bidding"),
        ("bare-metal", "browsing"),
        ("bare-metal", "bidding"),
    )


def baseline_scenarios(engine: str = "classic") -> Dict[str, Scenario]:
    """The pinned cells — the closed matrix plus one open-loop cell."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    cells: Dict[str, Scenario] = {}
    for environment, composition in matrix_cells():
        spec = scenario(
            environment,
            composition,
            duration_s=BASELINE_DURATION_S,
            seed=BASELINE_SEED,
        )
        cells[f"{environment}/{composition}"] = with_engine(spec, engine)
    traffic = TrafficSpec.from_cli_string(
        "poisson", rate_rps=BASELINE_OPEN_RATE_RPS
    )
    open_spec = open_loop_scenario(
        "virtualized",
        "browsing",
        duration_s=BASELINE_DURATION_S,
        seed=BASELINE_SEED,
        traffic=traffic,
    )
    cells["virtualized/browsing/poisson"] = with_engine(open_spec, engine)
    return cells


def path_cells() -> Dict[str, Scenario]:
    """Batched cells that pin the request paths the paper cells skip.

    * a virtualized browsing run whose NIC and then disk degrade
      mid-run (device parameters change between drains);
    * the autoscaled open-loop flash crowd with cap theft on the web VM
      at the surge start and 5% request tracing (budgeted admission,
      retries, a controller resizing the VMs, span reconstruction);
    * the crash drill, which evacuates ``db-vm`` and ``web-vm`` to the
      survivor, so both RUBiS contexts rebind to a new hypervisor.
    """
    degraded = replace(
        scenario(
            "virtualized", "browsing", duration_s=60.0, seed=BASELINE_SEED
        ),
        faults=FaultSchedule.from_cli_string(
            "degrade_nic@20:20:8+degrade_disk@30:20:4"
        ),
    )
    flash = autoscaled_flash_crowd_scenario(
        duration_s=60.0, seed=BASELINE_SEED
    )
    surge_start, _ = flash_crowd_window(flash)
    theft = FaultSchedule(
        (FaultSpec(CAP_THEFT, at_s=surge_start, target="web-vm",
                   magnitude=0.1),)
    )
    flash = replace(flash, faults=theft, trace_sample=0.05)
    drill = detect_and_evacuate_scenario(
        duration_s=120.0, seed=BASELINE_SEED, clients=200, crash_at_s=30.0
    )
    cells = {
        "virtualized/browsing/degraded": degraded,
        "autoscaled_flash_crowd/cap_theft/traced": flash,
        "detect_and_evacuate": drill,
    }
    return {cell: with_engine(spec, "batched") for cell, spec in cells.items()}


def registry_cells() -> Dict[str, Scenario]:
    """Cells that pin every value of the full 518-metric registry.

    * virtualized browsing on the batched engine (web, db and dom0
      probes, so all three collectors);
    * bare-metal bidding on the classic engine;
    * the autoscaled flash crowd on the classic engine, whose
      controller hotplugs VCPUs and balloons memory inside the horizon,
      so a probe's memory total and cycle capacity change between
      ticks.

    Each runs with ``collect_full_registry=True`` and
    ``columnar_rows=True`` (see :func:`run_registry_cell`).
    """
    browsing = scenario(
        "virtualized", "browsing", duration_s=BASELINE_DURATION_S,
        seed=BASELINE_SEED,
    )
    bidding = scenario(
        "bare-metal", "bidding", duration_s=BASELINE_DURATION_S,
        seed=BASELINE_SEED,
    )
    flash = autoscaled_flash_crowd_scenario(
        duration_s=BASELINE_DURATION_S, seed=BASELINE_SEED
    )
    return {
        "virtualized/browsing%batched": with_engine(browsing, "batched"),
        "bare-metal/bidding": bidding,
        "autoscaled_flash_crowd": flash,
    }


def run_registry_cell(spec: Scenario):
    """Run one :func:`registry_cells` cell with the columnar registry."""
    from repro.experiments.runner import run_scenario

    return run_scenario(spec, collect_full_registry=True, columnar_rows=True)


def registry_fingerprint(result) -> str:
    """SHA-256 over a run's registry column names and matrix bytes."""
    table = result.columnar
    digest = hashlib.sha256()
    digest.update("\n".join(table.columns).encode())
    digest.update(np.ascontiguousarray(table.matrix(), dtype=float).tobytes())
    return digest.hexdigest()[:16]


def fingerprint_registry() -> Dict[str, str]:
    """Run every :func:`registry_cells` cell and fingerprint its registry."""
    return {
        cell: registry_fingerprint(run_registry_cell(spec))
        for cell, spec in registry_cells().items()
    }


def result_fingerprint(result) -> str:
    """A short stable digest of everything a run produced.

    Hashes every trace series (times and values, exact IEEE doubles),
    the completed-request count, the response-time samples and, when
    the run sampled any, its request span trees, so any bitwise drift
    in a pinned engine shows up as a fingerprint change.
    """
    digest = hashlib.sha256()
    for key in sorted(result.traces.keys()):
        series = result.traces.get(*key)
        digest.update(repr(key).encode())
        digest.update(np.ascontiguousarray(series.times, dtype=float).tobytes())
        digest.update(np.ascontiguousarray(series.values, dtype=float).tobytes())
    digest.update(str(result.requests_completed).encode())
    samples = np.asarray(result.client_stats.response_times_s, dtype=float)
    digest.update(str(samples.size).encode())
    digest.update(samples.tobytes())
    for trace in result.request_traces or ():
        # Dataclass reprs spell every float with repr(), which
        # round-trips the exact double.
        digest.update(repr(trace).encode())
    return digest.hexdigest()[:16]


def fingerprint_engine(engine: str) -> Dict[str, str]:
    """Run every baseline cell under ``engine`` and fingerprint it."""
    from repro.experiments.runner import run_scenario

    return {
        cell: result_fingerprint(run_scenario(spec))
        for cell, spec in baseline_scenarios(engine).items()
    }


def fingerprint_paths() -> Dict[str, str]:
    """Run every :func:`path_cells` cell and fingerprint it."""
    from repro.experiments.runner import run_scenario

    return {
        cell: result_fingerprint(run_scenario(spec))
        for cell, spec in path_cells().items()
    }


def load_fingerprints(root: Path) -> dict:
    """The pinned fingerprint document under repo root ``root``."""
    return json.loads((root / FINGERPRINT_PATH).read_text())


# -- distributional comparison primitives --------------------------------


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, hand-rolled.

    ``sup_x |F_a(x) - F_b(x)|`` over the pooled sample points — no scipy
    in the image, and the exact statistic is three vectorized lines.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("KS needs non-empty samples")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_threshold(n: int, m: int, alpha: float = 1e-3) -> float:
    """Large-sample KS rejection threshold at level ``alpha``.

    ``c(alpha) * sqrt((n+m)/(n*m))`` with
    ``c(alpha) = sqrt(-ln(alpha/2)/2)`` — the classical asymptotic
    critical value.  The harness compares fixed seeds, so the test is
    deterministic; the level just documents how far apart the empirical
    CDFs are allowed to sit.
    """
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n + m) / (n * m))


def relative_error(a: float, b: float) -> float:
    """``|a-b|`` over the larger magnitude (0 when both are ~zero)."""
    scale = max(abs(a), abs(b))
    if scale < 1e-12:
        return 0.0
    return abs(a - b) / scale


def series_mean_ratio(result_a, result_b, entity: str, resource: str) -> float:
    """Ratio of one figure series' mean between two runs (b over a)."""
    mean_a = float(np.asarray(result_a.traces.get(entity, resource).values).mean())
    mean_b = float(np.asarray(result_b.traces.get(entity, resource).values).mean())
    if abs(mean_a) < 1e-12 and abs(mean_b) < 1e-12:
        return 1.0
    if abs(mean_a) < 1e-12:
        return math.inf
    return mean_b / mean_a
