#!/usr/bin/env python
"""Re-pin the per-engine baseline fingerprints.

Runs every baseline cell (the paper's 2x2 closed-loop matrix plus the
open-loop poisson cell) and the path cells (faults, a budgeted traced
flash crowd, a migrating crash drill) under both engines, and writes
their fingerprints to
``tests/baselines/engine_fingerprints.json``, which
``tests/integration/test_engine_equivalence.py`` enforces.  Its
``registry`` section pins the full 518-metric registry of three more
runs (virtualized browsing on batched, bare-metal bidding on classic,
an autoscaled flash crowd on classic) by their columnar matrices.
Its ``admission`` section pins three open-loop runs on both engines by
their traffic report and offered-arrival trace as well (the baseline
Poisson cell, an MMPP flash crowd, a budgeted Poisson run with retries
shorter than the drain tick).

Run this ONLY when a deliberate RNG-epoch change lands (a new engine, a
re-ordering of random draws, a change to the drain schedule).  A routine
refactor must never need it — if this script produces a diff you did not
plan for, the refactor broke bit-stability and the fix belongs in the
code, not here.  Commit the JSON diff together with a PERFORMANCE.md
note explaining the epoch bump.

Usage:
    PYTHONPATH=src python scripts/rebaseline.py [--check]

``--check`` recomputes and compares instead of writing (exit 1 on
drift) — the same verification the test suite performs, usable without
pytest.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.baseline import (  # noqa: E402
    BASELINE_DURATION_S,
    BASELINE_OPEN_RATE_RPS,
    BASELINE_SEED,
    FINGERPRINT_PATH,
    fingerprint_admission,
    fingerprint_engine,
    fingerprint_paths,
    fingerprint_registry,
)
from repro.experiments.scenarios import ENGINES  # noqa: E402


def compute_document() -> dict:
    return {
        "epoch": 2,
        "duration_s": BASELINE_DURATION_S,
        "seed": BASELINE_SEED,
        "open_rate_rps": BASELINE_OPEN_RATE_RPS,
        "engines": {engine: fingerprint_engine(engine) for engine in ENGINES},
        "batched_paths": fingerprint_paths("batched"),
        "classic_paths": fingerprint_paths("classic"),
        "registry": fingerprint_registry(),
        "admission": fingerprint_admission(),
    }


def _cells(document: dict) -> dict:
    """Every fingerprint of a document, keyed ``"<group> <cell>"``."""
    groups = dict(document.get("engines", {}))
    for paths in ("batched_paths", "classic_paths"):
        groups[paths] = document.get(paths, {})
    groups["registry"] = document.get("registry", {})
    groups["admission"] = document.get("admission", {})
    return {
        f"{group} {cell}": fingerprint
        for group, cells in groups.items()
        for cell, fingerprint in cells.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the pinned file instead of rewriting it",
    )
    args = parser.parse_args()

    target = ROOT / FINGERPRINT_PATH
    document = compute_document()
    if args.check:
        if not target.exists():
            print(f"no pinned fingerprints at {target}", file=sys.stderr)
            return 1
        pinned = json.loads(target.read_text())
        if pinned == document:
            print("fingerprints match the pinned baseline")
            return 0
        pinned_cells = _cells(pinned)
        for label, fingerprint in _cells(document).items():
            if pinned_cells.get(label) != fingerprint:
                print(
                    f"DRIFT {label}: pinned {pinned_cells.get(label)} "
                    f"recomputed {fingerprint}",
                    file=sys.stderr,
                )
        return 1
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"pinned {len(_cells(document))} fingerprints to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
