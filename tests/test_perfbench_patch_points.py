"""perfbench's layer account still finds every attribute it patches.

``perfbench.layers.LayerAccount`` times the layers from outside by
swapping attributes by name: the ``TIMED`` rows plus four counting
wrappers.  A refactor that moves one of them (into a base class, a
closure, a local alias) leaves the benchmark silently timing nothing,
so these tests pin the patch points in tier-1 without touching
``perfbench/``.
"""

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from repro.experiments.runner import run_scenario  # noqa: E402
from repro.experiments.scenarios import scenario  # noqa: E402
from repro.rubis import batched as rubis_batched  # noqa: E402
from repro.shard import coordinator  # noqa: E402
from repro.virt.scheduler import CreditScheduler  # noqa: E402

#: The attributes ``LayerAccount`` wraps beside the ``TIMED`` rows.
COUNTED = (
    (rubis_batched.BatchedPhysics, "process"),
    (CreditScheduler, "allocate"),
    (rubis_batched, "lindley"),
    (coordinator, "_receive"),
)


def _patch_points():
    timed = tuple((owner, name) for _layer, owner, name in layers.TIMED)
    return timed + COUNTED


def test_every_patch_point_is_in_its_owners_dict():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name in _patch_points()
        if name not in vars(owner)
    ]
    assert missing == []


def test_account_counts_batched_work_and_restores_every_attribute():
    originals = [
        (owner, name, vars(owner)[name]) for owner, name in _patch_points()
    ]
    spec = replace(
        scenario("virtualized", "browsing", duration_s=20.0, seed=5),
        engine="batched",
    )
    with layers.LayerAccount() as account:
        run_scenario(spec)
    assert account.calls["rubis.batched.process"] > 0
    assert account.rows > 0
    # Every lindley call goes through the module global perfbench wraps.
    assert account.lindley_calls > 0
    restored = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, original in originals
        if vars(owner)[name] is not original
    ]
    assert restored == []
