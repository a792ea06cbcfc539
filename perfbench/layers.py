"""Outside-in layer timing: wrap the calls that cross into each layer.

Nothing here edits the simulator.  A :class:`LayerAccount` swaps a
class or module attribute for a timing wrapper while a traced pass runs
and restores it afterwards.  Periodic layers are wrapped at the tick
method their ``PeriodicProcess`` binds when the testbed is built, so the
account must be installed before the build.

Spans nest.  A wrapped call made while another wrapped call runs is
that call's child, so a layer's self time excludes its wrapped
children, and the self times of every span under
``Simulator.run_until`` plus the loop's own remainder add up to the
loop's inclusive time.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter, defaultdict
from functools import wraps

from repro.control.controller import ElasticController
from repro.experiments import runner
from repro.faults.controller import FaultController
from repro.monitoring.sampler import TraceRecorder
from repro.obs.recorder import ObsRecorder
from repro.placement.engine import PlacementEngine
from repro.placement.fleet import FleetController
from repro.rubis import batched as rubis_batched
from repro.shard import coordinator, pod as shard_pod
from repro.shard.fabric import MSG_SIGNALS
from repro.sim.engine import Simulator
from repro.virt.hypervisor import Hypervisor
from repro.virt.scheduler import CreditScheduler

#: The event loop: the root every tiled span sits under.
LOOP = "sim.loop"

#: (layer, owner, attribute) for every plainly timed call.
TIMED = (
    (LOOP, Simulator, "run_until"),
    ("rubis.batched.drain", rubis_batched.BatchedClosedDriver, "_drain"),
    ("rubis.batched.drain", rubis_batched.BatchedOpenDriver, "_drain"),
    ("monitoring.tick", TraceRecorder, "_tick"),
    ("virt.epoch", Hypervisor, "_run_epoch"),
    ("virt.housekeeping", Hypervisor, "_run_housekeeping"),
    ("control.tick", ElasticController, "_tick"),
    ("faults.tick", FaultController, "_tick"),
    ("obs.tick", ObsRecorder, "_tick"),
    ("placement.fleet_tick", FleetController, "_tick"),
    ("placement.place", PlacementEngine, "place"),
    ("shard.advance", shard_pod.Pod, "advance_to"),
    ("experiments.build", runner, "prepare_run"),
    ("experiments.build", shard_pod, "prepare_run"),
)

#: Key a shard worker adds to each pod summary it returns.
STAMP_KEY = "perfbench_stamps"


class Patches:
    """Attribute swaps undone in reverse order on exit."""

    def __init__(self) -> None:
        self._saved = []

    def set(self, owner, name, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class LayerAccount:
    """Calls, inclusive and self seconds per layer, plus layer counters."""

    def __init__(self) -> None:
        self.calls = Counter()
        self.inclusive_s = defaultdict(float)
        self.self_s = defaultdict(float)
        #: Self seconds of every span closed inside the event loop,
        #: including the loop's own remainder and the account's own
        #: comparison of scheduler inputs.
        self.tiled_s = 0.0
        #: Seconds the account spent comparing scheduler inputs.
        self.bookkeeping_s = 0.0
        self.rows = 0
        self.lindley_calls = 0
        self.allocate_changed = 0
        self.windows = 0
        self._stack = []
        self._loops_open = 0
        self._last_input = weakref.WeakKeyDictionary()
        self._patches = Patches()

    # -- spans ---------------------------------------------------------------

    def timed(self, layer, fn):
        account = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = account._stack
            frame = [0.0]
            stack.append(frame)
            is_loop = layer == LOOP
            if is_loop:
                account._loops_open += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                own = elapsed - frame[0]
                account.calls[layer] += 1
                account.inclusive_s[layer] += elapsed
                account.self_s[layer] += own
                if is_loop:
                    account._loops_open -= 1
                if account._loops_open or is_loop:
                    account.tiled_s += own
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _untimed(self, seconds: float) -> None:
        """Charge account bookkeeping to no layer (but keep the tiling)."""
        self.bookkeeping_s += seconds
        if self._stack:
            self._stack[-1][0] += seconds
        if self._loops_open:
            self.tiled_s += seconds

    # -- layers with counters ----------------------------------------------

    def _process(self, fn):
        timed = self.timed("rubis.batched.process", fn)
        account = self

        def process(physics, t0, *args, **kwargs):
            account.rows += t0.size
            return timed(physics, t0, *args, **kwargs)

        return process

    def _allocate(self, fn):
        timed = self.timed("virt.allocate", fn)
        account = self

        def allocate(scheduler, domains):
            domains = list(domains)
            decision = timed(scheduler, domains)
            start = time.perf_counter()
            key = (
                tuple(decision.demand_cores.items()),
                tuple((d.cap_cores, d.weight) for d in domains),
            )
            if account._last_input.get(scheduler) != key:
                account.allocate_changed += 1
            account._last_input[scheduler] = key
            account._untimed(time.perf_counter() - start)
            return decision

        return allocate

    def _lindley(self, fn):
        account = self

        def lindley(*args, **kwargs):
            account.lindley_calls += 1
            return fn(*args, **kwargs)

        return lindley

    def _receive(self, fn):
        timed = self.timed("shard.wait", fn)
        account = self

        def receive(outbox, shard, *args):
            message = timed(outbox, shard, *args)
            if shard == 0 and message[0] == MSG_SIGNALS:
                account.windows += 1
            return message

        return receive

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "LayerAccount":
        patches = self._patches.__enter__()
        for layer, owner, name in TIMED:
            patches.set(owner, name, self.timed(layer, owner.__dict__[name]))
        physics = rubis_batched.BatchedPhysics
        patches.set(physics, "process", self._process(physics.process))
        patches.set(
            CreditScheduler, "allocate",
            self._allocate(CreditScheduler.allocate),
        )
        patches.set(
            rubis_batched, "lindley", self._lindley(rubis_batched.lindley)
        )
        patches.set(
            coordinator, "_receive", self._receive(coordinator._receive)
        )
        return self

    def __exit__(self, *exc) -> None:
        self._patches.__exit__(*exc)


def timed_worker_main(fleet_data, pod_names, shard, inbox, outbox) -> None:
    """Shard worker entry that stamps its set-up and samples host speed.

    It runs the stock ``worker_main`` and adds ``{"entered",
    "first_window", "slowdown"}`` to each pod summary it returns.  The
    two stamps are perf-counter readings (``CLOCK_MONOTONIC``, shared by
    every process on the host), so the coordinator side can split the
    worker's set-up into spawn + import and pod build.  The slowdown is
    the host speed this worker saw while it simulated, which the
    coordinator, idle meanwhile, cannot sample.  The shard protocol is
    unchanged.
    """
    entered = time.perf_counter()
    from repro.shard import worker

    from perfbench.hostspeed import HostSpeed

    first = []
    advance = coordinator.PodGroup.advance_to
    finish = coordinator.PodGroup.finish

    def stamped_advance(group, horizon_s):
        if not first:
            first.append(time.perf_counter())
        return advance(group, horizon_s)

    def stamped_finish(group):
        stamps = {
            "entered": entered,
            "first_window": first[0],
            "slowdown": speed.slowdown(first[0], time.perf_counter()),
        }
        pods = finish(group)
        for summary in pods.values():
            summary[STAMP_KEY] = stamps
        return pods

    with HostSpeed() as speed, Patches() as patches:
        patches.set(coordinator.PodGroup, "advance_to", stamped_advance)
        patches.set(coordinator.PodGroup, "finish", stamped_finish)
        worker.worker_main(fleet_data, pod_names, shard, inbox, outbox)
