"""The ordered message fabric between shard workers and coordinator.

All cross-shard traffic is plain data moving over per-shard queue
pairs in a fixed alternation: every window, each worker sends exactly
one ``signals`` message up and receives exactly one ``commands``
message down; after the last window it sends one ``result`` message.
The coordinator always drains shards in index order, so message
arrival order is deterministic and — because the *content* of every
message is a pure function of pod state and the optimizer is a pure
function of the sorted signals — the whole exchange is bit-identical
across shard counts.

Window messages double as heartbeats: a shard that fails to deliver
its message within the deadline fails the run fast with a
:class:`ShardTimeoutError` naming the shard and the server groups
(pods) it owns; a shard that raises ships the traceback up as an
``error`` message, re-raised as :class:`ShardWorkerError`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import ConfigurationError, SimulationError

#: Message kinds a worker may send up (worker -> coordinator).
MSG_SIGNALS = "signals"
MSG_RESULT = "result"
MSG_ERROR = "error"
#: Message kind the coordinator sends down (coordinator -> worker).
MSG_COMMANDS = "commands"

#: Env hook for the heartbeat tests: the worker whose shard index equals
#: this value hangs forever before its first window message.  The
#: coordinator reads it when it starts the workers and passes each a
#: flag; a forked worker reads no environment variable.
HANG_ENV = "REPRO_SHARD_TEST_HANG"


class ShardError(SimulationError):
    """Base class of sharded-fleet execution failures."""


class ShardTimeoutError(ShardError):
    """A shard worker missed its window-message deadline."""

    def __init__(
        self,
        shard: int,
        pods: Sequence[str],
        timeout_s: float,
        window_index: int,
    ) -> None:
        self.shard = shard
        self.pods = list(pods)
        self.timeout_s = timeout_s
        self.window_index = window_index
        super().__init__(
            f"shard {shard} (server groups: {', '.join(self.pods)}) sent "
            f"no heartbeat within {timeout_s:g}s while the coordinator "
            f"waited for window {window_index}"
        )


class ShardWorkerError(ShardError):
    """A shard worker process raised; carries its traceback text."""

    def __init__(self, shard: int, pods: Sequence[str], traceback: str) -> None:
        self.shard = shard
        self.pods = list(pods)
        self.traceback = traceback
        super().__init__(
            f"shard {shard} (server groups: {', '.join(pods)}) failed:\n"
            f"{traceback}"
        )


def shard_partition(
    pod_names: Sequence[str], shards: int
) -> List[List[str]]:
    """Round-robin pods over shards (pure, order-preserving).

    Pod ``i`` lands on shard ``i % shards`` — a function of the fleet
    definition only, never of runtime load, so the partition itself
    can't perturb determinism.
    """
    if shards < 1:
        raise ConfigurationError("shards must be >= 1")
    if shards > len(pod_names):
        raise ConfigurationError(
            f"{shards} shards for {len(pod_names)} pod(s); "
            "shards must not exceed the pod count"
        )
    groups: List[List[str]] = [[] for _ in range(shards)]
    for index, name in enumerate(pod_names):
        groups[index % shards].append(name)
    return groups


def signals_message(window_index: int, shard: int, signals: Dict[str, dict]):
    return (MSG_SIGNALS, window_index, shard, signals)


def commands_message(window_index: int, commands: Dict[str, List[dict]]):
    return (MSG_COMMANDS, window_index, commands)


def result_message(shard: int, summaries: Dict[str, dict]):
    return (MSG_RESULT, shard, summaries)


def error_message(shard: int, traceback: str):
    return (MSG_ERROR, shard, traceback)
