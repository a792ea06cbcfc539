"""Host CPU speed sampling, to take neighbour noise out of host times.

The benchmark shares its host's cores with other tenants, and the same
simulation can take 25% longer from one minute to the next with no
change visible from inside the guest (process CPU time grows with the
wall clock).  A fixed pure-Python reference loop therefore runs every
50 ms of process CPU time, from a ``SIGPROF`` handler, for about 1% of
the run.  :meth:`HostSpeed.quiet` scales an interval to a fixed
reference speed: it multiplies the interval by :data:`QUIET_REFERENCE_S`
over the mean reference duration inside it.  A per-run baseline (say
the run's fastest samples) was tried and rejected: whole runs can stay
in a slow state, so the baseline itself moved by 5-7% between runs.

The reference loop touches no simulator state and draws no
randomness, so sampling cannot change what a run computes.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from heapq import heappop, heappush

#: Process CPU seconds between two reference samples.
SAMPLE_EVERY_S = 0.025
#: The reference loop's duration on a quiet core of the host the
#: benchmark was tuned on (2-vCPU VM, Python 3.11): the fastest 1% of
#: its samples.  Host times are reported at this speed.
QUIET_REFERENCE_S = 2.5e-4
#: Fewest samples inside an interval for its own slowdown to count;
#: shorter intervals take the slowdown of the interval around them.
MIN_SAMPLES = 10


def _reference() -> int:
    """Heap, dict and float work, in the proportions of the event loop."""
    heap = []
    table = {}
    for i in range(300):
        heappush(heap, ((i * 7919) % 997, i))
        key = i & 31
        table[key] = table.get(key, 0.0) + i * 0.5
    while heap:
        heappop(heap)
    return len(table)


class HostSpeed:
    """Reference-loop samples over a ``with`` block."""

    def __init__(self) -> None:
        self.times = []
        self.durations = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _reference()
        self.times.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def slowdown(self, start: float, end: float):
        """Mean reference duration in the interval over the quiet one."""
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        if high - low < MIN_SAMPLES:
            return None
        return statistics.fmean(self.durations[low:high]) / QUIET_REFERENCE_S

    def quiet(self, spans, around) -> float:
        """Seconds in ``spans`` (``(start, end)`` pairs) at quiet speed.

        A span with too few samples of its own takes the slowdown of
        ``around``, the ``(start, end)`` of the pass that holds it.
        """
        fallback = self.slowdown(*around) or self.slowdown(
            float("-inf"), float("inf")
        ) or 1.0
        return sum(
            (end - start) / (self.slowdown(start, end) or fallback)
            for start, end in spans
        )
