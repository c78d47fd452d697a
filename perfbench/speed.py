"""Machine-speed probe: a clock that tracks how fast the host runs.

On a shared host the speed of one core drifts by up to a factor of two
within a minute, far more than the differences the benchmark must
resolve.  A SIGALRM timer therefore interrupts the run every
``PERIOD_S`` seconds and times a fixed pure-Python reference
computation (exact ``Fraction`` arithmetic and a graph traversal).  The
probe's own time is excluded from every measured interval, and each
interval can be rescaled to *reference seconds*: the time it would have
taken on a host where the reference computation takes exactly
``NOMINAL_S``.  No thread or process is started.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from collections import deque
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.03
NOMINAL_S = 0.001
WINDOW_S = 0.25  # probes within this distance of an interval set its speed


# A fixed graph of 1009 nodes and degree 3 for the traversal half of the
# reference work: large enough to leave the first-level caches, as the
# lattices and Dijkstra runs of the jobs do.
_RING = {v: [(v * 7 + k) % 1009 for k in (1, 5, 11)] for v in range(1009)}


def reference_work() -> int:
    """Exact Fraction arithmetic, then a breadth-first traversal with the
    dict, set and deque operations of the burning and shortest-path
    code: the two kinds of work skelgraph spends its time on."""
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    seen, queue, arriving = {0}, deque([0]), {}
    while queue:
        v = queue.popleft()
        for w in _RING[v]:
            arriving[w] = arriving.get(w, 0) + 1
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return acc.numerator + len(arriving)


class SpeedProbe:
    """Context manager that samples the reference time while active."""

    def __init__(self):
        self.excluded = 0.0  # total time spent inside probes
        self._at: list[float] = []  # probe start times
        self._took: list[float] = []  # probe durations
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self._at.append(t0)
        self._took.append(t1 - t0)
        self.excluded += perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._sample(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        return False

    def stamp(self) -> tuple[float, float]:
        """(wall clock, probe time so far), read without a probe between."""
        while True:
            excluded = self.excluded
            now = perf_counter()
            if excluded == self.excluded:
                return now, excluded

    def since(self, start: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, seconds net of probes) of the interval from start."""
        end, excluded = self.stamp()
        return start[0], end, (end - start[0]) - (excluded - start[1])

    def to_reference(self, start: float, end: float, seconds: float) -> float:
        """Rescale an interval's net seconds to reference seconds, using
        the mean probe time within WINDOW_S of the interval (the mean,
        because the interval's time integrates the host's speed)."""
        lo = bisect.bisect_left(self._at, start - WINDOW_S)
        hi = bisect.bisect_right(self._at, end + WINDOW_S)
        return seconds * NOMINAL_S / statistics.fmean(self._took[lo:hi])

    def median_probe_s(self) -> float:
        return statistics.median(self._took)
