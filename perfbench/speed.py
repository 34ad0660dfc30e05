"""Machine-speed probe: scales measured times to a fixed reference speed.

The benchmark runs on a few virtual cores of a shared host. Neighbours
slow those cores in spells of seconds to minutes by 10-50%, with CPU time
still equal to wall time (the cores run fewer instructions per second,
they are not taken away). A plain wall time then measures the neighbours
as much as the program.

A Speedometer samples the speed of the core the worker runs on while the
jobs run: a SIGALRM timer interrupts the worker every ``INTERVAL_S`` and
the handler times ``probe()``, a fixed piece of interpreter work like
the bulk of setorder's. A job's reference time is its wall time, less
the time spent in the handler, multiplied by the mean of ``REF_PROBE_S``
over probe time around the job: the time the job would take on a core
where one probe takes ``REF_PROBE_S``. A change to setorder that makes a
job k times slower makes its reference time k times longer, while a slow
spell moves job and probe together and cancels.

setorder runs in the main thread only and sets no signal handlers, so the
handler changes no program state; it adds about 1% to wall time, which is
subtracted. This module imports only what a fresh interpreter has loaded
already or loads in a millisecond, so the set-up samples can run it
around ``import setorder.cli`` (see run.py).
"""

from __future__ import annotations

import math
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

# a fixed scale, never re-fit: reference seconds are wall seconds on a core
# where one probe, run from the timer handler, takes this long (about what
# it takes in the quiet spells of a 2-vCPU x86-64 VM with Python 3.11)
REF_PROBE_S = 100e-6
INTERVAL_S = 0.02
SETUP_INTERVAL_S = 0.005   # the 0.2 s import gets about 40 probes
# probes this far before a job starts and after it ends also count, so
# short jobs get several samples
WINDOW_S = 0.1


class _Node:
    """A node of a small arithmetic expression tree (the probe's workload)."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: int, left=None, right=None):
        self.op, self.left, self.right = op, left, right

    def value(self, x: float) -> float:
        if self.op == 0:
            return x
        if self.op == 1:
            return self.left
        a, b = self.left.value(x), self.right.value(x)
        if self.op == 2:
            return a * b
        if self.op == 3:
            return a + b
        return math.sin(a) + b


def _tree(depth: int) -> _Node:
    if depth == 0:
        return _Node(0)
    return _Node(2 + depth % 3, _tree(depth - 1), _Node(1, 0.5))


_TREE = _tree(6)


def probe() -> float:
    """Seconds one fixed unit of interpreter work takes: an integer loop
    and a recursive expression-tree evaluation (attribute lookups, method
    calls, float math), the kind of work setorder's Python layers do."""
    t0 = perf_counter()
    s = 0
    for i in range(800):
        s += i * i
    t = 0.0
    for i in range(40):
        t += _TREE.value(i * 0.01)
    return perf_counter() - t0


def mean_speed(took: list[float]) -> float:
    """REF_PROBE_S over probe time, averaged over the middle half of the
    probes: a stretch that spans a fast and a slow spell gets the average
    of the two, and a probe held up by a page fault or an interrupt does
    not count."""
    speeds = sorted(REF_PROBE_S / t for t in took)
    quarter = len(speeds) // 4
    middle = speeds[quarter:len(speeds) - quarter]
    return sum(middle) / len(middle)


class Speedometer:
    """Probe samples over a stretch of the worker's run.

    Use as a context manager around the timed passes; ``handler_s`` is the
    running total of time spent in the handler, which callers subtract
    from the wall time of what they timed.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.at: list[float] = []         # probe start times
        self.took: list[float] = []       # probe durations
        self.handler_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        """Take one probe now; its time counts as handler time."""
        t0 = perf_counter()
        took = probe()
        self.at.append(t0)
        self.took.append(took)
        self.handler_s += perf_counter() - t0

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float) -> float:
        """mean_speed of the probes within WINDOW_S of [t0, t1]."""
        lo = bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect_right(self.at, t1 + WINDOW_S)
        if hi <= lo:
            raise RuntimeError("no speed probe near a timed job; "
                               "was the Speedometer running?")
        return mean_speed(self.took[lo:hi])
