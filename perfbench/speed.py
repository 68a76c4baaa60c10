"""The host's speed, sampled while the benchmark runs.

The benchmark's host is shared: for stretches of seconds up to whole
minutes, other tenants slow every instruction by up to half.  A timer
interrupts the measured work every ``INTERVAL`` seconds to time a fixed
pure-Python kernel (object creation, method calls, dict stores, generator
sends, as in the simulator's step loop).  A time measured while the
kernel took ``k`` on average is scaled by ``(REFERENCE_S / k) **
SENSITIVITY``, which gives host seconds at one fixed speed: the speed at
which the kernel takes ``REFERENCE_S``, its typical time on an idle 2-core
host with CPython 3.11.  The simulator slows less than the kernel when the
host is loaded; 0.8 is the exponent that made pass times on all three
workloads steadiest across runs on such a host (1.0 over-corrects).
"""

from __future__ import annotations

import bisect
import gc
import signal
from time import perf_counter

INTERVAL = 0.05
# Samples this close to an interval also count for it, so that a short
# interval gets several.
WINDOW = 0.25
REFERENCE_S = 270e-6
SENSITIVITY = 0.8


class _Obj:
    __slots__ = ("a", "b")

    def __init__(self, a):
        self.a = a
        self.b = None

    def f(self, x):
        return self.a + x


def _echo():
    x = 0
    while True:
        x = yield x


def kernel() -> float:
    """Seconds one fixed unit of interpreter work takes now."""
    t0 = perf_counter()
    table = {}
    acc = 0
    gen = _echo()
    next(gen)
    for i in range(600):
        obj = _Obj(i)
        acc += obj.f(i & 7)
        table[i & 63] = obj
        acc += gen.send(i)
    return perf_counter() - t0


class SpeedProbe:
    """Times ``kernel`` on a timer while active; one per process, since it
    owns SIGALRM."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame):
        # A collection of the program's heap must not land in the sample.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.durations.append(kernel())
            self.times.append(perf_counter())
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Reference over measured speed from ``start`` to ``end``, from
        the samples within ``WINDOW`` of that interval."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        recent = self.durations[lo:hi] or self.durations
        return (REFERENCE_S * len(recent) / sum(recent)) ** SENSITIVITY
