"""CPU-speed sampling that scales timings to a fixed reference speed.

On a shared virtual machine the speed one process sees drifts by up to
2x within 10-30 s: a fixed pure-Python loop, timed in 5-second windows
on an otherwise idle 2-vCPU guest, ranged from 54 to 97 ms, and
``process_time`` drifted with it, so the drift is not preemption.
Unscaled pass times of identical runs spread by 25-40% between runs.

While a :class:`Sampler` is active, a ``SIGALRM`` interval timer
interrupts the benchmarked code every ``INTERVAL_S`` seconds and times a
small fixed loop of exact ``Fraction`` additions (best of two), the same
kind of work as the ``derham`` kernels, so its slowdown tracks theirs.
The time spent in the handler is recorded and taken out of every timed
interval.  Work timed between ``start`` and ``end`` is scaled by
``REFERENCE_S / median(samples taken from start - MARGIN_S to end +
MARGIN_S)``: the time it would take on a CPU that runs the loop in
``REFERENCE_S`` seconds.  ``REFERENCE_S`` is the loop's typical value on
the machine the benchmark was defined on (2 vCPUs, Python 3.11.7), so
there scaled and unscaled times agree in the median.  Parent and child
commits are compared on the same scale.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

LOOP_TERMS = 150
INTERVAL_S = 0.05
MARGIN_S = 0.25  # short calls borrow samples from this much either side
REFERENCE_S = 0.0006


def _loop() -> float:
    started = perf_counter()
    total = Fraction(0)
    for i in range(1, LOOP_TERMS):
        total += Fraction(1, i % 97 + 1)
    return perf_counter() - started


def probe() -> float:
    """Seconds the fixed loop takes now (best of two, to skip spikes)."""
    return min(_loop(), _loop())


class Sampler:
    """Samples the CPU speed while active; use as a context manager."""

    def __init__(self):
        self.times: list[float] = []
        self.probes: list[float] = []
        self.paused = 0.0  # seconds spent in the handler so far

    def _handler(self, signum, frame):
        started = perf_counter()
        self.times.append(started)
        self.probes.append(probe())
        self.paused += perf_counter() - started

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._handler(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._handler(None, None)

    def factor(self, start: float, end: float) -> float:
        """Scale for work timed between ``start`` and ``end``."""
        lo = bisect.bisect_left(self.times, start - MARGIN_S)
        hi = bisect.bisect_right(self.times, end + MARGIN_S)
        return REFERENCE_S / statistics.median(self.probes[lo:hi]
                                               or self.probes)
