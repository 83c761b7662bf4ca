"""Reference kernel that measures how fast this machine runs during a run.

The CPUs of the shared two-core virtual machine the benchmark was measured
on change speed by tens of percent over minutes, for every process at once
(in one ten-run set, all three workloads ran 30% faster for the same five
minutes).  So each run interleaves a small fixed workload of the
benchmark's own, a dense Fraction elimination of the same kind as liesym's
work, with the program's operations: about SHARE seconds of kernel per
second of program time.  Round times are reported scaled by
REFERENCE_S / (mean kernel time of the run): seconds at the reference
speed.  Each CPU switches between speed phases, so kernel times have several
modes, and their median jumps from one mode to another between runs; the
mean is the run's average slowness, which is what stretches its rounds.
A set-up probe is scaled by one kernel run right after it on the same CPU
(``scaled``).  The kernel is benchmark code, so no change to the program
moves it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction
from typing import List

# median kernel time on a shared two-core Xeon virtual machine (Python
# 3.11.7), in a fast period; it only fixes the unit of the scaled times
REFERENCE_S = 0.025
SHARE = 0.12
# fewest kernel runs behind one factor
MIN_SAMPLES = 12


def _matrix() -> List[List[Fraction]]:
    rng = random.Random(7)
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             if rng.random() < 0.08 else Fraction(0) for _ in range(30)]
            for _ in range(50)]


_M0 = _matrix()


def kernel() -> float:
    """One elimination of _M0, with the cyclic collector paused (the kernel
    makes no cycles, and a collection would time the program's heap rather
    than the processor); returns its wall time."""
    gc.disable()
    try:
        start = time.perf_counter()
        m = [list(r) for r in _M0]
        r = 0
        for c in range(len(m[0])):
            piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            pv = m[r][c]
            m[r] = [v / pv for v in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            r += 1
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(seconds: float) -> float:
    """A time just measured, scaled by one kernel run right after it."""
    return seconds * REFERENCE_S / kernel()


class SpeedMeter:
    """Runs the kernel after program operations and turns its mean time
    into the factor that scales the run's round times."""

    def __init__(self):
        self.samples: List[float] = []
        self._owed = 0.0

    def note(self, seconds: float):
        """Called after an operation that took ``seconds``."""
        self._owed += SHARE * seconds
        while self._owed > 0:
            self.samples.append(kernel())
            self._owed -= self.samples[-1]

    def factor(self) -> float:
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(kernel())
        return REFERENCE_S / statistics.mean(self.samples)


class NoMeter:
    """Stands in for SpeedMeter in traced runs, whose times are not scaled."""

    def note(self, seconds: float):
        pass

    def factor(self) -> float:
        return 1.0
