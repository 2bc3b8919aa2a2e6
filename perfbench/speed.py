"""Machine speed, from a fixed stdlib-only loop timed between jobs.

On a shared host the same code runs up to twice as slowly for stretches of
seconds to minutes.  The benchmark times this loop every CADENCE_S of the run
and scales each timed interval by NOMINAL_S over the loop's median time
within WINDOW_S of it: the interval's length at one fixed machine speed, the
speed at which the loop takes NOMINAL_S.  A program that does more work is
slower at every machine speed, so the scaled times still show it.

The loop imports nothing from ssderiv, so no change to the program changes
the loop's code, and it runs with the garbage collector off, so the size of
the program's heap does not enter its time through collections.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0016  # the loop's time at the reference speed: about its fastest on a 2-vCPU VM
CADENCE_S = 0.05  # wall time between samples during a run
WINDOW_S = 0.5  # samples this close to an interval set its scale
RECENT = 9  # samples behind the running estimate of the scale


def calibration_loop() -> int:
    """Fraction, dict, tuple and str work, like the interpreter paths of ssderiv."""
    terms: dict[tuple[int, int, int], Fraction] = {}
    for i in range(400):
        key = (i % 7, i % 11, i % 5)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(i, i % 9 + 1)
    text = " + ".join(f"{c}*x^{a}*y^{b}*z^{e}" for (a, b, e), c in sorted(terms.items()))
    return len(text.split(" + "))


class Speed:
    """Timeline of calibration samples: (start, loop seconds), in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.loops: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            gc.disable()
            try:
                start = time.perf_counter()
                calibration_loop()
                end = time.perf_counter()
            finally:
                gc.enable()
            self.starts.append(start)
            self.loops.append(end - start)

    def sample_if_due(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= CADENCE_S:
            self.sample()

    def current_scale(self) -> float:
        """NOMINAL_S over the median of the last RECENT samples."""
        return NOMINAL_S / statistics.median(self.loops[-RECENT:])

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median loop time of the samples within WINDOW_S
        of [start, end], or of the two nearest samples when none is."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), hi + 1
        return NOMINAL_S / statistics.median(self.loops[lo:hi])
