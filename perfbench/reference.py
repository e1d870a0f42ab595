"""A fixed reference computation that turns wall time into normalised time.

On a shared machine the same exact computation can take twice as long
from one minute to the next.  The reference below uses only built-in
ints, tuples and dicts, so no change to qbialg can change its speed;
timing it between operations measures how fast the machine is running
at that moment.  An operation's normalised time is its wall time
multiplied by ``(NOMINAL_S / r) ** SENSITIVITY``: an estimate of the
time it would have taken with the machine at the speed where the
reference takes ``NOMINAL_S``.

``SENSITIVITY`` is below 1 because the reference usually slows down
more than qbialg's operations when the machine is contended.  In three
measurement periods of interleaved timings on a 2-core VM, the logarithm of
operation times followed the logarithm of the reference time with
slopes of 0.66 to 0.85, 0.85 to 1.00 and 0.56 to 0.84 across
coherence, compare, algebra and cli operations; 0.8 is near the middle.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Iterations of the reference loop, and its nominal duration.  The
# nominal value is a constant, close to the reference time on a quiet
# 2-core x86-64 VM under Python 3.11 (see README.md); it is not
# calibrated per run, so figures from different runs and commits compare.
REFERENCE_ITERATIONS = 2500
NOMINAL_S = 0.001
SENSITIVITY = 0.8
WINDOW_S = 1.0


def reference_work(iterations: int = REFERENCE_ITERATIONS) -> int:
    table: dict = {}
    acc = 0
    for i in range(iterations):
        k = (i * 7919) % 211
        key = (k, i & 15, acc & 255)
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + k + len(table)) % 1000003
    return acc


class Normaliser:
    """Times calls between reference timings and normalises them."""

    def __init__(self):
        self._ref_at: list[float] = []
        self._ref_s: list[float] = []
        self._calls: list[tuple[float, float]] = []

    def reference(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self._ref_at.append((t0 + t1) / 2)
        self._ref_s.append(t1 - t0)

    def timed(self, fn):
        """Call fn between two reference timings and return its result.
        Its normalised time is known once the window after it has been
        measured: see ``normalised``."""
        self.reference()
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            wall = time.perf_counter() - t0
            self.reference()
            self._calls.append((t0 + wall / 2, wall))

    def factor(self, at: float) -> float:
        lo = bisect.bisect_left(self._ref_at, at - WINDOW_S)
        hi = bisect.bisect_right(self._ref_at, at + WINDOW_S)
        if hi - lo < 2:
            # a call longer than the window: use the references around it
            lo = max(0, bisect.bisect_left(self._ref_at, at) - 1)
            hi = lo + 2
        return (NOMINAL_S / statistics.median(self._ref_s[lo:hi])) ** SENSITIVITY

    def wall(self) -> list[float]:
        """Wall seconds of every timed call, in call order."""
        return [wall for _, wall in self._calls]

    def reference_median(self) -> float:
        return statistics.median(self._ref_s)

    def factors(self) -> list[float]:
        """Normalisation factor of every timed call, in call order."""
        return [self.factor(at) for at, _ in self._calls]

    def normalised(self) -> list[float]:
        """Normalised seconds of every timed call, in call order."""
        return [wall * self.factor(at) for at, wall in self._calls]
