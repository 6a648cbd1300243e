"""Host-speed calibration for wall times measured on a shared machine.

On a machine shared with other tenants the effective CPU speed drifts by a
third over tens of seconds, and CPU time follows wall time, so neither is
steady on its own.  A fixed unit of the benchmark's own code (an interpreter
loop, small-array numpy calls and small linear solves) is timed around every
measured interval, and the interval is scaled to a host on which the unit
takes ``REFERENCE_UNIT_S``.  Of the mixes tried, this one left the least
drift on every workload; adding a pass over a large array added noise, even
on the array-bound wald-s3.  The unit never calls the package, so a change to
the package cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the unit's median time between commands on the reference host (2-core
# Xeon, Python 3.11, numpy 2.4 with OpenBLAS); scaled times are seconds there.
REFERENCE_UNIT_S = 0.0040


class SpeedProbe:
    def __init__(self):
        self._small = np.linspace(-5.0, 5.0, 1000)
        self._matrix = np.eye(5) + 0.1

    def unit(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        for _ in range(200):
            np.exp(self._small).sum()
        for _ in range(200):
            np.linalg.solve(self._matrix, self._small[:5])
        return time.perf_counter() - start

    def measure(self, budget: float) -> float:
        """Median unit time over at least three units and ``budget`` seconds;
        the first unit after a command runs cold, and the median drops it."""
        times = []
        end = time.perf_counter() + budget
        while len(times) < 3 or time.perf_counter() < end:
            times.append(self.unit())
        return statistics.median(times)


def scaled(seconds: float, unit_before: float, unit_after: float) -> float:
    """An interval's seconds scaled by the unit times measured around it."""
    return seconds * REFERENCE_UNIT_S / (0.5 * (unit_before + unit_after))
