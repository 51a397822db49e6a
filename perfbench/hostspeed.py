"""Host speed references for timings on a shared machine.

The benchmark's host shares its cores and caches with other tenants.  The
speed of the same code changes by up to 1.8x within a second, and some slow
spells last the whole of a run, so raw timings of one run do not repeat.
Every timed operation is therefore bracketed by a fixed NumPy kernel that
does not use the package.  The operation's time is scaled by the kernel's
reference time over its time around the operation, i.e. reported as it would
be at the host's uncontended speed.  On a quiet host the factor is close to
1; the raw figures are printed on standard error as well.

Contention slows cache-resident and memory-streaming code by different
factors, so a workload is bracketed by the kernel that resembles its
operations: SMALL (1e3-element arrays) or LARGE (1e5-element arrays).
"""

from __future__ import annotations

import statistics
import time

import numpy as np


class Kernel:
    def __init__(self, body, reps: int, ref_seconds: float):
        self.body = body
        self.reps = reps
        # the median time of `body` on an uncontended host: 2-vCPU Intel
        # Xeon, Python 3.11.7, numpy 2.4.6.  A constant, so the scale of one
        # run never depends on the state of the host during another.
        self.ref_seconds = ref_seconds

    def seconds(self) -> float:
        """Median time of the kernel over `reps` calls, now."""
        times = []
        for _ in range(self.reps):
            start = time.perf_counter()
            self.body()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scaled(self, raw_seconds: float, before: float, after: float) -> float:
        """raw_seconds at the reference speed, given the kernel's time just
        before and just after the timed interval."""
        return raw_seconds * self.ref_seconds / (0.5 * (before + after))


_SMALL_X = np.linspace(-1.0, 1.0, 1000)
_LARGE_X = np.linspace(-3.0, 3.0, 100_000)
_LARGE_W = np.full(100_000, 1e-5)
_LARGE_BUF = np.empty(100_000)   # preallocated: the allocator's state must not time in


def _small():
    for _ in range(4):
        float(np.exp(_SMALL_X).sum())


def _large():
    np.add(_LARGE_X, 0.1, out=_LARGE_BUF)
    np.exp(_LARGE_BUF, out=_LARGE_BUF)
    float(_LARGE_W @ _LARGE_BUF)


SMALL = Kernel(_small, reps=7, ref_seconds=10.6e-6)
LARGE = Kernel(_large, reps=3, ref_seconds=156e-6)
