"""Machine-speed reference used to normalize the benchmark's wall times.

On a shared virtual machine the same single-threaded code runs up to 1.6x
slower for seconds or minutes at a time.  The runner therefore times a
fixed calibration kernel between ops and divides each wall time by the
kernel's slowdown at that moment: a reported time is what the op would
take on a machine where the kernel takes ``KERNEL_NOMINAL_S``.  The kernel
is about half interpreter work with small NumPy calls and half a LAPACK
solve, the two kinds of work the program does; with the solve left out,
BLAS-bound forecaster play still spread by a quarter.  The kernel runs no
``cpt_games`` code, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

KERNEL_NOMINAL_S = 2.0e-3
SAMPLE_EVERY_S = 0.05  # one kernel (about 4% extra time) per 50 ms of ops
MAX_BURST = 20

_X = np.array([0.3, 0.1, 0.4, 0.2])
_A = np.random.default_rng(0).random((256, 256)) + 256.0 * np.eye(256)
_B = np.ones(256)


def kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work, small NumPy calls and a solve."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60):
        order = np.argsort(-_X, kind="stable")
        cum = np.cumsum(_X[order])
        acc += float(np.exp(-np.sqrt(-np.log(np.clip(cum, 1e-9, 1.0)))).sum())
        acc += len(str({"k": i, "v": acc}))
    acc += float(np.linalg.solve(_A, _B)[0])
    return time.perf_counter() - t0


class SpeedLog:
    """Kernel timings taken between ops, and the slowdown around an interval."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._last = time.perf_counter()

    def sample(self, least: int = 0) -> None:
        """Time the kernel once per SAMPLE_EVERY_S elapsed since the last sample.

        After a long op this takes a burst of samples, so the slowdown
        around it rests on as many kernel timings as around short ops.
        """
        due = min(MAX_BURST, int((time.perf_counter() - self._last) / SAMPLE_EVERY_S))
        due = max(due, least)
        for _ in range(due):
            self.at.append(time.perf_counter())
            self.took.append(kernel())
        if due:
            self._last = time.perf_counter()

    def slowdown(self, start: float, end: float, pad: float = 0.25, least: int = 5) -> float:
        """Median kernel time near [start, end], relative to the nominal kernel time."""
        lo = bisect.bisect_left(self.at, start - pad)
        hi = bisect.bisect_right(self.at, end + pad)
        if hi - lo < least:
            mid = bisect.bisect_left(self.at, (start + end) / 2.0)
            lo = max(0, min(mid - least // 2, len(self.at) - least))
            hi = lo + least
        return statistics.median(self.took[lo:hi]) / KERNEL_NOMINAL_S

    def overall(self) -> float:
        return statistics.median(self.took) / KERNEL_NOMINAL_S
