"""A fixed piece of work that measures how fast the machine runs right now.

The machine this benchmark was built on runs the same deterministic work
anywhere from 1.0x to 1.9x slower from one stretch of seconds to the next,
with process time tracking wall time (so it is not scheduling). ``run.py``
times ``reference_work`` between ops and scales each op's wall time by
``QUIET_S`` over the median reference time taken around it: the
calibrated time is the time the op would take with the machine at its
quiet speed. Ops long enough to outlast the machine's fast and slow
stretches are also sampled inside, from a timer signal (``Speedometer``).
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import math
import signal
import statistics
import time

import numpy as np

#: median time of ``reference_work`` with the machine quiet (2-core VM,
#: Python 3.11.7, numpy 2.4.6)
QUIET_S = 2.2e-3
#: seconds between reference samples taken inside a measured block
PROBE_INTERVAL_S = 0.5


def reference_work() -> float:
    """Newton's method on a fixed planar cubic from a fixed start, with the
    field and its Jacobian written out; returns the final residual."""
    total = 0.0
    for start in range(72):
        x, y = 1.5 + 0.004 * start, -0.7
        for _ in range(8):
            f = np.array([x * x * x - 2.0 * x * y + y - 1.0, x * x + y * y * y - x - 0.5])
            jac = np.array([[3.0 * x * x - 2.0 * y, 1.0 - 2.0 * x],
                            [2.0 * x - 1.0, 3.0 * y * y]])
            det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
            if det == 0.0:
                break
            dx = (jac[1, 1] * f[0] - jac[0, 1] * f[1]) / det
            dy = (jac[0, 0] * f[1] - jac[1, 0] * f[0]) / det
            x, y = x - dx, y - dy
        total += math.sqrt(float(f.dot(f)))
    return total


def reference_time() -> float:
    """Seconds of one ``reference_work``, after one untimed run that warms
    the caches an op has just filled with its own code and data. The
    garbage collector is off meanwhile, so the time does not depend on
    how many objects the process holds."""
    gc.disable()
    try:
        reference_work()
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


class Speedometer:
    """Reference samples over a run, each with the time it was taken.

    ``sample`` takes one; ``measure`` times a block of work and, while the
    block runs, takes one every ``PROBE_INTERVAL_S`` seconds from a SIGALRM timer
    (the handler runs between bytecodes of whatever the main thread does),
    leaving the samples' own time out of the block's. ``calibrate`` scales
    a block's wall time by ``QUIET_S`` over the median sample taken within
    ``WINDOW_S`` of the block."""

    WINDOW_S = 1.0

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self._spent = 0.0

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.samples.append(reference_time())

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        self._spent += time.perf_counter() - start

    @contextlib.contextmanager
    def measure(self, probe: bool = True):
        """Yields a list that receives, when the block ends, its start, its
        end and its wall seconds net of the samples taken inside it."""
        span: list[float] = []
        self._spent = 0.0
        if probe:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            yield span
        finally:
            if probe:  # stopped first, so every sample taken counts in the block
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            end = time.perf_counter()
            span += [start, end, end - start - self._spent]

    def calibrate(self, start: float, end: float, wall: float) -> float:
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        return wall * QUIET_S / statistics.median(self.samples[lo:hi])
