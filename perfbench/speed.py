"""Machine-speed normalisation of measured times.

On a shared machine the speed of a core drifts by 20-30% over tens of
seconds, with process CPU time drifting alike, so a raw wall time mixes the
program's cost with the machine's load at the time.  `Clock` times a region
and, every `INTERVAL_S` while it runs (from a timer signal), times a fixed
reference kernel of interpreter and numpy work.  The normalised time is

    (raw wall time - time spent in the kernel) * REFERENCE_S / median kernel time,

the region's cost in seconds at the speed where the kernel takes
`REFERENCE_S`.  It is the raw time on a machine running at that speed, and
it does not depend on anything the package does.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
EDGE_SAMPLES = 3      # kernel runs just before and just after the region
# median kernel time on the 2-vCPU x86_64 VM (Xeon, 2.1 GHz) the benchmark
# was calibrated on; fixes the unit of normalised seconds
REFERENCE_S = 2.5e-3
_GRID = np.linspace(0.0, 30.0, 80_000)


def kernel() -> float:
    """Wall time of a fixed mix of interpreter and numpy work."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(20_000):
        s += math.sin(i * 1.0e-3)
    s += float((np.sin(_GRID) ** 2).sum())
    return time.perf_counter() - t0


class Clock:
    """Context manager: ``raw_s`` and normalised ``seconds`` of its body."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.raw_s = 0.0
        self.kernel_s = 0.0     # median kernel time: the machine's speed
        self.seconds = 0.0

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        self.samples += [kernel() for _ in range(EDGE_SAMPLES)]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw_s = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [kernel() for _ in range(EDGE_SAMPLES)]
        self.kernel_s = statistics.median(self.samples)
        self.seconds = (self.raw_s - self.spent_s) * REFERENCE_S / self.kernel_s
        return False
