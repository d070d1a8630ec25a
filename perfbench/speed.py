"""Samples of the speed the host gives this process.

On a shared host that speed drifts by a quarter and more over tens of
seconds and between minutes, for any code alike.  The benchmark times a
fixed reference computation next to the program and reports the
program's time against it: `wall_ref` directly in reference units, and
`setup_s` as seconds at NOMINAL_REFERENCE_S.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_LOOP = 30_000
REFERENCE_NUMPY_CALLS = 300
# reference_s on the quiet 2-vCPU Xeon (Python 3.11.7, numpy 2.4.6) where
# the benchmark was written
NOMINAL_REFERENCE_S = 0.0022


def reference_s() -> float:
    """Wall time of a fixed computation that uses no cuspforge code.

    Interpreter arithmetic plus small numpy calls, the mix the workloads
    run, so its time follows the host's speed at the moment, and no change
    to the program can move it.
    """
    import numpy as np  # after the caller has pinned BLAS threads

    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i
    a = np.arange(8.0)
    for _ in range(REFERENCE_NUMPY_CALLS):
        a = np.sqrt(a * a + 1.0) - 1.0
    return time.perf_counter() - start


def mean_speed(samples: list[float]) -> float:
    """Mean of 1 / sample: for samples spread evenly over a stretch of time,
    time spent times this is work done, in reference computations."""
    return statistics.mean(1.0 / r for r in samples)


def scaled_s(seconds: float, samples: list[float]) -> float:
    """`seconds` measured while `samples` were taken, at the nominal speed."""
    return seconds * mean_speed(samples) * NOMINAL_REFERENCE_S


class SpeedProbe:
    """Times `reference_s` every `period` seconds from a timer signal.

    The handler runs between bytecodes of this single thread, so the
    samples spread evenly over the iterations, however long one is.
    `spent_s` totals the time the samples took, which iterations leave
    out of their wall time.
    """

    def __init__(self, period: float) -> None:
        self.period = period
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_s())
        self.spent_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
