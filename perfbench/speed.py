"""The machine's speed, sampled while the benchmark runs.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over seconds to minutes, for every kind of code alike (CPU time
drifts with wall time, so it is not descheduling).  A fixed reference kernel,
an interpreter loop of about 1 ms that allocates nothing, measures that
drift: ``SpeedProbe`` runs it from a SIGALRM handler every ``interval``
seconds of a timed region, keeps the kernel's own time out of the program's
clock, and scales each stretch of program time between two
samples by ``REFERENCE_S`` over the kernel time measured around it.  The
result is the time the program would have taken at the reference speed; the
kernel does not call the program, so a change to the program does not move
the reference.
"""

from __future__ import annotations

import signal
import statistics
import time

# kernel() time that defines the reference speed; on the 2-core Xeon VM the
# benchmark was written on the kernel takes 0.8 to 1.5 ms
REFERENCE_S = 0.001
WINDOW = 9  # samples in the running median that sets the speed of a stretch


def kernel() -> float:
    """Seconds one pass of the reference kernel takes now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(12_000):
        total += i * i % 7
    return time.perf_counter() - t0


def speed_now() -> float:
    """The median kernel time over 15 back-to-back passes."""
    return statistics.median(kernel() for _ in range(15))


class SpeedProbe:
    """Samples the kernel every ``interval`` s between ``start`` and ``stop``.

    ``clock`` is ``time.perf_counter`` minus the time spent sampling, so
    timings taken with it leave the samples out.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.spent = 0.0
        self.samples: list[tuple[float, float]] = []  # (clock, kernel seconds)
        self._previous = None
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self, *_) -> None:
        if self._busy:  # a signal that arrived while sampling
            return
        self._busy = True
        at, t0 = self.clock(), time.perf_counter()
        took = kernel()
        self.spent += time.perf_counter() - t0
        self.samples.append((at, took))
        self._busy = False

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.sample()

    def scaled(self, start: float, end: float) -> float:
        """Program time from ``start`` to ``end`` (``clock`` readings between
        ``start()`` and ``stop()``) at the reference speed."""
        times = [took for _, took in self.samples]
        half = WINDOW // 2
        total = 0.0
        for k in range(1, len(self.samples)):
            lo, hi = max(start, self.samples[k - 1][0]), min(end, self.samples[k][0])
            if hi > lo:  # median over a window centred on samples k-1 and k
                speed = statistics.median(times[max(0, k - 1 - half): k + half])
                total += (hi - lo) * REFERENCE_S / speed
        return total
