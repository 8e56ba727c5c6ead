"""Host-speed reference that makes timings steady on a shared machine.

On a shared host the CPU time of fixed work drifts by a quarter or more
over tens of seconds, because other tenants compete for the same cores and
caches. While timing, a profiling timer interrupts the process every
INTERVAL_S of CPU time and runs a fixed reference kernel: a small recursive
backtracking colouring that belongs to the benchmark, not to the program.
Its median time over a stretch of the run (one pass, or the set-up)
measures the host's speed during that stretch, and the times measured in it
are scaled by REFERENCE_S over that median. The kernel's own time is
subtracted from whatever it interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time

# Median kernel time on the reference host (2-vCPU Intel Xeon VM,
# Python 3.11.7). Scaled times read as seconds on that host.
REFERENCE_S = 1.0e-4
INTERVAL_S = 0.02
MIN_WINDOW = 10

_N = 40
_ADJ = tuple(tuple((v + d) % _N for d in (1, 3, 7, _N - 1, _N - 3, _N - 7)) for v in range(_N))
_CAP = 40


def kernel() -> int:
    """Proper 4-colourings of a fixed circulant graph, counted up to _CAP."""
    color = [0] * _N
    count = 0

    def rec(v: int) -> None:
        nonlocal count
        if count >= _CAP:
            return
        if v == _N:
            count += 1
            return
        used = 0
        for u in _ADJ[v]:
            if color[u]:
                used |= 1 << color[u]
        for c in range(1, 5):
            if not used & (1 << c):
                color[v] = c
                rec(v + 1)
                color[v] = 0

    rec(0)
    return count


class HostSpeed:
    """Samples the kernel while active; ``spent`` is the CPU time it took."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.thread_time()
        kernel()
        d = time.thread_time() - t0
        self.samples.append(d)
        self.spent += d

    def clock(self) -> float:
        """CPU seconds of this thread, less the time spent in the kernel.

        The benchmark calls the program with one worker, so this thread does
        all its work. The thread clock, not the process clock: while a
        process-wide CPU timer is armed, Linux advances the process clock
        only at scheduler ticks.
        """
        return time.thread_time() - self.spent

    def __enter__(self) -> "HostSpeed":
        self._sample(None, None)
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def factor(self, start: int = 0) -> float:
        """REFERENCE_S over the median of the samples from index ``start`` on.

        A window with fewer than MIN_WINDOW samples uses all samples.
        """
        window = self.samples[start:]
        if len(window) < MIN_WINDOW:
            window = self.samples
        return REFERENCE_S / statistics.median(window)
