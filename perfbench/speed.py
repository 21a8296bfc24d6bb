"""Machine-speed probe: scales measured times to a reference machine.

Shared virtual machines run the same pure-Python work 10-45% slower for
seconds at a time, which swamps any regression bound a benchmark could
set.  While a run measures, a SIGVTALRM handler times a fixed kernel
(exact Fraction and big-integer arithmetic, like latkit's own) every
INTERVAL seconds of CPU time.  Each measured interval is then scaled by
REFERENCE_S / (mean kernel time during it, or within WINDOW seconds of it
for short intervals), after the time spent in the kernel itself is taken
out.  On a quiet 2-core x86 VM the kernel takes REFERENCE_S, so scaled
times read as times on that machine.  The kernel does not use latkit, so
a change to latkit moves the scaled times as it moves the raw ones.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.05
WINDOW = 0.5
MIN_INSIDE = 3
REFERENCE_S = 0.0006

clock = time.perf_counter


def kernel():
    x, y = Fraction(1, 3), 3 ** 400
    for i in range(1, 120):
        x = x * Fraction(i + 2, i + 1) + Fraction(1, i)
        y = (y * 7 + i) % (5 ** 300)
    return x, y


class SpeedProbe:
    def __init__(self):
        self.starts = []   # start time of each kernel run, ascending
        self.lengths = []  # its duration

    def _tick(self, signum, frame):
        t0 = clock()
        kernel()
        self.starts.append(t0)
        self.lengths.append(clock() - t0)

    def __enter__(self):
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL, INTERVAL)
        self._tick(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        self._tick(None, None)

    def scale(self, t0, t1):
        """The interval [t0, t1] without kernel runs inside it, scaled to
        the reference machine by the kernel runs inside it, or by those
        within WINDOW seconds when fewer than MIN_INSIDE ran inside."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.lengths[lo:hi]
        near = inside
        if len(inside) < MIN_INSIDE:
            near = self.lengths[bisect.bisect_left(self.starts, t0 - WINDOW):
                                bisect.bisect_right(self.starts, t1 + WINDOW)]
        near = near or [statistics.median(self.lengths)]
        return (t1 - t0 - sum(inside)) * REFERENCE_S / statistics.fmean(near)
