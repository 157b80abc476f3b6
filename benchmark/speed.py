"""Machine-speed probe, to take the host's speed swings out of the timings.

The benchmark runs on shared virtual machines whose speed drifts by a
third within seconds while nothing in the guest changes.  A fixed probe is
timed every INTERVAL_S from a SIGALRM handler while the requests run.  It
mixes a plain interpreter loop with Fraction arithmetic: alone, the first
tracked the W(3) workloads best and the second the desk workload.  The
probe's own time is subtracted from the request that it interrupted, and
each request's time is rescaled by REFERENCE_S over the median probe time
around the request, so that a time reads as it would at the reference
speed.  The probe costs about 2% of the machine.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# Probe time at the reference speed: about its median on a 2-core Xeon KVM
# guest at 2.0 GHz with Python 3.11.
REFERENCE_S = 0.00085
# Samples used around a request: those within WINDOW_S of it, at least
# MIN_SAMPLES of the nearest.
WINDOW_S = 0.25
MIN_SAMPLES = 5


def probe_work():
    """An interpreter loop, then exact rational sums with growing integers."""
    total = 0
    for i in range(4000):
        total += i * i % 7
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i, i + 1)
    return total, acc


class SpeedProbe:
    def __init__(self):
        self.times = []      # start of each probe
        self.durations = []  # its duration
        self.spent = 0.0     # total probe time, to subtract from requests
        self._previous = None

    def _sample(self, signum, frame):
        clock = time.perf_counter
        start = clock()
        probe_work()
        took = clock() - start
        self.times.append(start)
        self.durations.append(took)
        self.spent += took

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self, start, end):
        """REFERENCE_S over the median probe time around [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        if lo == hi:
            return 1.0
        return REFERENCE_S / statistics.median(self.durations[lo:hi])
