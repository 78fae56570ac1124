"""Machine-speed probe: corrects item times for the host's speed swings.

On a shared host the speed of one core swings by up to 1.8x, in bursts of a
second or two and in slower drifts of 10-20 % over minutes, and those swings,
not the code, set the run-to-run spread of a plain sum of item times.  The
probe measures the swing while the items run: a SIGALRM handler runs a fixed
calibration (a pure-Python loop and a few small numpy operations) every
PERIOD seconds and records when it ran and how long it took.  Interleaved
this finely, the calibration slows down with the workload: on a 2-vCPU VM
the two moved together with a correlation of 0.97 over 0.5-s windows.

An item's corrected time is its wall time, minus the probe's own time inside
it, scaled by REFERENCE_S / (mean calibration time over the item, WINDOW
seconds either side, each sample capped at CAP times the run's median).  So
a corrected time reads as seconds on a machine where one calibration takes
REFERENCE_S, whatever speed the host had while the item ran.  REFERENCE_S is
the calibration's median time on an idle 2-vCPU VM (Intel Xeon, Python
3.11); it only sets the unit, and the same code reads the same on any host
that keeps the ratio of calibration to library speed.

Python runs signal handlers between bytecodes of the main thread, so the
calibration never lands inside a C call of the library, and it touches no
state the library reads: results are unchanged.
"""

from array import array
from bisect import bisect_left, bisect_right
import signal
import statistics
import time

import numpy as np

PERIOD = 0.02   # seconds between calibrations
WINDOW = 0.1    # seconds either side of an item whose calibrations count
CAP = 3.0       # a calibration slower than CAP x the median was preempted, not slowed
REFERENCE_S = 3.5e-4
LOOP = 2400
_ARRAY = np.linspace(0.0, 1.0, 256)


def calibrate():
    total = 0
    for i in range(LOOP):
        total += i * i
    a = _ARRAY
    for _ in range(24):
        a = np.sqrt(np.exp(-a) + a)
    return total, a


class SpeedProbe:
    """``start()``, run the items, ``stop()``, then ``corrected(start, end)``."""

    def __init__(self):
        self.at = array("d")     # when each calibration started
        self.cost = array("d")   # how long it took
        self._previous = None
        self._nominal = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        calibrate()
        self.at.append(start)
        self.cost.append(time.perf_counter() - start)

    def start(self):
        calibrate()  # warm: the first call pays for numpy's dispatch caches
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def nominal(self):
        """Median calibration time of the run."""
        if self._nominal is None:
            self._nominal = statistics.median(self.cost) if self.cost else 1.0
        return self._nominal

    def overhead(self, start, end):
        """Probe seconds spent inside [start, end]."""
        i, j = bisect_left(self.at, start), bisect_right(self.at, end)
        return sum(self.cost[i:j])

    def slowdown(self, start, end):
        """Mean calibration time around [start, end], in units of REFERENCE_S."""
        nominal = self.nominal()
        i, j = bisect_left(self.at, start - WINDOW), bisect_right(self.at, end + WINDOW)
        if i == j:  # no sample near: take the next one, or the last
            if not self.cost:
                return 1.0  # no calibration at all: take the wall time as it is
            i = min(i, len(self.at) - 1)
            j = i + 1
        capped = [min(c, CAP * nominal) for c in self.cost[i:j]]
        return sum(capped) / len(capped) / REFERENCE_S

    def corrected(self, start, end):
        """Seconds [start, end] would have taken at the reference speed."""
        return (end - start - self.overhead(start, end)) / self.slowdown(start, end)
