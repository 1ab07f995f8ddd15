"""Op timing scaled to a reference machine speed.

On a shared virtual machine the speed of a virtual CPU drifts by up to +-20%
within seconds, with the load of other guests, and CPU time drifts with it.
The meter runs a fixed calibration kernel (pure Python, no library code)
after every ``CAL_EVERY_S`` of op time and reports each op's CPU time scaled
by ``CAL_REF_S / c``, where c is the median calibration time within
``WINDOW_S`` of the op.  A slower library shows as a larger scaled time; a
slower machine does not.  Measured here over 2.5 minutes of a fixed op set,
raw CPU time per pass ranged over +-20% while the scaled time stayed within +-3%.
"""

from __future__ import annotations

import bisect
import cmath
import math
import statistics
import time
from array import array

CLOCK = time.process_time
# CPU time of one calibration_kernel() call at the reference speed (about
# the median on the 2-vCPU host the baseline was measured on)
CAL_REF_S = 3.0e-4
CAL_EVERY_S = 0.01
WINDOW_S = 0.5

_FACT = [1]
for _i in range(1, 80):
    _FACT.append(_FACT[-1] * _i)


def calibration_kernel() -> complex:
    """A Bessel-K-like finite series: exact-integer ratios, complex powers and cmath calls."""
    s = 0j
    for n in range(0, 40, 3):
        z = 0.5 + 0.01 * n + 0.1j
        t = 0j
        for j in range(n, -1, -1):
            t += _FACT[j + n] / (_FACT[j] * _FACT[n - j]) * (2 * z) ** (-j)
        s += cmath.sqrt(math.pi / (2 * z)) * cmath.exp(-z) * t
    return s


def calibrate(samples: int = 1) -> float:
    """Median CPU time of ``samples`` calibration_kernel() calls."""
    times = []
    for _ in range(samples):
        t0 = CLOCK()
        calibration_kernel()
        times.append(CLOCK() - t0)
    return statistics.median(times)


class Meter:
    """Times ops in CPU seconds, interleaving calibration runs between them."""

    def __init__(self):
        # compact arrays, so the benchmark's own memory barely grows with the op count
        self.latencies = array("d")  # raw CPU seconds per op
        self._ends = array("d")
        self._cal_at: list[float] = []
        self._cal: list[float] = []
        self._since = 0.0
        self._calibrate()

    def _calibrate(self) -> None:
        c = calibrate()
        self._cal_at.append(CLOCK())
        self._cal.append(c)
        self._since = 0.0

    def run(self, fn, *args):
        t0 = CLOCK()
        result = fn(*args)
        t1 = CLOCK()
        self.latencies.append(t1 - t0)
        self._ends.append(t1)
        self._since += t1 - t0
        if self._since >= CAL_EVERY_S:
            self._calibrate()
        return result

    def scaled(self) -> list[float]:
        """Each op's CPU time at the reference speed, in seconds."""
        out = []
        for lat, end in zip(self.latencies, self._ends):
            lo = bisect.bisect_left(self._cal_at, end - WINDOW_S)
            hi = bisect.bisect_right(self._cal_at, end + WINDOW_S)
            window = self._cal[lo:hi] or self._cal[-1:]
            out.append(lat * CAL_REF_S / statistics.median(window))
        return out

    @property
    def speed(self) -> float:
        """Machine speed over the run relative to the reference (above 1 is faster)."""
        return CAL_REF_S / statistics.median(self._cal)
