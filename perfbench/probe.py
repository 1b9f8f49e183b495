"""Host-speed probe: a fixed loop of the benchmark's own code, timed often
during a run, so that every timing can be given at one reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up
to about two times over seconds to minutes, with the same drift in wall and
CPU time.  A timing taken next to a probe and multiplied by
REFERENCE_S / (the median of the latest probes) is in reference seconds:
the time the code would take on this hardware while the probe reads
REFERENCE_S.  The probe runs no orlnorm code, so a change to the program
cannot move it; a change to Python or numpy can.

The loop has the four shapes of work the workloads spend their time in:
interpreter arithmetic, a bisection over a method call summed over six
atoms (the scale search of a norm), numpy calls on 6-element arrays (a
6-atom norm evaluation) and a bisection over a 33 x 501 grid with fresh
temporaries (a modulus grid pass).
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 3.2e-3  # the probe's median on a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4
GAP_S = 0.05          # the least time between two probes
WINDOW = 9            # a timing is scaled by the median of this many latest probes

_SMALL = np.linspace(0.0, 1.0, 6)
_GRID = np.linspace(0.1, 1.0, 33)[:, None] * np.linspace(0.0, 1.0, 501)[None, :]
_WEIGHTS = (1.0, 0.5, 2.0, 1.5, 0.75, 1.25)
_VALUES = (0.3, -0.8, 0.55, -0.1, 0.9, -0.45)


class _Power:
    def __init__(self, r: float) -> None:
        self.r = r

    def evaluate(self, u: float) -> float:
        a = abs(u)
        if a == 0.0 or math.isinf(a):
            return a
        return a ** self.r


_PHI = _Power(2.5)


def _loop() -> float:
    s = 0.0
    for i in range(1500):
        s += math.sqrt(i + 1.5)
    for _ in range(12):
        lo, hi = 1e-3, 1e3
        for _ in range(30):
            k = math.sqrt(lo * hi)
            m = 0.0
            for w, v in zip(_WEIGHTS, _VALUES):
                m += w * _PHI.evaluate(k * v)
            if m > 1.0:
                hi = k
            else:
                lo = k
        s += lo
    for i in range(100):
        s += float(np.sum(np.abs(_SMALL * i - 0.3) ** 1.5))
    lo = np.zeros(_GRID.shape)
    hi = _GRID.copy()
    for _ in range(6):
        mid = 0.5 * (lo + hi)
        up = mid * mid < 0.3
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return s + float(lo.sum())


class HostProbe:
    """Runs the probe at most every GAP_S seconds and keeps its times.
    `spent` is the total time spent probing, so that a caller can take it
    out of a timing that encloses a probe."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0
        self._next_at = 0.0

    def tick(self) -> None:
        """Probe now if GAP_S has passed since the last probe ended."""
        t0 = time.perf_counter()
        if t0 < self._next_at:
            return
        _loop()
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self.spent += t1 - t0
        self._next_at = t1 + GAP_S

    def scale(self) -> float:
        """The factor that turns a time measured now into reference seconds
        (after at least one tick)."""
        return REFERENCE_S / statistics.median(self.times[-WINDOW:])
