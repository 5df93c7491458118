"""Machine-speed sampling, so that times taken on a shared host compare.

On a virtual machine whose cores are shared with other tenants, the same
Python loop can take twice as long from one second to the next, and the
share of slow seconds changes from minute to minute.  Raw wall times of runs
made minutes apart then differ by more than any change worth detecting.

CPU time does not help there: the slowdown is not time stolen from the
guest but the core itself running slower, so CPU time slows with it (the
spreads of both clocks are in README.md, *Steadiness*).

``SpeedSampler`` runs a fixed snippet of interpreter work (rational
arithmetic, dict stores, float maths) from a timer signal every
``PERIOD_S`` seconds of wall time, in the measured thread itself (each
pass's process), and records how long it took.  ``scaled(a, b)`` converts
the wall interval [a, b] into *reference seconds*: the interval weighted,
instant by instant, by ``REFERENCE_S / snippet time`` (a rolling median
over nearby samples), so a stretch during which the host ran at half speed
counts half.  Both commits
of a comparison are scaled to the same reference, so a change to the
library shows at its full size, while the host's speed drifts out.

The snippet adds about 1% to every interval it samples.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.02
#: Snippet time that defines one reference second: a round figure near the
#: snippet's fastest time on the 2 GHz x86-64 host (CPython 3.11) where the
#: baseline was measured.
REFERENCE_S = 1e-4
SMOOTH = 9  # samples in the rolling median


def snippet():
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, i % 7 + 1)
    table = {}
    x = 0.0
    for i in range(150):
        table[i & 31] = x
        x += math.sqrt(i) * 1.5
    return acc


class SpeedSampler:
    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []
        self._previous = None
        self._knots = self._cumulative = self._factor = None

    def _sample(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()  # a collection of the caller's garbage is not the host's speed
        t0 = perf_counter()
        snippet()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.times.append(t0)
        self.costs.append(t1 - t0)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop sampling and build the reference-time integral."""
        import numpy as np  # not at import time: set-up timing includes numpy's import

        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        if not self.costs:  # a run shorter than one period: take one sample now
            self._sample(None, None)
        costs = np.array(self.costs)
        half = SMOOTH // 2
        smooth = np.array([np.median(costs[max(0, i - half):i + half + 1])
                           for i in range(len(costs))])
        self._knots = np.array(self.times)
        self._factor = REFERENCE_S / smooth
        steps = self._factor[:-1] * np.diff(self._knots)
        self._cumulative = np.concatenate([[0.0], np.cumsum(steps)])

    def _integral(self, t: float) -> float:
        knots, cum, factor = self._knots, self._cumulative, self._factor
        if t <= knots[0]:
            return cum[0] - factor[0] * (knots[0] - t)
        if t >= knots[-1]:
            return cum[-1] + factor[-1] * (t - knots[-1])
        i = bisect.bisect_right(knots, t) - 1
        return cum[i] + factor[i] * (t - knots[i])

    def scaled(self, a: float, b: float) -> float:
        """Reference seconds spent in the wall interval [a, b]."""
        return self._integral(b) - self._integral(a)

    def median_cost(self) -> float:
        return statistics.median(self.costs)
