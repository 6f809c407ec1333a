"""The host's speed, from a fixed numpy reference timed between measured steps.

On a shared host a core's speed drifts by 10-30% over seconds and minutes,
and every timing of a run moves with it.  A ``Pace`` times a fixed piece of
work, a few ``dot`` products and ``a + c*(b - a)`` updates at a workload's
element size, before every step a workload times (a block of appends, one
command), so that it samples the same stretches of time as they do.  The
slowdown at a step is the median time of the ticks nearest to it over the
reference's nominal time; a step's time divided by its slowdown reads as at
the nominal speed.  The reference uses numpy only, never the package, so no
change to the package moves it.

Every time here is the process's CPU time, so the stretches in which the
host runs another guest on this core do not count, where the kernel
accounts them as stolen.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

clock = time.process_time


class Pace:
    """Reference timings; ``nominal_s`` is one tick's time at the nominal speed."""

    def __init__(self, dim, reps, nominal_s, window=5):
        dim, reps = int(dim), int(reps)
        rng = np.random.default_rng(0)
        self.a, self.b = rng.random(dim), rng.random(dim)
        self.reps = reps
        self.nominal_s = nominal_s
        self.window = window
        self.samples = []

    def tick(self):
        """Times the reference once; returns the tick's index."""
        a, b = self.a, self.b
        t0 = clock()
        for _ in range(self.reps):
            c = 0.37 + 1e-9 * float(a @ b)
            e = a + c * (b - a)
        self.samples.append(clock() - t0)
        del e
        return len(self.samples) - 1

    def slowdown(self, i):
        """Median of the ticks within ``window`` of tick ``i``, over the nominal."""
        near = self.samples[max(0, i - self.window):i + self.window + 1]
        return statistics.median(near) / self.nominal_s


def no_tick():
    return 0
