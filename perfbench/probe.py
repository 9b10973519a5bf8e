"""Machine-speed probe: times taken on a shared host, scaled to one speed.

A shared host runs this benchmark at a speed that drifts by 25-60%, in
bursts of a second or two and in phases of tens of seconds, as neighbours
come and go, so the same work on the same inputs reads very differently from
one run to the next. The probe runs a fixed kernel of the benchmark's own
(interpreter loop, dict updates, a sort and small numpy ops, the mix the
program spends its time on) between the timed calls, outside every timed
section, and keeps each sample's time.

A duration measured over [t0, t1] is then reported at the reference speed:
multiplied by NOMINAL_S over the median of the probe samples taken within
WINDOW_S of that interval, which are the ones taken just before and just
after it and any taken during it. A program that gets slower still reads
slower by the same share, because the kernel is not program code; only the
host's drift cancels. Raw times are recorded beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

# The kernel's time at the reference speed; scaled times are seconds at the
# speed at which the kernel takes this long. On a shared 2-vCPU Intel Xeon
# guest with Python 3.11 and numpy 2 it took 4.5-10 ms as the host drifted.
NOMINAL_S = 0.008
WINDOW_S = 1.0


def _kernel() -> float:
    acc = 0
    table: dict[int, int] = {}
    for i in range(36_000):
        acc += (i * 7919) % 13
        table[i & 255] = acc
    ordered = sorted(table.values(), reverse=True)
    a = np.arange(256.0)
    for _ in range(450):
        a = np.sqrt(a * a + 1.0)
    return acc + ordered[0] + float(a[1])


class SpeedProbe:
    """Samples the kernel's time; one probe per run, single-threaded."""

    def __init__(self):
        self.times: list[float] = []  # midpoint of each sample, sorted
        self.samples: list[float] = []  # kernel seconds
        self.spent = 0.0  # total seconds spent probing
        self.last = 0.0  # when the latest sample ended

    def __call__(self, samples: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(samples):
                t0 = time.perf_counter()
                _kernel()
                t1 = time.perf_counter()
                self.times.append((t0 + t1) / 2)
                self.samples.append(t1 - t0)
                self.spent += t1 - t0
                self.last = t1
        finally:
            if enabled:
                gc.enable()

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the host's speed during [t0, t1].

        An interval longer than two windows is cut at the samples taken in
        it, and the pieces' factors are averaged, weighted by length, so a
        round whose first half ran slow and second half fast is scaled by
        each half's own speed.
        """
        if t1 - t0 > 2 * WINDOW_S:
            lo = bisect.bisect_right(self.times, t0)
            hi = bisect.bisect_left(self.times, t1)
            cuts = [t0, *self.times[lo:hi], t1]
            return sum((b - a) * self._local(a, b) for a, b in zip(cuts, cuts[1:])) / (t1 - t0)
        return self._local(t0, t1)

    def _local(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median sample within WINDOW_S of [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        near = self.samples[lo:hi]
        if not near:  # no sample in the window: take the nearest on each side
            i = bisect.bisect_left(self.times, t0)
            near = self.samples[max(i - 1, 0):i + 1]
        return NOMINAL_S / statistics.median(near)

    def scaled(self, seconds: float, t0: float, t1: float) -> float:
        return seconds * self.factor(t0, t1)


class NoProbe:
    """Stands in for the probe where times stay as measured: in traced
    rounds, and for the raw figures the report records."""

    spent = 0.0
    last = 0.0

    def __call__(self, samples: int = 1) -> None:
        pass

    @staticmethod
    def factor(t0: float, t1: float) -> float:
        return 1.0

    @staticmethod
    def scaled(seconds: float, t0: float, t1: float) -> float:
        return seconds
