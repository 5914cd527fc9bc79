"""Track how fast the machine runs while the benchmark measures.

The reference box is two vCPUs of a shared host.  Each vCPU switches, on
its own and from one millisecond to the next, between a slow and a fast
speed (about 1.4x to 2x apart, depending on the code), and the share of
time spent fast changes with the host's other load from minute to minute.
At times the host also takes the vCPU away for a while, which wall-clock
time counts and the process's CPU time does not.  Raw wall-clock task
times of the same code so spread by up to a third from run to run.

`Sampler` times one tiny fixed kernel from a SIGPROF handler, so at even
steps of the worker's own CPU time and on the vCPU the worker runs on.  The
kernel, small Fraction products over dict-of-exponent-tuple polynomials,
is interpreter-bound like most of nochka.  A sample's speed is the kernel's
reference time over its measured time: 1 for the kernel run alone at the
box's usual slow speed (inside a worker, whose tasks evict the kernel's
data from cache, about 0.8), higher when faster.  A task's reference
seconds are its CPU time, less the kernel time spent inside it, times the
mean speed of the samples taken around it.  The kernel does not call
nochka, so a change to the program moves task times but not the speed.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

# The kernel's median on the reference box at its usual (slow) speed:
# 2 vCPU Intel Xeon at 2.1 GHz, Python 3.11.7.
REF_KERNEL_S = 0.00065
# SIGPROF period, in seconds of the process's CPU time.
INTERVAL_S = 0.02
# A task's speed is the mean over the samples inside it, widened to at
# least this many samples by the nearest ones before and after it.
MIN_SAMPLES = 4

_TERMS = {(i, j, 3 - i - j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4 - i)}
_TOTAL = sum(_TERMS.values())


def kernel() -> None:
    product: dict[tuple[int, int, int], Fraction] = {}
    for (a, b, c), u in _TERMS.items():
        for (d, e, f), v in _TERMS.items():
            key = (a + d, b + e, c + f)
            product[key] = product.get(key, 0) + u * v
    if sum(product.values()) != _TOTAL * _TOTAL:
        raise AssertionError("kernel: wrong result")


class Sampler:
    """Kernel timings taken every INTERVAL_S of CPU time while started."""

    def __init__(self):
        self.ends: list[float] = []      # perf_counter() when each sample ended
        self.costs: list[float] = []     # seconds the sample took
        self.speeds: list[float] = []
        self._taken = 0

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.ends.append(end)
        self.costs.append(end - start)
        self.speeds.append(REF_KERNEL_S / (end - start))

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def take(self) -> list[list[float]]:
        """The samples taken since the last call, as [end, cost, speed] rows."""
        lo, hi = self._taken, len(self.speeds)   # speeds is appended last
        self._taken = hi
        return [[self.ends[i], self.costs[i], self.speeds[i]] for i in range(lo, hi)]


def window(samples: list[list[float]], start: float, end: float) -> tuple[float, float]:
    """(kernel seconds spent in [start, end], mean speed around it).

    `samples` are [end, cost, speed] rows in time order."""
    ends = [row[0] for row in samples]
    lo = bisect.bisect_left(ends, start)
    hi = bisect.bisect_right(ends, end)
    inside = sum(row[1] for row in samples[lo:hi])
    while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(samples)):
        if lo > 0:
            lo -= 1
        if hi - lo < MIN_SAMPLES and hi < len(samples):
            hi += 1
    speeds = [row[2] for row in samples[lo:hi]]
    return inside, (sum(speeds) / len(speeds) if speeds else 1.0)
