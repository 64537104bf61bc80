"""Machine speed sampled through a batch, to scale the batch's times.

A shared machine's speed drifts by tens of percent over seconds and minutes,
and all kolmex timings drift with it.  A `SpeedSampler` runs a short fixed
loop of stdlib work (no kolmex code) from a SIGALRM handler every PERIOD_S
seconds for as long as the batch runs, plus once at start and once at stop.
The mean loop time measures the speed over the batch; `scale()` maps the
batch's times to the speed at which one loop takes REFERENCE_NS.

The handler's own time is summed in `paused_ns`, so the timed calls can
leave it out.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
REFERENCE_NS = 1_500_000  # reported times are at the speed where one loop takes 1.5 ms


def reference_loop() -> int:
    """Fixed work mixing what kolmex does most: Fractions, dict and str churn."""
    acc, table, total = Fraction(0), {}, 0
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[str(i)] = i * i
        total += len(format(i, "b"))
    return total + acc.denominator


class SpeedSampler:
    def __init__(self):
        self.samples: list[int] = []
        self.paused_ns = 0

    def sample(self, *_):
        start = time.perf_counter_ns()
        reference_loop()
        end = time.perf_counter_ns()
        self.samples.append(end - start)
        self.paused_ns += end - start

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def reference_ns(self) -> float:
        return sum(self.samples) / len(self.samples)

    def scale(self) -> float:
        return REFERENCE_NS / self.reference_ns()
