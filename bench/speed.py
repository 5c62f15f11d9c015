"""Machine speed sampled inside a timed span, to put wall times on one scale.

The reference machine is shared with other work: the same span of pfsaddle
takes from 1x to 1.5x its best wall time, and the level drifts over minutes
(see README.md, Steadiness).  Timing longer spans or taking medians does not
remove a drift that lasts longer than a run.  So while a span is timed,
SIGALRM fires every PERIOD_S seconds of wall time and runs `kernel`, a fixed
Python loop and small numpy products like those of the program's hot paths,
and records how long the kernel took.  The kernel runs on the same core, in
the same moments, as the span it samples, so it slows down with it.

A span's time at reference speed is its wall time minus the kernel's own
time, times REFERENCE_KERNEL_S over the kernel's typical time in the span:
the mean of its fastest KEPT share of samples.  The slowest samples are
those that a context switch or a page fault happened to hit, and one of
them can weigh more than a hundred ordinary ones.

A change to pfsaddle does not change the kernel, so a program that becomes
20 % faster reads 20 % faster; only the machine's share of the spread is
divided out.  What remains is the kernel's own sensitivity to the program
around it (cache contents), which is a few per cent.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.01
# Typical kernel time inside a paper-m8 grid on the reference machine
# (README.md, Reference figures); it fixes the scale, not the ratios.
REFERENCE_KERNEL_S = 1.1e-4
KEPT = 0.9
# A span shorter than this many periods is topped up with kernel runs
# right after it.
MIN_SAMPLES = 5

_MATRIX = np.full((16, 16), 0.01)


def kernel() -> float:
    """Fixed work: a Python loop and fifteen 16x16 products, about 0.1 ms."""
    total = 0.0
    for i in range(300):
        total += i * 0.5
    a = _MATRIX
    for _ in range(15):
        a = np.tanh(a @ a) + 0.01
    return total + float(a[0, 0])


class Probe:
    """Times spans and samples the machine's speed inside them."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def time(self, fn, *args, **kwargs) -> tuple:
        """(fn's result, seconds at reference speed, wall seconds)."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        busy = sum(self.samples)
        while len(self.samples) < MIN_SAMPLES:
            self._sample()
        kept = sorted(self.samples)[:max(1, int(KEPT * len(self.samples)))]
        scale = REFERENCE_KERNEL_S * len(kept) / sum(kept)
        return result, (wall - busy) * scale, wall
