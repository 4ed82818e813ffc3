"""How fast this machine runs Python at the moment, from a fixed reference
loop timed between the benchmark's jobs.

The benchmark runs on a shared host whose speed changes by a third or more
within minutes and differs between its CPUs, so raw times of runs taken
minutes apart differ more than any bound worth keeping.  The loop is timed
next to the work, on the same CPU (in the same process, or in the parent
between child processes), and the job time between two samples is scaled
by REFERENCE_S over their mean: the result is seconds at a fixed machine
speed.  The loop uses only the standard library, so no change to homlie
moves it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The loop's typical time on the machine the benchmark was written on (two
# vCPUs of a shared x86-64 host, Python 3.11.7).  It fixes the scale of the
# scaled times; any constant would do, as long as it never changes.
REFERENCE_S = 0.04
# One sample per this much job time: sampling adds about 8%.
INTERVAL_S = 0.5
# Samples taken before and after a worker's set-up, to scale it by.
SETUP_SAMPLES = 3
SIZE = 9
ROUNDS = 13


def reference_loop() -> float:
    """Seconds one run of the loop takes now: exact elimination of a fixed
    rational matrix, the kind of work homlie spends its time on."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        rows = [[Fraction((i + 1) * (j + 2) + i * i, j + i + 1) for j in range(SIZE + 1)] for i in range(SIZE)]
        for col in range(SIZE):
            pivot = rows[col][col]
            rows[col] = [x / pivot for x in rows[col]]
            for r in range(SIZE):
                if r != col and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return time.perf_counter() - start


class Gauge:
    """Times the reference loop between jobs, at most once per `interval`
    seconds of job time, and scales the job time between two samples by
    their mean."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []  # every sample taken, for the summary
        self._open: list[float] = []  # samples since the last close
        self._segments: list[float] = []  # job seconds between them
        self._since = 0.0

    def _sample(self) -> None:
        if self._open:
            self._segments.append(self._since)
        t = reference_loop()
        self._open.append(t)
        self.samples.append(t)
        self._since = 0.0

    def before_job(self) -> None:
        if not self._open or self._since >= self.interval:
            self._sample()

    def after_job(self, seconds: float) -> None:
        self._since += seconds

    def close(self) -> list[float]:
        """The job time since the last close, per segment between two
        samples, scaled; ends the segment with a sample."""
        self._sample()
        out = [
            seconds * REFERENCE_S / ((a + b) / 2)
            for seconds, a, b in zip(self._segments, self._open, self._open[1:])
        ]
        self._open, self._segments = [], []
        return out


def scaled(seconds: float, samples: list[float]) -> float:
    """seconds at the speed where the loop takes REFERENCE_S on average
    over samples."""
    return seconds * REFERENCE_S / statistics.mean(samples)
