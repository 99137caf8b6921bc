"""Machine-speed samples taken while a pass runs.

The machines this benchmark runs on are shared, and their speed drifts
by up to a factor of two over seconds to minutes as neighbours come and
go: the same pass took 12 s at one moment and 20 s a few minutes later.
While a pass runs, a timer interrupts it every INTERVAL_S and times a
fixed piece of work on stdlib fractions that shares no code with nalg.
The time the samples take is taken out of the job they interrupted, and
``job_factor`` rescales each job's time to a machine on which one sample
takes REFERENCE_S.  Rescaled, the pass above reads within 2% across
that drift.  Two commits measured on one machine are compared in the
same units, so the rescaling removes the drift and nothing else.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
REFERENCE_S = 0.001
JOB_SAMPLES = 10


def sample():
    """Seconds taken by a fixed mix of rational arithmetic and list
    indexing, with GC paused so that the heap around it does not matter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rows = [[Fraction(i - 3, j + 1) for j in range(6)] for i in range(6)]
        acc = Fraction(0)
        for i in range(150):
            row = rows[i % 6]
            acc = acc + row[(i * 7) % 6] * row[i % 6] - Fraction(1, 3)
            if acc.denominator > 10**9:
                acc = Fraction(1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Samples on SIGALRM while active; ``spent`` is the time the samples
    took, so a caller can take it out of what it timed."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def take(self, count):
        """Sample directly, outside any timed region."""
        self.samples += [sample() for _ in range(count)]

    def factor(self):
        """REFERENCE_S over the mean of all samples."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)

    def job_factor(self, first, stop):
        """The factor of the samples taken during one job, samples[first:
        stop], when there are at least JOB_SAMPLES of them; a shorter job
        gets the factor of all samples."""
        during = self.samples[first:stop]
        if len(during) < JOB_SAMPLES:
            return self.factor()
        return REFERENCE_S * len(during) / sum(during)
