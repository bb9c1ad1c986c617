"""A fixed CPU kernel, sampled while each operation runs, that tracks the
speed of the core the operation runs on.

The benchmark host's speed drifts by up to 1.7x (its cores are shared): a
kernel's seconds vary by 15-23% between quarter-second windows and stay
correlated for about two seconds, and the two cores drift almost
independently (correlation 0.2-0.4, even over 8 s windows).  That drift
dominates run-to-run spread.  Samples taken before and after an operation
miss the drift during an operation of several seconds, and a sampler on
another core misses this core's drift.  So while an operation runs, an
interval timer interrupts it every ``SAMPLE_PERIOD`` seconds, on the
thread that runs it, to time the kernel -- a few small single-threaded BLAS matmuls plus
an interpreter loop, the two kinds of work the program does.  The
operation's seconds exclude the time spent sampling (about 1%), and are
scaled to the reference speed by the mean speed the samples saw.  On
``verify`` and short training operations that took the within-run spread of
one operation's seconds from 0.15-0.20 to 0.05-0.09 (coefficient of
variation, 2-CPU x86-64 box); kernels timed before and after each operation
reached only 0.10-0.12.  The kernel is the benchmark's own code, so no
program change moves it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List

#: Seconds the kernel takes on the reference host (2-CPU x86-64, NumPy
#: 2.4.6, Python 3.11) when it runs at full speed.
CALIBRATION_REFERENCE = 0.0004

#: Seconds between two kernel samples while an operation runs.
SAMPLE_PERIOD = 0.05


@dataclass
class Timing:
    """Seconds of one timed region, and its factor to reference speed."""

    seconds: float = 0.0
    scale: float = 1.0
    samples: int = 0


class Calibration:
    """Times the kernel; :meth:`timing` samples it throughout a region."""

    def __init__(self):
        import numpy as np

        self._matrix = np.random.default_rng(0).normal(size=(128, 128))
        self.measure()  # the first BLAS call pays one-off set-up
        self._samples: List[float] = []
        self._overhead = 0.0

    def measure(self) -> float:
        start = time.perf_counter()
        for _ in range(3):
            self._matrix @ self._matrix
        total = 0
        for value in range(2000):
            total += value * value
        return time.perf_counter() - start

    @staticmethod
    def scale(samples: List[float]) -> float:
        """Factor from wall seconds to seconds at reference speed.

        Work done is time times speed, and speed is the inverse of the
        kernel's seconds, so the factor averages inverse samples.
        """

        return CALIBRATION_REFERENCE * statistics.fmean(1.0 / sample for sample in samples)

    def sample(self, seconds: float) -> float:
        """Run the kernel back to back for about ``seconds`` (at least once)
        and return the factor to reference speed."""

        samples: List[float] = []
        deadline = time.perf_counter() + seconds
        while not samples or time.perf_counter() < deadline:
            samples.append(self.measure())
        return self.scale(samples)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(self.measure())
        self._overhead += time.perf_counter() - start

    @contextmanager
    def timing(self):
        """Time the body, sampling the kernel every ``SAMPLE_PERIOD`` s.

        The yielded :class:`Timing` is filled in when the body ends, with
        one more sample taken then, so a short body has one too.  Forked
        children inherit no interval timer, so only this process samples.
        """

        timing = Timing()
        self._samples, self._overhead = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            samples = self._samples + [self.measure()]
            timing.seconds = elapsed - self._overhead
            timing.scale = self.scale(samples)
            timing.samples = len(samples)
