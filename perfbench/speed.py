"""CPU clock of the benchmark process, and its calibration to a reference speed.

The machine the benchmark was tuned on runs the same code at speeds up to
1.7x apart, switching within a fraction of a second or staying in one state
for minutes, in CPU time as well as in wall time: the host shares the core.
Two steps take that out of the figures:

- Every timing is CPU time of the benchmark's thread, which leaves out the
  time the host takes the CPU away (steal). Thread time stays exact to the
  nanosecond while a process-wide CPU timer is armed; process time does not.
- While a round runs, a SIGPROF timer runs a short calibration loop every
  ``SAMPLE_EVERY_S`` of CPU time; the probes run it themselves before and
  after each stretch of timed steps. The loop never touches the library. A
  timed interval is rescaled by REFERENCE_S / (mean loop time of the
  samples taken during it and of the nearest sample on each side), so it
  reads as if the machine ran at the speed at which the loop takes
  REFERENCE_S. The sampler's own CPU time is taken out of ``clock()``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.00055  # loop CPU seconds at the reference speed: this machine's fast state
SAMPLE_EVERY_S = 0.01  # CPU seconds between timer samples


def calibration_loop(small: np.ndarray, wide: np.ndarray) -> float:
    """A fixed mix of the workloads' kinds of work, without the library.

    Interpreted Python and scalar numpy calls on ``small`` (24 entries), as in
    ``WlCusum.step`` and the trial loop, and now and then whole-array work on
    ``wide`` (G x (m + 1) = 1000 x 21), as in ``WlGlr.step`` on epi-counties.
    """
    acc = 0.0
    for i in range(300):
        small[i % 24] = i * 0.5
        acc += float(small.sum()) + (i & 7) * 1.5
        if i % 50 == 0:  # 6 of them
            np.maximum(wide, 1.0, out=wide)
            acc += float(wide.max())
    return acc


class Speedometer:
    """Samples a calibration loop while active (``with``) and rescales intervals."""

    def __init__(self):
        self.at: list[float] = []  # clock() at each sample
        self.cost: list[float] = []  # CPU seconds of the loop at each sample
        self.overhead = 0.0  # CPU seconds spent sampling
        self._sampling = False
        self._arrays = np.zeros(24), np.zeros((1000, 21))  # allocated once, outside the timing

    def clock(self) -> float:
        """CPU seconds of this thread, less the time spent sampling."""
        while True:
            overhead = self.overhead
            now = time.thread_time()
            if overhead == self.overhead:  # no sample ran in between
                return now - overhead

    def sample(self, *_):
        """Run the calibration loop once and record it (also the SIGPROF handler)."""
        if self._sampling:  # the timer fired during an explicit sample
            return
        self._sampling = True
        start = time.thread_time()
        calibration_loop(*self._arrays)
        end = time.thread_time()
        self.at.append(start - self.overhead)
        self.cost.append(end - start)
        self.overhead += time.thread_time() - start
        self._sampling = False

    def __enter__(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean loop time of the samples in and next to [start, end].

        The samples are those taken inside the interval and the nearest one on
        each side. Without samples the factor is 1.
        """
        if not self.at:
            return 1.0
        lo = max(bisect.bisect_left(self.at, start) - 1, 0)
        hi = min(bisect.bisect_right(self.at, end) + 1, len(self.at))
        return REFERENCE_S / statistics.fmean(self.cost[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """Seconds of the interval [start, end] at the reference speed."""
        return (end - start) * self.factor(start, end)
