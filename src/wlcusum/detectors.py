"""Sequential detectors built on one lag-ordered bank of change-point hypotheses.

Every detector keeps one cumulative log-likelihood-ratio sum lambda_{n,k} per
hypothesized change point k. All implemented models have LLR coefficients that
depend on (n, k) only through the lag n - k, so the sums are stored in lag
order (entry 0 is the newest hypothesis k = n) and one vectorized multiply-add
per step updates the whole bank. ``_LagBank`` owns that array, its window, the
coefficient tables from ``llr_terms``, the step counter and the update, which
Monte Carlo reuses to advance many trials' banks at once; each detector is
the bank plus a reduction:

- ``WlCusum``: the bank windowed to the newest m + 1 hypotheses, reduced by
  the max, so per-step work is capped at O(m);
- ``FullCusum``: the same bank with no window, the exact O(n) reference whose
  statistic cannot be simplified into a one-number recursion once the
  post-change family drifts with the lag;
- ``WlGlr``: a windowed bank with one column per theta grid point, reduced
  by the max over lags and grid points;
- ``SrStatistic``: the full bank reduced by log-sum-exp (Shiryaev-Roberts).

Detectors remain steppable after an alarm: the alarm flag is reported per
step, and monitoring code decides whether to stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .models import ObservationModel

__all__ = [
    "DetectorOutput",
    "StoppingRecord",
    "WlCusum",
    "FullCusum",
    "WlGlr",
    "SrStatistic",
    "theta_grid",
    "run_until_alarm",
]


@dataclass
class DetectorOutput:
    """One step's result.

    k_star is the hypothesized change point achieving the max (ties broken
    toward the smallest k); when every hypothesis is negative the empty
    "no change yet" hypothesis wins and k_star = time + 1. theta_hat is the
    maximizing grid point for GLR detectors, None elsewhere.
    """

    time: int
    statistic: float
    alarm: bool
    k_star: int
    theta_hat: float | tuple | None = None


@dataclass
class StoppingRecord:
    """Outcome of running a detector over a stream until its first alarm."""

    time: int
    censored: bool
    statistic: float


def _bank_argmax(lam: np.ndarray, n: int) -> tuple[float, int]:
    """Max over a lag-ordered bank with smallest-k tie-breaking.

    Returns (statistic, k_star) where statistic = max(0, max lambda). The
    empty hypothesis (value 0, index n+1) wins only when every real
    hypothesis is strictly negative. A NaN max (+inf met -inf in some entry)
    raises FloatingPointError: it is neither an alarm nor "no change".
    """
    best = float(lam.max())
    if best < 0.0:
        return 0.0, n + 1
    if math.isnan(best):
        raise FloatingPointError(f"NaN in the hypothesis bank at step {n}")
    # smallest k == largest lag; ties resolved toward the oldest hypothesis
    i = int(np.flatnonzero(lam == best)[-1])
    return best, n - i


class _LagBank:
    """Lag-ordered LLR sums: entry i on the first axis is hypothesis k = time - i.

    The bank is (L, 1) for a single model, or (L, 1, G) with one column per
    theta of ``grid`` (each built by overriding the model's theta). The unit
    axis is the trial axis: a lockstep Monte Carlo chunk holds (L, T[, G]) for
    T trials and advances it with the same ``_advance`` as a detector's own
    step. With window=None the bank keeps every hypothesis since the last
    reset and doubles its coefficient tables as the history outgrows them;
    otherwise hypotheses older than the window are evicted, so L <= window + 1.
    """

    def __init__(self, model: ObservationModel, threshold: float, window: int | None, grid=None):
        if window is not None and window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self.model = model
        self.threshold = float(threshold)
        self.window = window
        self._models = [model] if grid is None else [model.with_theta(t) for t in grid]
        self._shape = () if grid is None else (len(self._models),)
        self._cap = 64 if window is None else window + 1
        self._load_terms()
        self.reset()

    def _load_terms(self):
        lags = np.arange(self._cap)
        slopes, intercepts = zip(*(m.llr_terms(lags) for m in self._models))
        shape = (self._cap, 1, *self._shape)
        self._slopes = np.ascontiguousarray(np.transpose(slopes), dtype=float).reshape(shape)
        self._intercepts = np.ascontiguousarray(np.transpose(intercepts), dtype=float).reshape(shape)
        # -0.0 -> +0.0: a new hypothesis is 0 + Z, never -0.0 (GEM's lag-0 intercept is -0.0)
        self._intercepts[0] += 0.0

    def reset(self):
        self.time = 0
        self._lam = np.empty((0, 1, *self._shape))

    def _advance(self, lam: np.ndarray, s) -> np.ndarray:
        """Prepend the hypothesis k = n to (L, T[, G]) banks and add Z(s; lag) to every entry.

        s is one sufficient statistic, or one per trial shaped (T[, 1]). The
        result is one new array: Z = slope * s + intercept at every lag, plus
        the old bank at lags 1 and up. Entry 0, the new hypothesis, is Z
        alone, bit-equal to 0 + Z because the lag-0 intercept is stored as
        +0.0. Evicts past the window, or grows the shared coefficient tables;
        the bank's own entries and clock are left alone.
        """
        keep = len(lam)
        if keep == self._cap:
            if self.window is not None:
                keep -= 1  # evict the oldest hypothesis
            else:
                self._cap *= 2
                self._load_terms()
        z = self._slopes[: keep + 1] * s
        z += self._intercepts[: keep + 1]
        z[1:] += lam[:keep]
        return z

    def _push(self, x: float) -> np.ndarray:
        """Advance this bank by one observation; returns the (L, 1[, G]) bank."""
        s = self.model.sufficient_stat(x)  # raises off-support, state unchanged
        self._lam = lam = self._advance(self._lam, s)
        self.time += 1
        return lam

    def _output(self, statistic: float, k_star: int, theta_hat=None) -> DetectorOutput:
        """Report this step's reduced statistic against the threshold."""
        return DetectorOutput(self.time, statistic, statistic >= self.threshold, k_star, theta_hat)


class WlCusum(_LagBank):
    """Window-limited CuSum: max over hypotheses k in {max(1, n-m) .. n}.

    Per-step cost is O(window). With threshold b = |ln alpha| the mean time to
    false alarm is at least e^b regardless of the window size.
    """

    def __init__(self, model: ObservationModel, threshold: float, window: int):
        super().__init__(model, threshold, int(window))

    def hypotheses(self) -> list[tuple[int, float]]:
        """Active (k, lambda_{n,k}) pairs, newest hypothesis first."""
        n = self.time
        return [(n - lag, float(v)) for lag, v in enumerate(self._lam[:, 0])]

    def step(self, x: float) -> DetectorOutput:
        return self._output(*_bank_argmax(self._push(x), self.time))


class FullCusum(_LagBank):
    """Full-history CuSum: max over every hypothesis k in {1 .. n}.

    O(n) per step and O(n) memory; the exact reference the window-limited
    detector approximates from below. Intended for desk-scale runs and tests.
    """

    def __init__(self, model: ObservationModel, threshold: float):
        super().__init__(model, threshold, None)

    hypotheses = WlCusum.hypotheses
    step = WlCusum.step


def theta_grid(bounds, counts) -> np.ndarray:
    """Evaluation grid over a parameter box, cell midpoints per dimension.

    bounds: (lo, hi) for a scalar parameter or a sequence of (lo, hi) pairs.
    counts: points per dimension (int, or one int per dimension). Returns a
    (G,) array for one dimension, else a (G, d) array whose rows are in
    lexicographic order (so first-index argmax picks the smallest theta).
    Midpoints keep open-interval boxes honest: neither endpoint is a point.
    """
    arr = np.asarray(bounds, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, 2)
        scalar = True
    else:
        scalar = False
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"bounds must be (lo, hi) or a sequence of pairs, got {bounds!r}")
    d = arr.shape[0]
    if np.isscalar(counts) or isinstance(counts, (int, np.integer)):
        counts = [int(counts)] * d
    counts = [int(c) for c in counts]
    if len(counts) != d or any(c < 1 for c in counts):
        raise ValueError(f"counts must give >= 1 points per dimension, got {counts!r}")
    axes = []
    for (lo, hi), c in zip(arr, counts):
        if not (lo < hi):
            raise ValueError(f"need lo < hi in every dimension, got ({lo}, {hi})")
        axes.append(lo + (np.arange(c) + 0.5) * (hi - lo) / c)
    if scalar:
        return axes[0]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


class WlGlr(_LagBank):
    """Window-limited GLR-CuSum: max over hypotheses and a grid of theta.

    The post-change parameter is unknown inside a box; each grid point gets its
    own column of the LLR bank and the statistic is the max over grid points and
    hypotheses. Per-step cost O(window * grid).
    """

    def __init__(self, model: ObservationModel, threshold: float, window: int, grid):
        grid = np.asarray(grid, dtype=float)
        if grid.ndim == 1:
            points = [float(t) for t in grid]
        elif grid.ndim == 2:
            points = [tuple(float(v) for v in row) for row in grid]
        else:
            raise ValueError("grid must be a (G,) or (G, d) array of theta points")
        if not points:
            raise ValueError("grid must contain at least one theta point")
        self.grid = points
        super().__init__(model, threshold, int(window), points)

    def step(self, x: float) -> DetectorOutput:
        lam = self._push(x)
        n = self.time
        statistic, k_star = _bank_argmax(lam.max(axis=2), n)
        theta_hat = None
        if k_star <= n:
            # grid points are lexicographically ordered; argmax takes the first
            theta_hat = self.grid[int(np.argmax(lam[n - k_star, 0]))]
        return self._output(statistic, k_star, theta_hat)


class SrStatistic(_LagBank):
    """Shiryaev-Roberts statistic R_n = sum over k <= n of exp(lambda_{n,k}).

    Kept in the log domain so overflow cannot corrupt the accumulation.
    Under the pre-change law, E[R_n] = n exactly, which makes this the
    Monte-Carlo oracle backing the false-alarm calibration. Full history,
    desk-scale use.
    """

    def __init__(self, model: ObservationModel, threshold: float = math.inf):
        super().__init__(model, threshold, None)

    @property
    def log_value(self) -> float:
        if len(self._lam) == 0:
            return -math.inf  # R_0 = 0
        return float(logsumexp(self._lam))

    @property
    def value(self) -> float:
        log_value = self.log_value
        return math.exp(min(log_value, 709.0)) if log_value < math.inf else math.inf

    def step(self, x: float) -> DetectorOutput:
        lam = self._push(x)
        return self._output(self.value, _bank_argmax(lam, self.time)[1])


def run_until_alarm(detector, observations, max_steps: int | None = None) -> StoppingRecord:
    """Feed observations until the first alarm.

    Steps are counted from this call, so pass a freshly built (or reset)
    detector for stopping-time semantics. A nonpositive threshold alarms on
    the first observation since the statistics are nonnegative. censored=True
    means the stream ran out (or max_steps was hit) without an alarm.
    """
    if max_steps is not None:
        max_steps = int(max_steps)
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    steps = 0
    statistic = 0.0
    for x in observations:
        out = detector.step(x)
        steps += 1
        statistic = out.statistic
        if out.alarm:
            return StoppingRecord(time=steps, censored=False, statistic=statistic)
        if max_steps is not None and steps >= max_steps:
            break
    return StoppingRecord(time=steps, censored=True, statistic=statistic)
