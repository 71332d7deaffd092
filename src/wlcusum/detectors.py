"""Sequential detectors built on one lag-ordered bank of change-point hypotheses.

Every detector keeps one cumulative log-likelihood-ratio sum lambda_{n,k} per
hypothesized change point k. All implemented models have LLR coefficients that
depend on (n, k) only through the lag n - k, so the sums are stored in lag
order, oldest first (the last entry is the newest hypothesis k = n), and one
vectorized multiply-add per step updates the whole bank. ``_LagBank`` owns
that array, its window, the coefficient tables from ``llr_terms``, the step
counter and the update, which Monte Carlo reuses to advance many trials'
banks at once, a step or a block of steps per call. The bank stops at the
model's first dead lag, where every coefficient column is pinned at slope 0
and intercept -inf: a hypothesis that old is -inf for any finite
observation and can never win again. ``_LagBank.step`` is every detector's
step: it advances the bank and reduces it by one argmax over all its
entries, lags and grid points at once, which gives the max, k* and
theta_hat. The detectors differ in their banks:

- ``WlCusum``: windowed to the newest m + 1 hypotheses, so per-step work is
  capped at O(m);
- ``FullCusum``: no window, the exact reference whose statistic cannot be
  simplified into a one-number recursion once the post-change family
  drifts with the lag. It costs O(n) per step, or O(first dead lag) on a
  model that has one (GEM);
- ``WlGlr``: windowed, with one column per theta grid point;
- ``SrStatistic``: the full bank, whose statistic is its log-sum-exp
  (Shiryaev-Roberts); k* still comes from the argmax.

Detectors remain steppable after an alarm: the alarm flag is reported per
step, and monitoring code decides whether to stop.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .models import ObservationModel, _count

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


# below its bound on |s| a bank keeps every entry under this, so no update overflows
_ROOM = float(np.finfo(float).max) / 4.0


def logsumexp(a) -> float:
    """log(sum(exp(a))) over every entry of a, summed in the order given.

    The arithmetic of ``scipy.special.logsumexp`` with its defaults, and so
    the same bits, without its array-API dispatch: the entries equal to the
    max are counted (m) and left out of the shifted sum s, the result is
    log1p(s / m) + log(m) + max, and the direct log(sum(exp(a))) stands in
    when that is not finite (an infinite or NaN max, or all -inf).
    """
    a = np.ascontiguousarray(a, dtype=float).ravel()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        top = a == a_max
        m = np.float64(np.count_nonzero(top))
        s = np.exp(np.where(top, -np.inf, a) - a_max).sum()
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return float(out)


class _LagBank:
    """LLR sums stored oldest first: of L entries on the first axis, entry i
    is hypothesis k = time - L + 1 + i, and the last is the newest, k = time.

    The bank is (L, 1) for a single model, or (L, 1, G) with one column per
    theta of ``grid``, whose tables come from one ``llr_terms`` call on the
    model with its theta replaced by the whole grid. The unit
    axis is the trial axis: a lockstep Monte Carlo chunk holds (L, T[, G]) for
    T trials and advances it with the same ``_advance`` as a detector's own
    step. The coefficient tables run in the same order, lag cap - 1 first and
    lag 0 last, so a bank of L entries lines up with their last L rows.

    A lockstep batch whose bank has no grid and a fixed cap can also advance
    through a block of already drawn steps in one ``_scan``: a fixed number
    of numpy calls per block instead of a few per step, and the same bits.
    Its lag-major block costs cap * (cap + B) entries for B steps, against
    cap * B for B single steps, so Monte Carlo takes it only for small caps
    (see ``montecarlo``); with a grid axis it measured slower than stepping.

    With window=None the bank keeps every hypothesis since the last reset and
    doubles its coefficient tables as the history outgrows them; otherwise
    hypotheses older than the window are evicted, so L <= window + 1. Either
    way the bank stops at the first dead lag, the first lag whose terms are
    pinned at slope 0 and intercept -inf in every column (GEM pins a lag once
    its terms overflow, and every later lag too). From there on a hypothesis
    is -inf for any finite observation and never wins again, so the bank
    evicts it instead of adding to it: L is at most the first dead lag, a
    full-history bank becomes a window-limited one, and a +inf entry from a
    live lag never meets a -inf intercept. ``window`` keeps the caller's
    value.

    Past a bound on |s| set with each table build, an entry may overflow to
    +-inf, which is a valid statistic. This guard serves ``step``: from the
    first such s until reset the bank steps with overflow warnings off; below
    it no update can overflow, and the step pays for one comparison instead.
    A Monte Carlo walk needs no guard: it runs every advance under one error
    scope of its own.
    """

    _points = (None,)  # theta_hat of each bank column: none without a grid

    def __init__(self, model: ObservationModel, threshold: float, window: int | None, grid=None):
        self.model = model
        self.threshold = float(threshold)
        if math.isnan(self.threshold):  # a NaN b never alarms; +-inf are valid
            raise ValueError(f"threshold must be a number or +-inf, got {threshold}")
        self.window = window
        # answers llr_terms for every column at once
        self._terms = model if grid is None else model.with_theta(grid)
        self._shape = () if grid is None else (len(grid),)
        self._grows = window is None
        self._cap = 64 if window is None else window + 1
        self._load_terms()
        self.reset()

    def _load_terms(self, lam=None):
        """Coefficient tables for lags 0 .. cap - 1 and the overflow bound on |s|.

        lam is the bank the tables are grown for, None when there is none yet.
        """
        # (cap, G) tables in lag order, one column per grid point (G = 1 without one); a
        # grid's call is its check, as a point model's at lags 0 and 1 is when it is built
        terms = self._terms._finite_terms if self._shape else self._terms.llr_terms
        slopes, intercepts = terms(np.arange(self._cap)[:, None])
        pinned = intercepts.min() == -np.inf
        if pinned:  # else no lag is pinned, at one pass's cost
            dead = ((slopes == 0.0) & (intercepts == -np.inf)).all(axis=1)
            if dead.any():
                self._cap, self._grows = int(dead.argmax()), False
        shape = (self._cap, 1, *self._shape)
        self._slopes = np.ascontiguousarray(slopes[self._cap - 1 :: -1]).reshape(shape)
        self._intercepts = np.ascontiguousarray(intercepts[self._cap - 1 :: -1]).reshape(shape)
        # -0.0 -> +0.0: a new hypothesis is 0 + Z, never -0.0 (GEM's lag-0 intercept is -0.0)
        self._intercepts[-1] += 0.0
        # An entry gains at most cap more terms, each at most max|slope| |s| +
        # max|intercept| (a pinned -inf cannot overflow), on top of what it
        # holds now; below this |s| they all stay under _ROOM. Python floats
        # give +-inf where the division overflows, NaN (never) for a NaN slope.
        live = self._intercepts[self._intercepts > -np.inf] if pinned else self._intercepts
        held = 0.0 if lam is None else float(np.abs(lam).max(initial=0.0))
        room = (_ROOM - held) / self._cap - float(np.abs(live).max(initial=0.0))
        self._s_safe = room / max(float(np.abs(self._slopes).max()), math.ulp(0.0))

    def reset(self):
        self.time = 0
        self._lam = np.empty((0, 1, *self._shape))
        self._hot = False  # set by the first |s| past _s_safe

    def _advance(self, lam: np.ndarray, s) -> np.ndarray:
        """Append the hypothesis k = n to (L, T[, G]) banks and add Z(s; lag) to every entry.

        s is one sufficient statistic, or one per trial shaped (T[, 1]). The
        result is one new array: Z = slope * s + intercept at every lag, plus
        the old bank at lags 1 and up. The last entry, the new hypothesis, is
        Z alone, bit-equal to 0 + Z because the lag-0 intercept is stored as
        +0.0. Evicts past the window or the first dead lag, or grows the
        shared coefficient tables; a full bank takes the whole tables, with no
        slicing. The bank's own entries and clock are left alone.
        """
        if len(lam) == self._cap:
            if self._grows:
                self._cap *= 2
                self._load_terms(lam)  # may find the first dead lag at the old cap
            if len(lam) == self._cap:
                lam = lam[1:]  # evict the oldest hypothesis
        slopes, intercepts = self._slopes, self._intercepts
        if len(lam) + 1 < self._cap:  # not full: the kept hypotheses' lags, then lag 0
            slopes, intercepts = slopes[-1 - len(lam):], intercepts[-1 - len(lam):]
        z = slopes * s
        z += intercepts
        z[:-1] += lam
        return z

    def _scan(self, lam: np.ndarray, stats: np.ndarray, narrow=()) -> tuple[np.ndarray, np.ndarray]:
        """Advance an (L, T) bank through the (R, T) finite statistics of R steps at once.

        For a bank with no grid and a fixed cap. narrow holds ascending spans
        below cap; with cap last they are the columns. Returns, after each
        step, the bank's max over its newest span lags for each column, (R,
        len(narrow) + 1, T), and the bank after the last step, cut to its
        newest cap - 1 entries: the oldest is evicted by the next step anyway.
        Every entry gets the operations ``_advance`` gives it, in the same
        order, so both agree bit for bit.

        The block is one lag-major X of shape (cap, H, T), with H = Lc + R
        hypotheses: the Lc carried ones, then one per step. X[l, i] =
        slope(l) * s + intercept(l), where s is the statistic hypothesis i
        meets at lag l, read from a Hankel view of the zero-padded block.
        Carried entry i is written at its own lag, and the rows below it are
        never added in. Then cap - 1 row adds X[l] += X[l - 1] make each
        hypothesis its running sum, as the per-step += does. Step j reads the
        anti-diagonal X[l, Lc + j - l], and a column its first span lags. In
        a trial's first steps the lags past its first hypothesis are left
        out: every column wider than the lags held takes the max over them all.
        """
        cap = self._cap
        steps, trials = stats.shape
        carried = min(len(lam), cap - 1)
        h = carried + steps
        padded = np.zeros((cap - 1 + h, trials))
        padded[carried:h] = stats
        item = padded.itemsize
        hankel = as_strided(padded, (cap, h, trials), (trials * item, trials * item, item),
                            writeable=False)
        x = self._slopes[::-1, :, None] * hankel  # lag 0 first
        x += self._intercepts[::-1, :, None]
        diagonal = np.arange(carried)
        x[carried - 1 - diagonal, diagonal] = lam[len(lam) - carried :]
        for l in range(1, cap):
            first = max(0, carried - l)  # carried column i is added from lag carried - i on
            x[l, first:] += x[l - 1, first:]
        # view[l, j] = X[l, carried + j - l]: lag l of the bank after step j
        view = as_strided(x.ravel()[carried * trials :], (cap, steps, trials),
                          ((h - 1) * trials * item, trials * item, item), writeable=False)
        spans = (*narrow, cap)
        maxima = np.empty((len(spans), steps, trials))
        for column, span in zip(maxima, spans):
            view[:span].max(axis=0, out=column)
        for j in range(min(steps, cap - 1 - carried)):  # fewer than cap hypotheses yet
            held = carried + j + 1
            maxima[bisect_right(spans, held) :, j] = view[:held, j].max(axis=0)
        bank = view[: min(cap - 1, h), steps - 1][::-1].copy()
        return maxima.transpose(1, 0, 2), bank

    def step(self, x: float) -> DetectorOutput:
        """Advance the bank by one observation and report its max against the threshold.

        One argmax over the whole (L, 1[, G]) bank: its first maximiser in C
        order is the oldest lag, so ties go to the smallest k, and then the
        first grid point. The empty hypothesis (value 0, k = n + 1) wins only
        when every real hypothesis is strictly negative. A NaN (+inf met -inf
        in some entry) is the first maximiser whenever there is one, and
        raises FloatingPointError: it is neither an alarm nor "no change".
        """
        s = self.model.sufficient_stat(x)  # raises off-support, state unchanged
        if self._hot or not abs(s) < self._s_safe:  # strict: s = +-inf is guarded at bound +inf
            self._hot = True
            with np.errstate(over="ignore", invalid="ignore"):  # a NaN raises below
                lam = self._advance(self._lam, s)
        else:
            lam = self._advance(self._lam, s)
        self._lam = lam
        self.time = n = self.time + 1
        i = int(lam.argmax())
        best = lam.item(i)
        if best < 0.0:
            return DetectorOutput(n, 0.0, 0.0 >= self.threshold, n + 1)
        if math.isnan(best):
            raise FloatingPointError(f"NaN in the hypothesis bank at step {n}")
        row, column = divmod(i, len(self._points))
        return DetectorOutput(n, best, best >= self.threshold, n - len(lam) + 1 + row,
                              self._points[column])


class WlCusum(_LagBank):
    """Window-limited CuSum: max over hypotheses k in {max(1, n-m) .. n}.

    Per-step cost is O(window). With threshold b = |ln alpha| the mean time to
    false alarm is at least e^b regardless of the window size.
    """

    def __init__(self, model: ObservationModel, threshold: float, window: int):
        super().__init__(model, threshold, _count("window", window, 0))

    def hypotheses(self) -> list[tuple[int, float]]:
        """Active (k, lambda_{n,k}) pairs, newest hypothesis first."""
        n = self.time
        return [(n - lag, float(v)) for lag, v in enumerate(self._lam[::-1, 0])]

    step = _LagBank.step


class FullCusum(_LagBank):
    """Full-history CuSum: max over every hypothesis k in {1 .. n}.

    O(n) per step and O(n) memory, the exact reference the window-limited
    detector approximates from below; intended for desk-scale runs and tests.
    On a model with a dead lag d (GEM) it is exactly WlCusum with m = d - 1,
    in O(d) time and memory per step.
    """

    def __init__(self, model: ObservationModel, threshold: float):
        super().__init__(model, threshold, None)

    hypotheses = WlCusum.hypotheses
    step = _LagBank.step


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
    if np.ndim(counts) == 0:
        counts = [counts] * d
    if len(counts) != d:
        raise ValueError(f"counts must give one count for each of {d} dimensions, got {counts!r}")
    counts = [_count("counts", c, 1) for c in counts]
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
        grid = np.array(grid, dtype=float)
        if grid.ndim == 0 or grid.shape[1:] != np.shape(model.theta):
            raise ValueError(f"grid must be a (G,) or (G, d) array of theta points, d as in the "
                             f"model's theta; got shape {grid.shape}")
        if not len(grid):
            raise ValueError("grid must contain at least one theta point")
        self.grid = grid
        # theta_hat as a float or a tuple of floats, without a numpy row per step
        points = grid.tolist()
        self._points = points if grid.ndim == 1 else list(map(tuple, points))
        super().__init__(model, threshold, _count("window", window, 0), grid)

    step = _LagBank.step


class SrStatistic(_LagBank):
    """Shiryaev-Roberts statistic R_n = sum over k <= n of exp(lambda_{n,k}).

    Kept in the log domain so overflow cannot corrupt the accumulation.
    Under the pre-change law, E[R_n] = n exactly, which makes this the
    Monte-Carlo oracle backing the false-alarm calibration. Full history,
    desk-scale use. The sum runs newest hypothesis first, the order its
    pairwise summation has always had, so its bits do not change.
    """

    def __init__(self, model: ObservationModel, threshold: float = math.inf):
        super().__init__(model, threshold, None)

    @property
    def log_value(self) -> float:
        if len(self._lam) == 0:
            return -math.inf  # R_0 = 0
        return float(logsumexp(self._lam[::-1]))

    @property
    def value(self) -> float:
        """R_n itself: +inf where exp(log R_n) overflows a float."""
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf

    def step(self, x: float) -> DetectorOutput:
        out = _LagBank.step(self, x)  # k_star from the max, as for CuSum
        out.statistic = self.value
        out.alarm = out.statistic >= self.threshold
        return out


def run_until_alarm(detector, observations, max_steps: int | None = None) -> StoppingRecord:
    """Feed observations until the first alarm.

    Steps are counted from this call, so pass a freshly built (or reset)
    detector for stopping-time semantics. A nonpositive threshold alarms on
    the first observation since the statistics are nonnegative. censored=True
    means the stream ran out (or max_steps was hit) without an alarm.
    """
    if max_steps is not None:
        max_steps = _count("max_steps", max_steps, 1)
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
