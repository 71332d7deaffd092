"""Cumulative drift (growth) functions and the diagnostics built on them.

For a model with per-observation KL increments kl(lag) = expected_llr(lag),
the growth function is

    g(n) = sum_{lag=0}^{n-1} kl(lag),   g(0) = 0,

the total drift the detection statistic accumulates over the first n
post-change observations. Detection delays behave like g^{-1}(threshold), so
window sizing and delay theory both run through the inverse, which is taken
over the piecewise-linear interpolation between the integer knots.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .models import _NONNEGATIVE, ObservationModel, _Range, _count

__all__ = [
    "GrowthCurve",
    "GrowthConditionReport",
    "Lemma1Report",
    "check_growth_condition",
    "lemma1_diagnostics",
]

# hard stop for inverse extension: far past any usable window, and past the
# 100k-step horizon that the largest default step cap reads
_SATURATION_CAP = 2**22


class GrowthCurve:
    """Lazily extended cache of cumulative KL increments for one model.

    Curves are not meant to be pickled; a plan carries the model and resolves
    growth-derived quantities (window, step cap) before dispatch to worker
    processes.
    """

    def __init__(self, model: ObservationModel):
        self._increments = model.expected_llr_lags
        # _cum[j] == g(j); index 0 is the empty sum
        self._cum = np.zeros(1)
        self._last_gain = math.inf  # what the last doubling in growth_inverse added
        self._warned_past_peak = False
        self._peak_lag = model.peak_lag

    def _warn_if_past_peak(self, n: int):
        if self._peak_lag is not None and n - 1 > self._peak_lag and not self._warned_past_peak:
            self._warned_past_peak = True
            warnings.warn(
                "growth evaluated past the wave peak: KL increments decay back "
                "toward zero there, so the cumulative drift saturates and the "
                "inverse becomes unreliable",
                RuntimeWarning,
                stacklevel=3,
            )

    def _extend_to(self, n: int):
        have = len(self._cum) - 1
        if n <= have:
            return
        lags = np.arange(have, n)
        inc = np.asarray(self._increments(lags), dtype=float)
        if np.any(inc < 0):
            raise ValueError("negative KL increment; growth must be nondecreasing")
        # one running sum from g(0), so no knot depends on where earlier queries stopped
        self._cum = np.concatenate([self._cum[:-1], np.cumsum(np.r_[self._cum[-1], inc])])

    def growth(self, n: int) -> float:
        """g(n), the cumulative expected LLR over the first n post-change steps."""
        n = _count("n", n, 0)
        self._warn_if_past_peak(n)
        self._extend_to(n)
        return float(self._cum[n])

    def growth_inverse(self, x: float) -> float:
        """Smallest real t with the interpolated g(t) >= x.

        On plateaus (consecutive knots with equal value, which happens where a
        KL increment is exactly zero) the largest t with g(t) == x is returned;
        this is the conservative choice for window sizing. A query at or past
        the total drift of a saturating curve raises ValueError.
        """
        x = _NONNEGATIVE.check("x", x)
        # extend until the cache passes x, so x sits left of the last knot; a
        # doubling that added next to nothing is not repeated for a later query
        while self._cum[-1] <= x:
            have = len(self._cum) - 1
            if self._last_gain > abs(x) * 1e-15:
                if max(64, 2 * have) > _SATURATION_CAP:
                    raise ValueError(
                        f"growth_inverse({x!r}): curve saturated near {float(self._cum[-1])!r} "
                        "without reaching the target"
                    )
                before = self._cum[-1]
                self._extend_to(max(64, 2 * have))
                self._last_gain = self._cum[-1] - before
            if self._last_gain <= abs(x) * 1e-15 and self._cum[-1] <= x:
                raise ValueError(
                    f"growth_inverse({x!r}): increments have decayed to nothing at "
                    f"n={len(self._cum) - 1} with g={float(self._cum[-1])!r}; the target "
                    "exceeds the total drift this model accumulates"
                )
        j = int(np.searchsorted(self._cum, x, side="right"))
        lo, hi = self._cum[j - 1], self._cum[j]
        if lo == x:
            j -= 1  # the last knot of the plateau at x
            t = float(j)
        else:
            # strictly increasing segment [j-1, j]; solve the linear piece exactly
            t = (j - 1) + (x - lo) / (hi - lo)
        # the answer rests on knot j, so warn as growth(j) would
        self._warn_if_past_peak(j)
        return t


@dataclass
class GrowthConditionReport:
    """log g^{-1}(x) / x over a log-spaced grid, plus the admissibility flag.

    The procedure's delay guarantees need log g^{-1}(x) to grow sublinearly in
    x; empirically that shows up as this ratio falling. `satisfied` is True
    when the ratio decreased monotonically over the top decade of the grid.
    A curve that saturates below x_max fails the condition: its grid stops
    before the first x at or past its total drift, and `satisfied` is False.
    """

    x: np.ndarray
    ratio: np.ndarray
    satisfied: bool
    x_max: float


def check_growth_condition(
    curve: GrowthCurve, x_max: float, points_per_decade: int = 10
) -> GrowthConditionReport:
    """Probe log g^{-1}(x)/x on a log grid up to x_max and flag the trend."""
    x_max = _Range(1).check("x_max", x_max)
    points_per_decade = _count("points_per_decade", points_per_decade, 1)
    decades = math.log10(x_max)
    num = max(2, round(points_per_decade * decades) + 1)
    xs = np.logspace(0.0, decades, num)
    inv = []
    for x in xs:
        try:
            inv.append(curve.growth_inverse(x))
        except ValueError:  # at or past the total drift of a saturating curve
            break
    xs = xs[: len(inv)]
    ratio = np.log(inv) / xs
    top = xs >= x_max / 10.0
    satisfied = len(xs) == num and bool(np.all(np.diff(ratio[top]) < 0))
    return GrowthConditionReport(x=xs, ratio=ratio, satisfied=satisfied, x_max=x_max)


@dataclass
class Lemma1Report:
    """Finite-horizon check of the two delay-theory sufficient conditions.

    variance_ratio[i] is sum of LLR variances over the first ns[i] post-change
    steps divided by g(ns[i])^2; the condition wants it tending to 0. The
    table stops at the last n where both sums are finite, so it can be
    shorter than asked for (the sums only grow, so the finite rows come first).
    time_shift_min is the minimum over hypothesis lags l and shifts d of
    E[Z_l under lag l+d] - E[Z_l under lag l]; nonnegative means later change
    points are never harder, the second condition. Lags that llr_terms pins
    (mean +inf under their own lag, so the shift is inf - inf) are left out
    and counted in pinned_lags.
    """

    ns: np.ndarray
    variance_ratio: np.ndarray
    time_shift_min: float
    pinned_lags: int = 0


def lemma1_diagnostics(
    model: ObservationModel, n_max: int, shift_max: int = 10
) -> Lemma1Report:
    n_max = _count("n_max", n_max, 2)
    shift_max = _count("shift_max", shift_max, 1)
    curve = GrowthCurve(model)
    variances = np.array([model.llr_variance(lag) for lag in range(n_max)])
    ns = np.arange(2, n_max + 1)
    g = np.array([curve.growth(n) for n in ns.tolist()])
    if np.any(g <= 0):
        raise ValueError("growth must be positive from n=2 for the variance ratio")
    with np.errstate(over="ignore"):
        spread, scale = np.cumsum(variances)[1:], g**2
    finite = int(np.count_nonzero(np.isfinite(spread) & np.isfinite(scale)))
    if finite == 0:
        raise ValueError("the LLR variance or g(n)^2 is infinite already at n=2")
    shift_min, pinned = math.inf, 0
    for lag in range(n_max):
        base = model.expected_llr_mismatch(lag, lag)
        if not math.isfinite(base):
            pinned += 1
            continue
        for d in range(1, shift_max + 1):
            shift = model.expected_llr_mismatch(lag, lag + d) - base
            if math.isnan(shift):
                raise FloatingPointError(f"time shift of lag {lag} by {d} is NaN")
            shift_min = min(shift_min, shift)
    return Lemma1Report(ns=ns[:finite], variance_ratio=spread[:finite] / scale[:finite],
                        time_shift_min=float(shift_min), pinned_lags=pinned)
