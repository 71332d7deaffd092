"""Threshold and window calibration against a false-alarm-rate target.

Two threshold rules are provided. For the window-limited CuSum, a threshold of
b = |ln alpha| guarantees mean time to false alarm at least e^b = 1/alpha (a
martingale argument; see montecarlo.estimate_mtfa for the empirical check).
For the window-limited GLR with a d-dimensional parameter box Theta, b solves

    b - (epsilon * d / 2) * ln b = 1 + ln(|Theta| / C_d) + |ln alpha|,

where C_d is the d-dimensional unit-ball volume and epsilon bounds how far the
per-observation drift can wander across Theta. The largest root is taken.

Window sizes come from the growth inverse: the window must cover the number of
post-change steps needed to accumulate |ln alpha| worth of drift, padded by a
safety factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .growth import GrowthCurve
from .models import _NONNEGATIVE, _POSITIVE, _Range, _count

__all__ = [
    "CalibrationError",
    "GlrThresholdInputs",
    "cusum_threshold",
    "unit_ball_volume",
    "glr_threshold",
    "glr_threshold_residual",
    "window_size",
    "gem_epsilon",
]


class CalibrationError(RuntimeError):
    """No usable threshold exists for the requested configuration."""


def _brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of f in [a, b] by Brent's method, step for step as ``scipy.optimize.brentq``.

    The loop of scipy's C ``brentq``: keep the root between the current point
    and the block point, take the interpolated (secant or inverse quadratic)
    step when it is short enough and bisect otherwise. No step is shorter
    than delta = (xtol + rtol*|x|)/2, and the loop gives up after scipy's
    default 100 iterations. It gives the same bits as scipy, which keeps
    ``scipy.optimize`` off the import path.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets an inf or NaN step here, and so bisects
                stry = math.nan
            # C's 2|stry| < MIN(|spre|, 3|sbis| - delta), false when either side is NaN
            if 2 * abs(stry) < abs(spre) and 2 * abs(stry) < 3 * abs(sbis) - delta:
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise CalibrationError(f"Failed to converge after 100 iterations, value is {xcur}.")


_ALPHA = _Range(0, 1)


def cusum_threshold(alpha: float) -> float:
    """Threshold b = |ln alpha| giving mean time to false alarm >= 1/alpha."""
    return -math.log(_ALPHA.check("alpha", alpha))


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball in R^dim: pi^{d/2} / Gamma(1 + d/2)."""
    dim = _count("dim", dim, 1)
    try:
        return math.pi ** (dim / 2.0) / math.gamma(1.0 + dim / 2.0)
    except OverflowError:
        raise ValueError(f"dim={dim} is too large: Gamma(1 + dim/2) overflows a float") from None


@dataclass(frozen=True)
class GlrThresholdInputs:
    alpha: float
    theta_volume: float
    dim: int
    epsilon: float

    def solve(self) -> float:
        return glr_threshold(self.alpha, self.theta_volume, self.dim, self.epsilon)


def glr_threshold(alpha: float, theta_volume: float, dim: int, epsilon: float) -> float:
    """Largest root b of b - (eps*d/2) ln b = 1 + ln(|Theta|/C_d) + |ln alpha|.

    Raises CalibrationError when the equation has no root with b > 1, which
    happens when epsilon (or alpha) is too large for the parameter box.
    """
    alpha = _ALPHA.check("alpha", alpha)
    theta_volume = _POSITIVE.check("theta_volume", theta_volume)
    epsilon = _NONNEGATIVE.check("epsilon", epsilon)
    dim = _count("dim", dim, 1)
    c = epsilon * dim / 2.0
    rhs = 1.0 + math.log(theta_volume / unit_ball_volume(dim)) - math.log(alpha)
    if c == 0.0:
        b = rhs
    else:
        f = lambda b: b - c * math.log(b) - rhs
        # f is increasing for b >= c; the largest root lives on that branch
        lo = max(c, rhs, 1.0)
        if f(lo) > 0.0:
            raise CalibrationError(
                f"threshold equation has no root with b > {lo:.3g}; "
                "use a smaller epsilon or a smaller alpha"
            )
        hi = rhs + 2.0 * c * math.log(rhs + c) + 10.0
        while f(hi) < 0.0:  # pathological epsilon; widen the bracket
            hi *= 2.0
            if hi > 1e12:
                raise CalibrationError("threshold bracket blew up; reduce epsilon")
        b = _brentq(f, lo, hi, xtol=1e-12, rtol=8.9e-16)
    if b <= 1.0:
        raise CalibrationError(
            f"threshold {b:.3g} <= 1 is unusable; use a smaller epsilon or alpha"
        )
    residual = glr_threshold_residual(b, alpha, theta_volume, dim, epsilon)
    if residual > 1e-9:
        raise CalibrationError(f"threshold root residual {residual:.3g} exceeds 1e-9 "
                               f"at epsilon={epsilon:g}, dim={dim}")
    return b


def glr_threshold_residual(
    b: float, alpha: float, theta_volume: float, dim: int, epsilon: float
) -> float:
    """Absolute residual of the GLR threshold equation at b."""
    c = float(epsilon) * _count("dim", dim, 1) / 2.0
    rhs = 1.0 + math.log(float(theta_volume) / unit_ball_volume(dim)) - math.log(float(alpha))
    return abs(b - c * math.log(b) - rhs)


def window_size(curve: GrowthCurve, alpha: float, safety: float = 1.1) -> int:
    """Smallest window covering g^{-1}(|ln alpha|), padded by `safety`.

    The window must reach back far enough that a hypothesis started at the true
    change point can accumulate threshold-crossing drift before being evicted.
    """
    alpha = _ALPHA.check("alpha", alpha)
    safety = _Range(1, closed=True).check("safety", safety)
    t = curve.growth_inverse(-math.log(alpha))
    return max(1, math.ceil(safety * t))


def gem_epsilon(theta_min: float, theta_max: float, delta: float = 0.1) -> float:
    """Drift-spread bound (1 + delta) * theta_max / theta_min for GEM boxes.

    For the exponential-mean-growth model the per-observation drift at the
    box's top edge outpaces the bottom edge by at most this factor over the
    window lengths that matter, which is what the GLR threshold equation needs.
    """
    theta_min = _POSITIVE.check("theta_min", theta_min)
    theta_max = _Range(theta_min, closed=True).check("theta_max", theta_max)
    delta = _NONNEGATIVE.check("delta", delta)
    return (1.0 + delta) * theta_max / theta_min
