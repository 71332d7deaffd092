"""Observation models for sequential change detection.

Each model pairs a fixed pre-change density p0 with a family of post-change
densities p1(.; lag) indexed by the time elapsed since the change point.
The post-change family is allowed to drift with that lag, which is what makes
the detection problem non-stationary.

All three concrete models admit a log-likelihood ratio that is affine in a
scalar sufficient statistic of the observation,

    Z(x; lag) = slope(lag) * t(x) + intercept(lag),

with t(x) = x for the Gaussian models and t(x) = log(x) for the Beta model.
Detectors exploit this to update whole banks of hypotheses with a handful of
vectorized operations per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import betaln, digamma, gammaln, polygamma, xlog1py, xlogy

__all__ = [
    "SupportError",
    "ObservationModel",
    "GemModel",
    "DecayModel",
    "BetaWaveModel",
    "wave_multiplier",
    "build_model",
]


class SupportError(ValueError):
    """Observation lies outside the support of the model's densities."""


def _check_lag(lag) -> int:
    if isinstance(lag, (bool, float)) and not float(lag).is_integer():
        raise ValueError(f"lag must be a non-negative integer, got {lag!r}")
    lag = int(lag)
    if lag < 0:
        raise ValueError(f"lag must be a non-negative integer, got {lag}")
    return lag


def _first_failing(theta, ok):
    """The first point of theta (one point or a (G,) grid) where ok fails, None
    if there is none: one point comes back as given, a grid point as a float.
    NaN fails every ok."""
    points = np.asarray(theta, dtype=float)
    if points.ndim == 0:
        return None if ok(float(points)) else theta
    fails = ~ok(points)
    return float(points[fails.argmax()]) if fails.any() else None


def _point_or_grid(theta):
    """theta as a float, or a (G,) grid of them as a float array of its own."""
    points = np.array(theta, dtype=float)
    if points.ndim > 1:
        raise ValueError(f"theta must be a number or a (G,) grid, got shape {points.shape}")
    return float(points) if points.ndim == 0 else points


def _check_times(n, k) -> int:
    """Validate a (time, hypothesized change point) pair; returns the lag."""
    n, k = int(n), int(k)
    if k < 1:
        raise ValueError(f"change-point index k must be >= 1, got {k}")
    if n < k:
        raise ValueError(f"time n={n} precedes hypothesized change point k={k}")
    return n - k


class ObservationModel:
    """Shared behaviour for pre/post density pairs with lag-indexed drift.

    Subclasses provide densities, samplers, the affine log-likelihood-ratio
    coefficients, and the mean and variance of the statistic t(X) after the
    change; the LLR moments follow from those. Instances are immutable and
    safe to share across threads and worker processes.
    """

    # -- densities ---------------------------------------------------------

    def log_pre_density(self, x: float) -> float:
        raise NotImplementedError

    def log_post_density(self, x: float, n: int, k: int) -> float:
        raise NotImplementedError

    def log_likelihood_ratio(self, x: float, n: int, k: int) -> float:
        """log p1(x; n - k) - log p0(x) for an observation at time n >= k."""
        lag = _check_times(n, k)
        self.sufficient_stat(x)  # reject out-of-support x before evaluating
        return self.log_post_density(x, n, k) - self.log_pre_density(x)

    # -- affine representation used by detectors ---------------------------

    def sufficient_stat(self, x: float) -> float:
        """Scalar statistic t(x); raises SupportError off the support."""
        raise NotImplementedError

    def sufficient_stats(self, xs: np.ndarray) -> np.ndarray:
        """t(x) over an array, bit-identical to sufficient_stat, without raising.

        Off-support entries come back non-finite (NaN here); a caller that
        consumes a non-finite entry passes its x through sufficient_stat,
        which raises or confirms the value.
        """
        out = np.full(len(xs), np.nan)
        for i, x in enumerate(xs):
            try:
                out[i] = self.sufficient_stat(x)
            except SupportError:
                pass
        return out

    def llr_terms(self, lags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(slopes, intercepts) with Z(x; lag) = slope * t(x) + intercept."""
        raise NotImplementedError

    # -- sampling ----------------------------------------------------------

    def sample_pre(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def sample_post_lags(self, rng: np.random.Generator, lags: np.ndarray):
        """One post-change draw per lag of a 1-D array, in order."""
        raise NotImplementedError

    def sample_segment(self, rng: np.random.Generator, nu, start: int, length: int):
        """Draws for times start .. start+length-1 with change point nu.

        nu may be math.inf for a pure pre-change stream. Times are 1-based;
        the observation at time n is post-change iff n >= nu, at lag n - nu.
        """
        if math.isinf(nu):
            return np.asarray(self.sample_pre(rng, size=length), dtype=float)
        nu = int(nu)
        n_pre = min(max(nu - start, 0), length)  # the times before nu
        out = np.empty(length)
        if n_pre:
            out[:n_pre] = self.sample_pre(rng, size=n_pre)
        if n_pre < length:
            lags = np.arange(start + n_pre, start + length) - nu
            out[n_pre:] = self.sample_post_lags(rng, lags)
        return out

    # -- moments -----------------------------------------------------------

    def expected_llr(self, lag: int) -> float:
        """Mean of Z(X; lag) when X is post-change at that same lag.

        This is the per-observation KL divergence between the lag-`lag`
        post-change density and the pre-change density; it is the increment
        of the cumulative drift (growth) function.
        """
        lag = _check_lag(lag)
        return float(self.expected_llr_lags(np.array([lag]))[0])

    def stat_moments(self, lags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mean, variance) of t(X) when X is post-change at each lag."""
        raise NotImplementedError

    # Every moment below follows from the affine form Z = slope * t + intercept.
    # A lag that llr_terms pins (slope 0, intercept -inf) has overflowed: its
    # divergence and variance are +inf, not the -inf or 0 the form would give.

    def expected_llr_lags(self, lags: np.ndarray) -> np.ndarray:
        """expected_llr at each lag of an array, never negative.

        slope * mean + intercept cancels to rounding noise where the wave has
        died out. A lag with slope exactly 0 gets 0 (a constant LLR between two
        densities is 0); the rest are clamped at 0, since a KL is never negative.
        """
        slopes, intercepts = self.llr_terms(lags)
        means, _ = self.stat_moments(lags)
        pinned = np.isneginf(intercepts)
        with np.errstate(over="ignore", invalid="ignore"):
            kl = np.maximum(slopes * means + intercepts, 0.0)
        return np.where(pinned, np.inf, np.where(slopes == 0.0, 0.0, kl))

    def expected_llr_mismatch(self, hyp_lag: int, true_lag: int) -> float:
        """Mean of the lag-`hyp_lag` LLR when the data sit at `true_lag`.

        At a pinned hypothesis lag this is +inf once the data have drifted at
        least that far (true_lag >= hyp_lag) and -inf before, as the pin has it.
        """
        l, t = _check_lag(hyp_lag), _check_lag(true_lag)
        slopes, intercepts = self.llr_terms(np.array([l]))
        if np.isneginf(intercepts[0]):
            return math.inf if t >= l else -math.inf
        means, _ = self.stat_moments(np.array([t]))
        return float(slopes[0] * means[0] + intercepts[0])

    def llr_variance(self, lag: int) -> float:
        """Variance of Z(X; lag) when X is post-change at that same lag."""
        lags = np.array([_check_lag(lag)])
        slopes, intercepts = self.llr_terms(lags)
        if np.isneginf(intercepts[0]):
            return math.inf
        _, variances = self.stat_moments(lags)
        return float(slopes[0] ** 2 * variances[0])

    # -- post-change parameter override (GLR grids) -------------------------

    def with_theta(self, theta) -> "ObservationModel":
        """Copy of this model with the post-change drift parameter replaced.

        theta is one point, or a grid of them: a (G,) array for a scalar
        parameter, a (G, d) array of rows otherwise. Every point is checked as
        one point would be. A grid model has an array theta and only answers
        llr_terms, where lags[:, None] broadcasts to (lags, G) tables, one
        column per point, equal bit for bit to each point's own. It is frozen
        but not hashable, and its other methods are undefined.
        """
        raise NotImplementedError

    @property
    def theta_dim(self) -> int:
        """Number of post-change drift parameters (the entries of theta)."""
        return len(np.atleast_1d(self.theta))

    # First lag at or past the peak of the post-change drift, None if it never
    # peaks. Past it the growth curve saturates and its inverse is unreliable.
    peak_lag = None


def _norm_logpdf(x: float, mean: float, var: float) -> float:
    return -0.5 * math.log(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var)


def _check_real(x) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise SupportError(f"observation must be a finite real number, got {x!r}")
    return x


@dataclass(frozen=True)
class GemModel(ObservationModel):
    """Gaussian observations whose post-change mean grows exponentially.

    Pre-change:  X ~ N(mu0, sigma0_sq)
    Post-change: X at lag l ~ N(mu0 * exp(theta * l), sigma0_sq), l = n - nu.

    The log-likelihood ratio against a change at k is

        Z(x; l) = (mu0 / sigma0_sq) (e^{theta l} - 1) x
                  - mu0^2 (e^{2 theta l} - 1) / (2 sigma0_sq),  l = n - k,

    and the per-observation KL divergence at lag l is
    mu0^2 (e^{theta l} - 1)^2 / (2 sigma0_sq).
    """

    mu0: float
    sigma0_sq: float
    theta: float

    def __post_init__(self):
        if not (self.mu0 > 0):
            raise ValueError(f"mu0 must be > 0, got {self.mu0}")
        if not (self.sigma0_sq > 0):
            raise ValueError(f"sigma0_sq must be > 0, got {self.sigma0_sq}")
        bad = _first_failing(self.theta, lambda t: t > 0)
        if bad is not None:
            raise ValueError(f"theta must be > 0, got {bad}")

    def _post_mean(self, lags):
        with np.errstate(over="ignore"):  # +inf once e^{theta l} overflows
            return self.mu0 * np.exp(self.theta * np.asarray(lags, dtype=float))

    def log_pre_density(self, x: float) -> float:
        return _norm_logpdf(_check_real(x), self.mu0, self.sigma0_sq)

    def log_post_density(self, x: float, n: int, k: int) -> float:
        lag = _check_times(n, k)
        mean = self.mu0 * math.exp(self.theta * lag)
        return _norm_logpdf(_check_real(x), mean, self.sigma0_sq)

    def sufficient_stat(self, x: float) -> float:
        return _check_real(x)

    def sufficient_stats(self, xs):
        return np.asarray(xs, dtype=float)  # t(x) = x; non-finite x stays non-finite

    def llr_terms(self, lags):
        lags = np.asarray(lags, dtype=float)
        with np.errstate(over="ignore"):
            growth = np.exp(self.theta * lags)
            slopes = self.mu0 / self.sigma0_sq * (growth - 1.0)
            intercepts = -self.mu0**2 / (2.0 * self.sigma0_sq) * (growth**2 - 1.0)
        # at extreme lags the quadratic term overflows; the ratio itself tends
        # to -inf for any bounded observation, so pin it there instead of
        # letting inf * x - inf turn into NaN inside a detector bank
        dead = ~(np.isfinite(slopes) & np.isfinite(intercepts))
        if np.any(dead):
            slopes = np.where(dead, 0.0, slopes)
            intercepts = np.where(dead, -np.inf, intercepts)
        return slopes, intercepts

    def sample_pre(self, rng, size=None):
        return rng.normal(self.mu0, math.sqrt(self.sigma0_sq), size)

    def sample_post_lags(self, rng, lags):
        """N(mu0 e^{theta l}, sigma0_sq) draws, bit for bit rng.normal(means, sd).

        rng.normal with an array loc takes numpy's broadcast path, which costs
        more than the draws. It computes loc + scale * z per element from one
        standard normal each, in order, so this gives the same values and
        leaves rng in the same state. Where e^{theta l} overflows (lag 1,775
        at theta = 0.4) the mean and its draw are +inf: a detector that
        consumes that draw raises SupportError.
        """
        means = self._post_mean(lags)
        return means + math.sqrt(self.sigma0_sq) * rng.standard_normal(len(means))

    def stat_moments(self, lags):
        means = self._post_mean(lags)
        return means, np.full_like(means, self.sigma0_sq)

    def with_theta(self, theta):
        return replace(self, theta=_point_or_grid(theta))


@dataclass(frozen=True)
class DecayModel(ObservationModel):
    """Gaussian observations whose post-change mean decays polynomially.

    Pre-change:  X ~ N(0, sigma_sq)
    Post-change: X at lag l ~ N(mu1 * (l + 1)^{-theta}, sigma_sq),
    with 0 < theta < 1/2 so the cumulative drift still diverges.
    """

    mu1: float
    sigma_sq: float
    theta: float

    def __post_init__(self):
        if not (self.mu1 > 0):
            raise ValueError(f"mu1 must be > 0, got {self.mu1}")
        if not (self.sigma_sq > 0):
            raise ValueError(f"sigma_sq must be > 0, got {self.sigma_sq}")
        bad = _first_failing(self.theta, lambda t: (0.0 < t) & (t < 0.5))
        if bad is not None:
            raise ValueError(f"theta must lie in (0, 0.5), got {bad}")

    def _post_mean(self, lags):
        return self.mu1 * (np.asarray(lags, dtype=float) + 1.0) ** (-self.theta)

    def log_pre_density(self, x: float) -> float:
        return _norm_logpdf(_check_real(x), 0.0, self.sigma_sq)

    def log_post_density(self, x: float, n: int, k: int) -> float:
        lag = _check_times(n, k)
        return _norm_logpdf(_check_real(x), float(self._post_mean(lag)), self.sigma_sq)

    def sufficient_stat(self, x: float) -> float:
        return _check_real(x)

    def sufficient_stats(self, xs):
        return np.asarray(xs, dtype=float)  # t(x) = x; non-finite x stays non-finite

    def llr_terms(self, lags):
        means = self._post_mean(lags)
        return means / self.sigma_sq, -(means**2) / (2.0 * self.sigma_sq)

    def sample_pre(self, rng, size=None):
        return rng.normal(0.0, math.sqrt(self.sigma_sq), size)

    def sample_post_lags(self, rng, lags):
        """N(mu1 (l + 1)^{-theta}, sigma_sq) draws, bit for bit rng.normal(means, sd)
        as in GemModel.sample_post_lags."""
        means = self._post_mean(lags)
        return means + math.sqrt(self.sigma_sq) * rng.standard_normal(len(means))

    def stat_moments(self, lags):
        means = self._post_mean(lags)
        return means, np.full_like(means, self.sigma_sq)

    def with_theta(self, theta):
        return replace(self, theta=_point_or_grid(theta))


def _check_wave(theta) -> np.ndarray:
    """theta, one (theta0, theta1, theta2) triple or a (G, 3) grid of them, as a
    float array; raises at the first point that is not a wave, as that point
    alone would."""
    points = np.asarray(theta, dtype=float)
    if points.ndim == 2 and points.shape[1] == 3:
        t0, t1, t2 = points.T
        bad = ~(t2 > 0) | (t0 < 0) | (t1 < 0)
        if bad.any():
            _check_wave(tuple(points[bad.argmax()].tolist()))
        return points
    if points.shape != (3,):
        raise ValueError(f"theta must be a (theta0, theta1, theta2) triple or a (G, 3) grid, "
                         f"got {theta}")
    t0, t1, t2 = points.tolist()
    if not (t2 > 0):
        raise ValueError(f"theta2 must be > 0, got {t2}")
    if t0 < 0 or t1 < 0:
        raise ValueError(f"theta0 and theta1 must be >= 0, got {theta}")
    return points


def wave_multiplier(theta, lag):
    """Bell-shaped multiplier applied to the Beta shape parameter after a change.

        h(lag) = 1 + (10^{theta0} / theta2) * exp(-(lag - theta1)^2 / (2 theta2^2))

    theta = (theta0, theta1, theta2): log10 amplitude, peak location (days since
    the change), and peak width. Always >= 1, so the post-change mean fraction
    never drops below the pre-change mean. Vectorized over lag. theta may also
    be a (G, 3) grid; lag then broadcasts against (G,), so lags[:, None] gives
    a (lags, G) table.
    """
    points = _check_wave(theta)
    if points.ndim == 1:
        t0, t1, t2 = points.tolist()
        amplitude, width = 10.0**t0 / t2, 2.0 * t2**2
    else:
        # Python float powers, one per point as for one point alone: numpy's
        # SIMD power loops round differently from libm on some CPUs
        rows = points.tolist()
        amplitude = np.array([10.0**t0 / t2 for t0, _, t2 in rows])
        width = np.array([2.0 * t2**2 for *_, t2 in rows])
        t1 = points[:, 1]
    lag = np.asarray(lag, dtype=float)
    out = 1.0 + amplitude * np.exp(-((lag - t1) ** 2) / width)
    return out if out.ndim else float(out)


def _beta_logpdf(x: float, a: float, b: float) -> float:
    """Beta(a, b) log density at x in [0, 1], the bits of ``scipy.stats.beta.logpdf``.

    scipy's own formula; calling it directly keeps ``scipy.stats`` off the
    import path.
    """
    return float(xlog1py(b - 1.0, -x) + xlogy(a - 1.0, x) - betaln(a, b))


@dataclass(frozen=True)
class BetaWaveModel(ObservationModel):
    """Beta-distributed fractions with a transient wave after the change.

    Pre-change:  X ~ Beta(a0, b0)
    Post-change: X at lag l ~ Beta(a0 * h(l), b0), h from wave_multiplier.

    Since h >= 1 rises to a single peak and relaxes back toward 1, the
    post-change distributions drift away from p0 and then return to it.
    """

    a0: float
    b0: float
    theta: tuple[float, float, float]

    def __post_init__(self):
        if not (self.a0 > 0):
            raise ValueError(f"a0 must be > 0, got {self.a0}")
        if not (self.b0 > 0):
            raise ValueError(f"b0 must be > 0, got {self.b0}")
        points = np.asarray(self.theta, dtype=float)
        # one triple is a tuple of floats; a (G, 3) grid stays an array of its own
        object.__setattr__(self, "theta",
                           tuple(points.tolist()) if points.ndim == 1 else points.copy())
        _check_wave(self.theta)

    def _post_shape(self, lags):
        return self.a0 * np.asarray(wave_multiplier(self.theta, lags), dtype=float)

    def log_pre_density(self, x: float) -> float:
        x = float(x)
        if math.isnan(x) or x < 0.0 or x > 1.0:
            raise SupportError(f"observation must lie in [0, 1], got {x!r}")
        # -inf (or +inf for shape < 1) is acceptable at the boundary
        return _beta_logpdf(x, self.a0, self.b0)

    def log_post_density(self, x: float, n: int, k: int) -> float:
        lag = _check_times(n, k)
        x = float(x)
        if math.isnan(x) or x < 0.0 or x > 1.0:
            raise SupportError(f"observation must lie in [0, 1], got {x!r}")
        return _beta_logpdf(x, float(self._post_shape(lag)), self.b0)

    def sufficient_stat(self, x: float) -> float:
        x = float(x)
        if not (0.0 < x < 1.0):  # also rejects NaN
            raise SupportError(f"observation must lie strictly inside (0, 1), got {x!r}")
        return math.log(x)

    def llr_terms(self, lags):
        a1 = self._post_shape(lags)
        slopes = a1 - self.a0
        intercepts = (
            gammaln(a1 + self.b0)
            - gammaln(a1)
            - gammaln(self.a0 + self.b0)
            + gammaln(self.a0)
        )
        return slopes, np.asarray(intercepts, dtype=float)

    def sample_pre(self, rng, size=None):
        return rng.beta(self.a0, self.b0, size)

    def sample_post_lags(self, rng, lags):
        return rng.beta(self._post_shape(lags), self.b0)

    def stat_moments(self, lags):
        # E[log X] and Var[log X] for X ~ Beta(a1, b0): digamma and trigamma
        a1 = self._post_shape(lags)
        means = digamma(a1) - digamma(a1 + self.b0)
        variances = polygamma(1, a1) - polygamma(1, a1 + self.b0)
        return means, variances

    def with_theta(self, theta):
        return replace(self, theta=theta)

    @property
    def peak_lag(self):
        return math.ceil(self.theta[1])


def _beta_wave_model(a0, b0, theta0, theta1, theta2) -> BetaWaveModel:
    return BetaWaveModel(a0, b0, (theta0, theta1, theta2))


# kind -> (constructor, flat parameter names); the CLI's model flags follow it
_MODEL_KINDS = {
    "gem": (GemModel, ("mu0", "sigma0_sq", "theta")),
    "decay": (DecayModel, ("mu1", "sigma_sq", "theta")),
    "betawave": (_beta_wave_model, ("a0", "b0", "theta0", "theta1", "theta2")),
}


def build_model(kind: str, **params) -> ObservationModel:
    """Construct a model from a flat configuration (CLI flags, config files).

    kind is one of 'gem', 'decay', 'betawave'. Every parameter is a scalar:
    'betawave' takes its wave as theta0, theta1, theta2, never as a triple.
    """
    key = kind.lower()
    if key not in _MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {sorted(_MODEL_KINDS)}")
    make, fields = _MODEL_KINDS[key]
    missing = [f for f in fields if f not in params]
    if missing:
        raise ValueError(f"model {kind!r} missing parameters: {missing}")
    extra = [f for f in params if f not in fields]
    if extra:
        raise ValueError(f"model {kind!r} got unexpected parameters: {extra}")
    return make(**{f: params[f] for f in fields})
