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


def _count(name: str, value, least: int) -> int:
    """value as an int if it is a whole number >= least (4.0 is one), else a
    ValueError that names it. Every count a caller passes in is checked here."""
    try:
        whole = value == int(value) and value >= least
    except (TypeError, ValueError, OverflowError):  # None, NaN, +-inf
        whole = False
    if not whole:
        raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class _Range:
    """The reals lo < v < hi, or lo <= v < hi when closed. hi is never reached,
    so +-inf and NaN lie in no range. Every real a caller passes in is checked
    against one of these."""

    lo: float
    hi: float = math.inf
    closed: bool = False

    def __str__(self):
        return f"{'[' if self.closed else '('}{self.lo!r}, {self.hi!r})"

    def holds(self, v):
        """Whether v lies in the range, for one float or elementwise over an array."""
        return ((v >= self.lo) if self.closed else (v > self.lo)) & (v < self.hi)

    def check(self, name: str, value):
        """value as a float, or a (G,) grid as a float array of its own, if every
        point lies in the range; else a ValueError that names the grid's first
        point outside it, as that point alone would be named."""
        if not isinstance(value, float) and np.ndim(value):
            points = np.array(value, dtype=float)
            if points.ndim > 1:
                raise ValueError(f"{name} must be a number or a (G,) grid, "
                                 f"got shape {points.shape}")
            inside = self.holds(points)
            if inside.all():
                return points
            value = points[inside.argmin()]
        v = float(value)
        if not self.holds(v):
            raise ValueError(f"{name} must lie in {self}, got {v!r}")
        return v


@dataclass(frozen=True)
class _Parts:
    """One named range per entry of a vector parameter."""

    names: tuple
    ranges: tuple

    def check(self, name: str, value):
        """value as a tuple of floats, or a (G, d) grid as a float array of its own,
        if every entry lies in its part's range; else a ValueError that names the
        part at the grid's first point outside, as that point alone would."""
        d = len(self.names)
        points = np.asarray(value, dtype=float)
        if points.ndim not in (1, 2) or points.shape[-1] != d:
            raise ValueError(f"{name} must be a ({', '.join(self.names)}) point or a "
                             f"(G, {d}) grid, got {value!r}")
        if points.ndim == 2:
            inside = np.logical_and.reduce([r.holds(c) for r, c in zip(self.ranges, points.T)])
            if inside.all():
                return points.copy()
            points = points[inside.argmin()]  # refused below
        point = tuple(points.tolist())
        if not all(map(_Range.holds, self.ranges, point)):
            for part, domain, v in zip(self.names, self.ranges, point):
                domain.check(part, v)  # raises at the first part outside
        return point


_POSITIVE = _Range(0)
_NONNEGATIVE = _Range(0, closed=True)
# the wave's (theta0, theta1, theta2): log10 amplitude, peak lag and width
_WAVE = _Parts(("theta0", "theta1", "theta2"), (_NONNEGATIVE, _NONNEGATIVE, _POSITIVE))


def _check_times(n, k) -> int:
    """Validate a (time, hypothesized change point) pair; returns the lag."""
    k = _count("k", k, 1)
    return _count("n", n, k) - k


class ObservationModel:
    """Shared behaviour for pre/post density pairs with lag-indexed drift.

    Subclasses provide densities, samplers, the affine log-likelihood-ratio
    coefficients, and the mean and variance of the statistic t(X) after the
    change; the LLR moments follow from those. Instances are immutable and
    safe to share across threads and worker processes.

    A dataclass subclass declares each parameter's range once, in
    ``_ranges`` (field name -> ``_Range`` or ``_Parts``). When it is built,
    each is checked and stored as its check returns it: a float, a tuple of
    them, or a grid as a float array of its own. A point model whose LLR terms at
    lags 0 and 1 are not finite is refused too (``_finite_terms``).
    """

    _ranges: dict = {}

    def __post_init__(self):
        for name, domain in self._ranges.items():
            object.__setattr__(self, name, domain.check(name, getattr(self, name)))
        if not isinstance(getattr(self, "theta", None), np.ndarray):
            self._finite_terms(np.arange(2))

    def _finite_terms(self, lags):
        """llr_terms(lags), refused by name where a term overflows, divides by zero or
        is undefined. A grid takes this check in its one llr_terms call, its bank's,
        and is refused as its first point that is refused alone."""
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
                return self.llr_terms(lags)
        except (OverflowError, FloatingPointError) as err:
            grid = getattr(self, "theta", None)
            for point in grid if isinstance(grid, np.ndarray) else ():
                self.with_theta(point)  # raises for a point that fails alone
            raise ValueError(f"{self!r} has non-finite LLR terms ({err.args[-1]})") from None

    # -- densities ---------------------------------------------------------

    def log_pre_density(self, x: float) -> float:
        raise NotImplementedError

    def log_post_density(self, x: float, n: int, k: int) -> float:
        raise NotImplementedError

    def log_likelihood_ratio(self, x: float, n: int, k: int) -> float:
        """log p1(x; n - k) - log p0(x) for an observation at time n >= k."""
        _check_times(n, k)
        self.sufficient_stat(x)  # reject out-of-support x before evaluating
        llr = self.log_post_density(x, n, k) - self.log_pre_density(x)
        if math.isnan(llr):  # -inf - -inf: x is too far out to compare the densities
            raise FloatingPointError(f"both log densities are -inf at x={x!r}")
        return llr

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
        """One post-change draw per lag of a 1-D array, in order.

        Cut-invariant: drawing lags a then b gives the values and generator
        state of drawing a + b at once. Monte Carlo runs cut a trial's
        stream into blocks of varying size and rely on this.
        """
        raise NotImplementedError

    def sample_segment(self, rng: np.random.Generator, nu, start: int, length: int):
        """Draws for times start .. start+length-1 with change point nu.

        nu may be math.inf for a pure pre-change stream. Times are 1-based;
        the observation at time n is post-change iff n >= nu, at lag n - nu.
        Cut-invariant, as sample_post_lags must be: segments [s, s + a) and
        [s + a, s + a + b) give the values and generator state of [s, s + a + b).
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

    def block_drawer(self, nu):
        """A run's drawer: draw(rngs, start, out) fills row r of the trial-major (T, k)
        out as sample_segment(rngs[r], nu, start, k) would, rngs[r] left as it would
        be; nu is an int or math.inf. This one calls it, as for a Gaussian model that
        overrides a sampler; a Gaussian model's own adds a row of means from its lag
        table to sd times a block of standard normals. Like sample_post_lags, that is
        rng.normal(mu, sd) only while numpy computes loc + scale * z in two roundings."""
        def draw(rngs, start, out):
            for rng, row in zip(rngs, out):
                row[:] = self.sample_segment(rng, nu, start, out.shape[1])

        return draw

    # -- moments -----------------------------------------------------------

    def expected_llr(self, lag: int) -> float:
        """Mean of Z(X; lag) when X is post-change at that same lag.

        This is the per-observation KL divergence between the lag-`lag`
        post-change density and the pre-change density; it is the increment
        of the cumulative drift (growth) function.
        """
        lag = _count("lag", lag, 0)
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
        l, t = _count("hyp_lag", hyp_lag, 0), _count("true_lag", true_lag, 0)
        slopes, intercepts = self.llr_terms(np.array([l]))
        if np.isneginf(intercepts[0]):
            return math.inf if t >= l else -math.inf
        means, _ = self.stat_moments(np.array([t]))
        return float(slopes[0] * means[0] + intercepts[0])

    def llr_variance(self, lag: int) -> float:
        """Variance of Z(X; lag) when X is post-change at that same lag."""
        lags = np.array([_count("lag", lag, 0)])
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
        return replace(self, theta=theta)

    @property
    def theta_dim(self) -> int:
        """Number of post-change drift parameters (the entries of theta)."""
        return len(np.atleast_1d(self.theta))

    # First lag at or past the peak of the post-change drift, None if it never
    # peaks. Past it the growth curve saturates and its inverse is unreliable.
    peak_lag = None


def _norm_logpdf(x: float, mean: float, var: float) -> float:
    d = x - mean  # d * d is +inf where it overflows; d ** 2 would raise
    return -0.5 * math.log(2.0 * math.pi * var) - d * d / (2.0 * var)


def _check_real(x) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise SupportError(f"observation must be a finite real number, got {x!r}")
    return x


class _GaussianModel(ObservationModel):
    """Gaussian observations of known variance whose post-change mean follows a
    path in the lag: t(x) = x.

    A subclass names its pre-change mean ``_pre_mean`` and its variance
    ``_var``, and gives the path as ``_post_mean(lags)`` and the affine LLR
    as ``llr_terms``; the densities, samplers and moments are the ones here.
    """

    def log_pre_density(self, x: float) -> float:
        return _norm_logpdf(_check_real(x), self._pre_mean, self._var)

    def log_post_density(self, x: float, n: int, k: int) -> float:
        lag = _check_times(n, k)
        return _norm_logpdf(_check_real(x), float(self._post_mean(lag)), self._var)

    def sufficient_stat(self, x: float) -> float:
        return _check_real(x)

    def sufficient_stats(self, xs):
        return np.asarray(xs, dtype=float)  # t(x) = x; non-finite x stays non-finite

    def sample_pre(self, rng, size=None):
        return rng.normal(self._pre_mean, math.sqrt(self._var), size)

    def sample_post_lags(self, rng, lags):
        """N(_post_mean(l), _var) draws, bit for bit rng.normal(means, sd) (see
        block_drawer) without its dearer broadcast path for an array loc. Where
        the mean overflows (GEM's e^{theta l} at lag 1,775 for theta = 0.4) it
        and its draw are +inf: a detector that consumes that draw raises
        SupportError."""
        means = self._post_mean(lags)
        return means + math.sqrt(self._var) * rng.standard_normal(len(means))

    def block_drawer(self, nu):
        if any(getattr(type(self), f) is not getattr(_GaussianModel, f)
               for f in ("sample_segment", "sample_pre", "sample_post_lags")):
            return super().block_drawer(nu)
        sd, table = math.sqrt(self._var), np.empty(0)  # table: _post_mean at lags 0, 1, ...

        def draw(rngs, start, out):
            nonlocal table
            for rng, row in zip(rngs, out):
                rng.standard_normal(out=row)
            out *= sd
            first, stop = start - nu, start + out.shape[1] - nu  # lags; < 0 before the change
            means = self._pre_mean
            if stop > 0:
                if len(table) < stop:  # grown by doubling
                    table = self._post_mean(np.arange(1 << (stop - 1).bit_length()))
                means = np.concatenate((np.full(max(-first, 0), float(self._pre_mean)),
                                        table[max(first, 0):stop]))
            out += means

        return draw

    def stat_moments(self, lags):
        means = self._post_mean(lags)
        return means, np.full_like(means, self._var)


@dataclass(frozen=True)
class GemModel(_GaussianModel):
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
    _ranges = {"mu0": _POSITIVE, "sigma0_sq": _POSITIVE, "theta": _POSITIVE}

    _pre_mean = property(lambda self: self.mu0)
    _var = property(lambda self: self.sigma0_sq)

    def _post_mean(self, lags):
        with np.errstate(over="ignore"):  # +inf once e^{theta l} overflows
            return self.mu0 * np.exp(self.theta * np.asarray(lags, dtype=float))

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

    # in the class's own __dict__, where a tracer patches them per model
    sufficient_stat = _GaussianModel.sufficient_stat
    with_theta = ObservationModel.with_theta


@dataclass(frozen=True)
class DecayModel(_GaussianModel):
    """Gaussian observations whose post-change mean decays polynomially.

    Pre-change:  X ~ N(0, sigma_sq)
    Post-change: X at lag l ~ N(mu1 * (l + 1)^{-theta}, sigma_sq),
    with 0 < theta < 1/2 so the cumulative drift still diverges.
    """

    mu1: float
    sigma_sq: float
    theta: float
    _ranges = {"mu1": _POSITIVE, "sigma_sq": _POSITIVE, "theta": _Range(0, 0.5)}

    _pre_mean = 0.0
    _var = property(lambda self: self.sigma_sq)

    def _post_mean(self, lags):
        return self.mu1 * (np.asarray(lags, dtype=float) + 1.0) ** (-self.theta)

    def llr_terms(self, lags):
        means = self._post_mean(lags)
        return means / self.sigma_sq, -(means**2) / (2.0 * self.sigma_sq)

    sufficient_stat = _GaussianModel.sufficient_stat
    with_theta = ObservationModel.with_theta


def _per_distinct(f, values: np.ndarray) -> np.ndarray:
    """f(v) for each entry of a float array, called once per distinct value.

    0.0 and -0.0 (and every NaN) share one call, so f must give them equal values.
    """
    distinct, where = np.unique(values, return_inverse=True)
    return np.array([f(v) for v in distinct.tolist()])[where]


def wave_multiplier(theta, lag):
    """Bell-shaped multiplier applied to the Beta shape parameter after a change.

        h(lag) = 1 + (10^{theta0} / theta2) * exp(-(lag - theta1)^2 / (2 theta2^2))

    theta = (theta0, theta1, theta2): log10 amplitude, peak location (days since
    the change), and peak width. Always >= 1, so the post-change mean fraction
    never drops below the pre-change mean. Vectorized over lag. theta may also
    be a (G, 3) grid; lag then broadcasts against (G,), so lags[:, None] gives
    a (lags, G) table.
    """
    return _wave(_WAVE.check("theta", theta), lag)


def _wave(theta, lag):
    """wave_multiplier without its check, for a theta already checked: one
    (theta0, theta1, theta2) tuple of floats or a (G, 3) float array."""
    if isinstance(theta, tuple):
        t0, t1, t2 = theta
        amplitude, width = 10.0**t0 / t2, 2.0 * t2**2
    else:
        # Python float powers as for one point alone, one per distinct axis value:
        # numpy's SIMD power loops round differently from libm on some CPUs
        amplitude = _per_distinct(lambda t0: 10.0**t0, theta[:, 0]) / theta[:, 2]
        width = _per_distinct(lambda t2: 2.0 * t2**2, theta[:, 2])
        t1 = theta[:, 1]
    lag = np.asarray(lag, dtype=float)
    out = 1.0 + amplitude * np.exp(-((lag - t1) ** 2) / width)
    return out if out.ndim else float(out)


def _special():
    """``scipy.special``, imported on first use.

    Only the Beta wave needs it, and importing it costs about 0.25 s of CPU
    and 24 MB, so GEM and decay runs never load it. A Beta wave loads it when
    it is built; an unpickled one skips ``__post_init__`` and loads it here on
    its first call.
    """
    import scipy.special

    return scipy.special


def _check_unit(x) -> float:
    """x as a float in the closed [0, 1], where a Beta density is defined: at
    the boundary it is -inf, or +inf for a shape below 1."""
    x = float(x)
    if not (0.0 <= x <= 1.0):  # also rejects NaN
        raise SupportError(f"observation must lie in [0, 1], got {x!r}")
    return x


def _beta_logpdf(x: float, a: float, b: float) -> float:
    """Beta(a, b) log density at x in [0, 1], the bits of ``scipy.stats.beta.logpdf``.

    scipy's own formula; calling it directly keeps ``scipy.stats`` off the
    import path.
    """
    sp = _special()
    return float(sp.xlog1py(b - 1.0, -x) + sp.xlogy(a - 1.0, x) - sp.betaln(a, b))


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
    _ranges = {"a0": _POSITIVE, "b0": _POSITIVE, "theta": _WAVE}

    def __post_init__(self):
        super().__post_init__()
        _special()  # load it with the model, not in the first bank build or step

    def _post_shape(self, lags):
        return self.a0 * np.asarray(_wave(self.theta, lags), dtype=float)

    def log_pre_density(self, x: float) -> float:
        return _beta_logpdf(_check_unit(x), self.a0, self.b0)

    def log_post_density(self, x: float, n: int, k: int) -> float:
        lag = _check_times(n, k)
        return _beta_logpdf(_check_unit(x), float(self._post_shape(lag)), self.b0)

    def sufficient_stat(self, x: float) -> float:
        x = float(x)
        if not (0.0 < x < 1.0):  # also rejects NaN
            raise SupportError(f"observation must lie strictly inside (0, 1), got {x!r}")
        return math.log(x)

    def llr_terms(self, lags):
        sp = _special()
        a1 = self._post_shape(lags)
        slopes = a1 - self.a0
        intercepts = (
            sp.gammaln(a1 + self.b0)
            - sp.gammaln(a1)
            - sp.gammaln(self.a0 + self.b0)
            + sp.gammaln(self.a0)
        )
        return slopes, np.asarray(intercepts, dtype=float)

    def sample_pre(self, rng, size=None):
        return rng.beta(self.a0, self.b0, size)

    def sample_post_lags(self, rng, lags):
        return rng.beta(self._post_shape(lags), self.b0)

    def stat_moments(self, lags):
        # E[log X] and Var[log X] for X ~ Beta(a1, b0): digamma and trigamma
        sp = _special()
        a1 = self._post_shape(lags)
        means = sp.digamma(a1) - sp.digamma(a1 + self.b0)
        variances = sp.polygamma(1, a1) - sp.polygamma(1, a1 + self.b0)
        return means, variances

    with_theta = ObservationModel.with_theta

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
