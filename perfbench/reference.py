"""Direct-sum reference for the detector outputs the benchmark checks.

The statistic at time n is max(0, max_k lambda_{n,k}) with

    lambda_{n,k} = sum_{j=k}^{n} Z(x_j; j - k),   Z(x; l) = slope(l) t(x) + intercept(l),

recomputed here from ``ObservationModel.sufficient_stat`` and ``llr_terms``
alone, so no detector code sits on both sides of a comparison. The sums are
accumulated lag by lag in the order the detectors use, so agreement is
expected to the last bit; comparisons still allow ``RTOL`` of slack.

The calibration inputs (GEM window, step cap, GLR threshold root) are also
recomputed from their defining formulas rather than taken on trust.
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-9
STREAM_BLOCK = 512  # montecarlo draws each trial's observations in blocks of this size


def sufficient_stats(model, xs) -> np.ndarray:
    return np.array([model.sufficient_stat(float(x)) for x in xs], dtype=float)


def llr_tables(model, max_lag: int, grid=None):
    """(slopes, intercepts), each (G, max_lag + 1); G = 1 without a grid."""
    lags = np.arange(max_lag + 1)
    models = [model] if grid is None else [model.with_theta(g) for g in grid]
    pairs = [m.llr_terms(lags) for m in models]
    return (np.array([s for s, _ in pairs], dtype=float),
            np.array([c for _, c in pairs], dtype=float))


def direct_statistics(t: np.ndarray, slopes: np.ndarray, intercepts: np.ndarray,
                      window: int | None):
    """Statistic and k_star at n = 1..len(t); window=None is full history.

    k_star breaks ties toward the smallest k and is n + 1 when every
    hypothesis is negative, as documented for ``DetectorOutput``.
    """
    size = len(t)
    max_lag = size - 1 if window is None else min(int(window), size - 1)
    acc = np.zeros((slopes.shape[0], size))
    best = np.full(size, -np.inf)
    best_lag = np.zeros(size, dtype=np.int64)
    for lag in range(max_lag + 1):
        if lag >= slopes.shape[1]:
            raise ValueError(f"llr tables cover {slopes.shape[1]} lags, need {max_lag + 1}")
        # a lag pinned at -inf on every grid point kills every older hypothesis too
        if np.all(intercepts[:, lag] == -np.inf):
            break
        span = size - lag
        acc[:, :span] += slopes[:, lag : lag + 1] * t[None, lag:] + intercepts[:, lag : lag + 1]
        vals = acc[:, :span].max(axis=0)
        if np.isnan(vals).any():
            raise FloatingPointError(f"NaN in the reference bank at lag {lag}")
        upd = vals >= best[lag:]  # later (older) lags win ties: smallest k
        best[lag:] = np.where(upd, vals, best[lag:])
        best_lag[lag:] = np.where(upd, lag, best_lag[lag:])
    n = np.arange(1, size + 1)
    stat = np.where(best < 0.0, 0.0, best)
    k_star = np.where(best < 0.0, n + 1, n - best_lag)
    return stat, k_star


def first_crossing(stat: np.ndarray, threshold: float) -> int | None:
    """1-based time of the first statistic >= threshold, None if there is none."""
    hits = np.flatnonzero(stat >= threshold)
    return int(hits[0]) + 1 if len(hits) else None


def trial_observations(model, seed: int, trial: int, nu, cap: int, length: int):
    """The first ``length`` observations of Monte Carlo trial ``trial``.

    Replays the library's documented stream: RNG substream (seed, trial) and
    blocks of STREAM_BLOCK draws, the last one cut at the step cap.
    """
    rng = np.random.default_rng([seed, trial])
    parts, produced = [], 0
    while produced < min(length, cap):
        k = min(STREAM_BLOCK, cap - produced)
        parts.append(model.sample_segment(rng, nu, produced + 1, k))
        produced += k
    return np.concatenate(parts)[:length]


def trial_stopping_time(model, seed, trial, nu, cap, threshold, slopes, intercepts,
                        window) -> tuple[int, bool]:
    """(time, censored) of one trial, recomputed from the direct sums."""
    length = 64
    while True:
        xs = trial_observations(model, seed, trial, nu, cap, min(length, cap))
        stat, _ = direct_statistics(sufficient_stats(model, xs), slopes, intercepts, window)
        hit = first_crossing(stat, threshold)
        if hit is not None:
            return hit, False
        if length >= cap:
            return cap, True
        length *= 8


def gem_growth_inverse(mu0: float, sigma0_sq: float, theta: float, x: float) -> float:
    """Inverse of g(n) = sum_{l<n} mu0^2 (e^{theta l} - 1)^2 / (2 sigma0_sq).

    Piecewise-linear between integer knots, as the library documents.
    """
    size = 64
    while True:
        lags = np.arange(size, dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(mu0**2 / (2.0 * sigma0_sq)
                                               * np.expm1(theta * lags) ** 2)])
        if cum[-1] >= x:
            break
        size *= 2
    j = int(np.searchsorted(cum, x, side="left"))
    if cum[j] == x:
        return float(j)
    return (j - 1) + (x - cum[j - 1]) / (cum[j] - cum[j - 1])


def gem_window(gem: dict, alpha: float, safety: float = 1.1) -> int:
    return max(1, math.ceil(safety * gem_growth_inverse(**gem, x=-math.log(alpha))))


def mtfa_step_cap(threshold: float) -> int:
    """Default step cap of a false-alarm trial: 50 e^b, within [50, 1e7]."""
    return int(min(max(50.0 * math.exp(min(threshold, 30.0)), 50.0), 10_000_000))


def delay_step_cap(gem: dict, threshold: float, nu: int) -> int:
    """Default step cap of a delay trial: nu - 1 + 100 g^{-1}(b), at least 50 steps."""
    horizon = gem_growth_inverse(**gem, x=threshold) if threshold > 0 else 0.0
    return nu - 1 + int(min(max(100.0 * horizon, 50.0), 10_000_000))


def glr_threshold_residual(b: float, alpha: float, volume: float, dim: int,
                           epsilon: float) -> float:
    """|b - (eps d / 2) ln b - (1 + ln(|Theta| / C_d) + |ln alpha|)|."""
    unit_ball = math.pi ** (dim / 2.0) / math.gamma(1.0 + dim / 2.0)
    rhs = 1.0 + math.log(volume / unit_ball) - math.log(alpha)
    return abs(b - epsilon * dim / 2.0 * math.log(b) - rhs)


def midpoint_grid(box, counts) -> np.ndarray:
    """Cell-midpoint grid over a box, rows in lexicographic order."""
    axes = [lo + (np.arange(c) + 0.5) * (hi - lo) / c for (lo, hi), c in zip(box, counts)]
    if len(axes) == 1:
        return axes[0]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def close(a, b) -> bool:
    return bool(np.allclose(a, b, rtol=RTOL, atol=0.0))
