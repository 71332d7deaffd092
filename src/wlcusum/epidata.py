"""Epidemic monitoring on daily case counts.

Pipeline: load daily (or cumulative) case counts, smooth with a trailing
moving average and normalize by population into infection fractions, fit a
Beta law to a quiet pre-change window by matching moments, then watch for the
onset of a wave with a window-limited GLR detector whose post-change family
scales the Beta shape parameter by a bell-shaped multiplier of the days since
onset. A wave-shape fitter recovers that multiplier's parameters offline.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from datetime import date

import numpy as np

from .calibration import glr_threshold
from .detectors import DetectorOutput, WlGlr, theta_grid
from .models import _POSITIVE, _WAVE, BetaWaveModel, _count, _wave

__all__ = [
    "CaseSeries",
    "FractionSeries",
    "BetaFit",
    "WaveFit",
    "MonitorResult",
    "load_case_csv",
    "to_fraction_series",
    "fit_beta_prechange",
    "fit_wave_shape",
    "monitor",
]


@dataclass(frozen=True)
class CaseSeries:
    """Daily new-case counts for one region."""

    dates: tuple
    counts: np.ndarray
    population: float
    region: str = ""

    def __post_init__(self):
        if len(self.dates) != len(self.counts):
            raise ValueError("dates and counts must have equal length")
        _POSITIVE.check("population", self.population)
        if np.any(np.asarray(self.counts) < 0):
            raise ValueError("daily counts must be >= 0")


@dataclass(frozen=True)
class FractionSeries:
    """Smoothed infected fraction per day (moving-averaged counts / population)."""

    dates: tuple
    fractions: np.ndarray
    population: float
    region: str = ""

    def __post_init__(self):
        if len(self.dates) != len(self.fractions):
            raise ValueError("dates and fractions must have equal length")

    def index(self, d: date) -> int:
        try:
            return self.dates.index(d)
        except ValueError:
            raise ValueError(f"date {d.isoformat()} not in series "
                             f"({self.dates[0]} .. {self.dates[-1]})") from None

    def slice(self, start: int, stop: int) -> "FractionSeries":
        return FractionSeries(
            dates=self.dates[start:stop],
            fractions=self.fractions[start:stop],
            population=self.population,
            region=self.region,
        )


def _parse_case_rows(path, rows) -> tuple[tuple, np.ndarray]:
    """Dates and counts of the data rows after the header, skipping blank ones;
    raises one ValueError that lists every malformed row by its line number."""
    problems: list[str] = []
    dates: list[date] = []
    counts: list[float] = []
    for lineno, row in enumerate(rows, start=2):
        if not row or all(not f.strip() for f in row):
            continue
        if len(row) != 2:
            problems.append(f"line {lineno}: expected 2 fields, got {len(row)}")
            continue
        try:
            d = date.fromisoformat(row[0].strip())
        except ValueError:
            problems.append(f"line {lineno}: bad date {row[0]!r}")
            continue
        try:
            c = float(row[1])
        except ValueError:
            problems.append(f"line {lineno}: bad count {row[1]!r}")
            continue
        if not math.isfinite(c) or c < 0:
            problems.append(f"line {lineno}: count must be finite and >= 0, got {row[1]!r}")
            continue
        dates.append(d)
        counts.append(c)
    if problems:
        raise ValueError(f"{path}: malformed rows: " + "; ".join(problems))
    if not dates:
        raise ValueError(f"{path}: no data rows")
    return tuple(dates), np.array(counts, dtype=float)


def load_case_csv(path, population: float, *, cumulative: bool = False,
                  region: str = "") -> CaseSeries:
    """Read a `date,cases` CSV into a CaseSeries.

    Dates must be ISO-8601 and strictly increasing. With cumulative=True the
    column is differenced into daily counts, clamping negative corrections to
    zero. Malformed rows abort with a message listing their line numbers. A
    UTF-8 byte-order mark, as spreadsheet exports write, is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["date", "cases"]:
            raise ValueError(f"{path}: expected header 'date,cases', got {header!r}")
        rows = list(reader)
    try:  # a well-formed file in one pass, column by column
        if set(map(len, rows)) != {2}:
            raise ValueError
        days, cases = zip(*rows)
        dates = tuple(map(date.fromisoformat, map(str.strip, days)))
        counts = np.fromiter(map(float, cases), float, len(cases))
        if not (np.isfinite(counts).all() and (counts >= 0.0).all()):
            raise ValueError
    except ValueError:  # find and report every bad row
        dates, counts = _parse_case_rows(path, rows)
    if not all(map(operator.lt, dates, dates[1:])):
        a, b = next((a, b) for a, b in zip(dates, dates[1:]) if b <= a)
        raise ValueError(f"{path}: dates must be strictly increasing "
                         f"({a.isoformat()} then {b.isoformat()})")
    if cumulative:
        counts = np.clip(np.diff(counts, prepend=0.0), 0.0, None)
    return CaseSeries(dates=dates, counts=counts, population=float(population), region=region)


def to_fraction_series(series: CaseSeries, window: int = 4) -> FractionSeries:
    """Trailing moving average of daily counts divided by the population.

    Output has length len(series) - window + 1; each output day is stamped
    with the last date of its averaging window.
    """
    window = _count("window", window, 1)
    if window > len(series.counts):
        raise ValueError(f"window={window} exceeds the {len(series.counts)}-day series")
    ma = np.convolve(series.counts, np.ones(window) / window, mode="valid")
    fractions = ma / series.population
    if np.any(fractions > 1.0):
        raise ValueError("smoothed counts exceed the population; check the inputs")
    return FractionSeries(
        dates=series.dates[window - 1 :],
        fractions=fractions,
        population=series.population,
        region=series.region,
    )


@dataclass(frozen=True)
class BetaFit:
    """Moment-matched Beta(a0, b0) over a quiet window of fraction data."""

    a0: float
    b0: float
    mean: float
    variance: float
    start_date: date
    num_days: int


def fit_beta_prechange(series: FractionSeries, window_days: int = 20) -> BetaFit:
    """Fit Beta shape parameters by matching the window's mean and variance.

    Uses the last window_days entries of the given series (callers slice the
    series so it ends where monitoring begins). With m the sample mean and v
    the sample variance, c = m(1-m)/v - 1 and (a0, b0) = (m c, (1-m) c); the
    fitted Beta reproduces m and v exactly.
    """
    window_days = _count("window_days", window_days, 2)
    if window_days > len(series.fractions):
        raise ValueError(
            f"window_days={window_days} exceeds the {len(series.fractions)}-day series"
        )
    xs = np.asarray(series.fractions[-window_days:], dtype=float)
    m = float(xs.mean())
    v = float(xs.var(ddof=1))
    # constant data rarely gives v == 0.0 exactly in floats (round-off leaves
    # ~(eps m)^2 behind), so treat anything at that level as degenerate too
    if v <= (1e-12 * max(abs(m), np.finfo(float).tiny)) ** 2:
        raise ValueError("pre-change window has zero variance; cannot fit a Beta law")
    if not (0.0 < m < 1.0):
        raise ValueError(f"pre-change mean {m} must lie strictly inside (0, 1)")
    c = m * (1.0 - m) / v - 1.0
    if c <= 0.0:
        raise ValueError(
            f"window variance {v} is too large for a Beta law at mean {m} "
            "(needs v < m(1-m))"
        )
    return BetaFit(
        a0=m * c,
        b0=(1.0 - m) * c,
        mean=m,
        variance=v,
        start_date=series.dates[-window_days],
        num_days=window_days,
    )


@dataclass(frozen=True)
class WaveFit:
    """Least-squares wave-shape estimate over a fraction series."""

    theta: tuple[float, float, float]
    residual: float
    restarts: int


def _golden_min(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimizer on [lo, hi] over 72 steps; returns (argmin, min)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(72):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    mid = (a + b) / 2.0
    return mid, f(mid)


def _check_theta_box(theta_bounds) -> np.ndarray:
    """theta_bounds as a (3, 2) float array of (lo, hi) pairs, lo < hi, each end in
    its wave parameter's range; a box whose ends are waves holds only waves."""
    box = np.asarray(theta_bounds, dtype=float)
    if box.shape != (3, 2):
        raise ValueError(f"theta bounds must be three (lo, hi) pairs, got {theta_bounds!r}")
    if np.any(box[:, 0] >= box[:, 1]):
        raise ValueError(f"every theta interval needs lo < hi, got {box.tolist()}")
    _WAVE.check("theta box", box.T)  # the lo ends, then the hi ends, as two points
    return box


def fit_wave_shape(
    series: FractionSeries,
    beta: BetaFit,
    theta_bounds,
    *,
    restarts: int = 20,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    seed: int = 0,
) -> WaveFit:
    """Least-squares fit of the wave multiplier to a fraction series.

    Day i of the series is modelled as the post-change Beta mean at lag i:
    a0 h(i) / (a0 h(i) + b0). Minimized by coordinate descent (golden-section
    line searches inside the box) from the box center plus restarts-1 uniform
    starting points; deterministic for a fixed seed, and the best residual can
    only improve as restarts grow. A sweep converges when it shrinks the sum
    of squares by less than a tol fraction (relative, so the data scale does
    not matter).
    """
    box = _check_theta_box(theta_bounds)
    restarts, max_iter = _count("restarts", restarts, 1), _count("max_iter", max_iter, 0)
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed}")
    # a sweep never grows the sum, so a tol <= 0 never converges
    tol = _POSITIVE.check("tol", tol)
    y = np.asarray(series.fractions, dtype=float)
    if len(y) < 3:
        raise ValueError("need at least 3 days of data to fit a wave")
    lags = np.arange(len(y), dtype=float)

    def loss(theta) -> float:
        # unchecked: every theta tried lies in the checked box (line searches stay
        # inside it, pattern moves are clipped into it)
        a1 = beta.a0 * _wave(tuple(theta.tolist()), lags)
        pred = a1 / (a1 + beta.b0)
        return float(np.sum((y - pred) ** 2))

    rng = np.random.default_rng(seed)
    starts = [box.mean(axis=1)]
    for _ in range(restarts - 1):
        starts.append(rng.uniform(box[:, 0], box[:, 1]))

    best_theta, best_loss = None, math.inf
    any_converged = False
    for start in starts:
        theta = np.array(start, dtype=float)
        current = loss(theta)
        for _ in range(max_iter):
            previous = current
            sweep_origin = theta.copy()
            for dim in range(3):
                def along(v, dim=dim):
                    trial = theta.copy()
                    trial[dim] = v
                    return loss(trial)

                v, fv = _golden_min(along, box[dim, 0], box[dim, 1])
                if fv < current:
                    theta[dim] = v
                    current = fv
            # Pattern move: a line search along the sweep's net displacement
            # cuts the zigzag that plain coordinate steps take through the
            # correlated height/width valley of the wave multiplier.
            direction = theta - sweep_origin
            if np.any(direction != 0.0):
                with np.errstate(divide="ignore", invalid="ignore"):
                    to_lo = (box[:, 0] - theta) / direction
                    to_hi = (box[:, 1] - theta) / direction
                reach = np.where(direction > 0, to_hi, to_lo)
                t_max = float(np.min(np.where(direction == 0.0, np.inf, reach)))
                if t_max > 0.0:
                    def along_dir(t):
                        return loss(np.clip(theta + t * direction, box[:, 0], box[:, 1]))

                    t_best, f_best = _golden_min(along_dir, 0.0, min(t_max, 50.0))
                    if f_best < current:
                        theta = np.clip(theta + t_best * direction, box[:, 0], box[:, 1])
                        current = f_best
            if previous - current < tol * max(current, np.finfo(float).tiny):
                any_converged = True
                break
        if current < best_loss:
            best_theta, best_loss = theta.copy(), current
    fit = WaveFit(theta=tuple(float(v) for v in best_theta), residual=best_loss,
                  restarts=restarts)
    if not any_converged:
        err = RuntimeError(
            f"wave fit did not converge within {max_iter} sweeps from any of "
            f"{restarts} starts; best residual {best_loss:.6g} at theta {fit.theta}"
        )
        err.best = fit
        raise err
    return fit


@dataclass
class MonitorResult:
    """Full monitoring trajectory plus the first threshold crossing."""

    dates: tuple
    outputs: list[DetectorOutput]
    threshold: float
    first_alarm_index: int | None

    @property
    def first_alarm_date(self) -> date | None:
        if self.first_alarm_index is None:
            return None
        return self.dates[self.first_alarm_index]


def monitor(
    series: FractionSeries,
    beta: BetaFit,
    theta_box,
    alpha: float = 1e-3,
    window: int = 20,
    *,
    grid_counts=(10, 10, 10),
    epsilon: float = 1.0,
    threshold: float | None = None,
) -> MonitorResult:
    """Run the window-limited GLR detector over a fraction series.

    The detector keeps stepping after the first crossing so the full
    trajectory is available; first_alarm_index marks the declared onset.
    Fractions equal to 0 are clamped to half the smallest positive fraction
    (the Beta likelihoods need the open interval); fractions at or above 1,
    or negative, are errors. The threshold defaults to the GLR calibration at
    alpha over the box volume; pass threshold= to override.
    """
    box = _check_theta_box(theta_box)
    x = np.asarray(series.fractions, dtype=float).copy()
    if len(x) == 0:
        raise ValueError("empty series")
    if np.any((x < 0.0) | (x >= 1.0) | ~np.isfinite(x)):
        raise ValueError("fractions must lie in [0, 1); clean the series first")
    positive = x[x > 0.0]
    if len(positive) == 0:
        raise ValueError("series is identically zero; nothing to monitor")
    x[x == 0.0] = positive.min() / 2.0
    if threshold is None:
        volume = float(np.prod(box[:, 1] - box[:, 0]))
        threshold = glr_threshold(alpha, volume, 3, epsilon)
    model = BetaWaveModel(a0=beta.a0, b0=beta.b0, theta=tuple(box.mean(axis=1)))
    detector = WlGlr(model, threshold, window, theta_grid(box, grid_counts))
    outputs = list(map(detector.step, x.tolist()))
    first = next((i for i, out in enumerate(outputs) if out.alarm), None)
    return MonitorResult(
        dates=series.dates,
        outputs=outputs,
        threshold=float(threshold),
        first_alarm_index=first,
    )
