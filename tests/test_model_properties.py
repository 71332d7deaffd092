"""Streams with extreme and boundary observations: every detector step is the
defining direct sum, and every density a float or -inf, for any x a model accepts."""

import math
import re

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from wlcusum.detectors import FullCusum, SrStatistic, WlCusum, WlGlr, logsumexp, theta_grid
from wlcusum.models import BetaWaveModel, DecayModel, GemModel, SupportError

GEM = GemModel(0.1, 1e4, 0.4)
# each model with the wl-glr grid its streams use; the first dead lag of GEM at theta =
# 0.4, 0.694, 1.387 and 10 is 888, 512, 256 and 36, and a grid bank is cut only where
# every column is dead (theta = 0.1 keeps live terms far past 888)
MODELS = {
    "gem": (GEM, np.linspace(0.1, 0.5, 3)),
    "decay": (DecayModel(2.0, 4.0, 0.2), np.linspace(0.05, 0.45, 3)),
    "wave": (BetaWaveModel(5.0, 20.0, (0.5, 10.0, 4.0)),
             theta_grid(((0.0, 1.0), (5.0, 15.0), (1.0, 5.0)), (2, 1, 2))),
    "gem-fast": (GemModel(0.1, 1e4, 10.0), np.array([10.0, 12.0, 20.0])),
    # for the examples only: dead lags equal to a full-history bank's old cap
    "gem-512": (GemModel(0.1, 1e4, 0.694), np.array([0.694, 1.387])),
    "gem-256": (GemModel(0.1, 1e4, 1.387), np.array([1.387, 3.0])),
}
EXTREMES = [1e308, -1e308, 1e155, 5e-324, -5e-324, 1.0 - 2.0**-53, 0.0, 1.0, math.inf,
            -math.inf, math.nan]
DETECTORS = {
    "wl-cusum": lambda model, grid, b, m: WlCusum(model, b, m),
    "full-cusum": lambda model, grid, b, m: FullCusum(model, b),
    "wl-glr": lambda model, grid, b, m: WlGlr(model, b, m, grid),
    "sr": lambda model, grid, b, m: SrStatistic(model, b),
}
THRESHOLDS = [2.0, 8.0, 50.0, 1e308, math.inf]


@st.composite
def _streams(draw, names=("gem", "decay", "wave")):
    """A model and a stream of its own draws with extreme values put in."""
    name = draw(st.sampled_from(names))
    model = MODELS[name][0]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    nu = draw(st.sampled_from([math.inf, 1, 30]))
    xs = model.sample_segment(rng, nu, 1, draw(st.integers(1, 120))).tolist()
    for _ in range(draw(st.integers(0, 8))):
        xs.insert(draw(st.integers(0, len(xs))), draw(st.sampled_from(EXTREMES)))
    return name, xs


def _accepts(model, x) -> bool:
    try:
        model.sufficient_stat(x)
    except SupportError:
        return False
    return True


def _bits(v):
    return np.float64(v).tobytes()


def _direct_sums(model, grid, window, stats):
    """The definition, for a whole stream of sufficient statistics s_1 .. s_N.

    Entry (k, l, g) of the result is lambda_{k+l, k} = sum over j <= l of
    Z(s_{k+j}; j) at grid point g, by one add.accumulate along the lags of the
    table Z(s_{k+l}; l) = slope(l) s_{k+l} + intercept(l), zero-padded past
    step N. The lags kept are those inside the window and below the first lag
    that is dead (slope 0, intercept -inf) at every grid point; the lag-0
    intercept is stored as +0.0, so a new hypothesis never reads -0.0.
    """
    lags = max(len(stats) if window is None else min(len(stats), window + 1), 1)
    terms = model if grid is None else model.with_theta(grid)
    slopes, intercepts = terms.llr_terms(np.arange(lags)[:, None])
    dead = ((slopes == 0.0) & (intercepts == -np.inf)).all(axis=1)
    if dead.any():
        lags = int(dead.argmax())
        slopes, intercepts = slopes[:lags], intercepts[:lags]
    intercepts[0] += 0.0
    padded = np.concatenate([stats, np.zeros(lags - 1)])
    with np.errstate(all="ignore"):
        z = np.lib.stride_tricks.sliding_window_view(padded, lags)[..., None] * slopes
        z += intercepts
        return np.add.accumulate(z, axis=1)


def _steps(det, xs, kind, threshold, sums, points):
    """Steps det through xs, checks each step against the direct sums and returns its record."""
    record, n = [], 0
    for x in xs:
        if not _accepts(det.model, x):
            before = det._lam.tobytes(), det.time
            with pytest.raises(SupportError) as refusal:
                det.step(x)
            assert (det._lam.tobytes(), det.time) == before  # the state is unchanged
            record.append(str(refusal.value))
            continue
        n += 1
        ks = np.arange(max(n - sums.shape[1], 0), n)
        bank = sums[ks, n - 1 - ks]  # the window after step n, oldest hypothesis first
        if np.isnan(bank).any():
            with pytest.raises(FloatingPointError, match=f"at step {n}$") as refusal:
                det.step(x)
            record.append(str(refusal.value))
        else:
            out = det.step(x)
            best = bank.max()
            if best < 0.0:  # the empty hypothesis k = n + 1
                want = 0.0, n + 1, None
            else:
                row, column = np.argwhere(bank == best)[0]  # the smallest k, then the first point
                want = bank[row, column], n - len(bank) + 1 + row, points[column]
            if kind == "sr":  # R = e^{log R} from the sum newest first, +inf past a float
                log_r = logsumexp(bank[::-1])
                assert _bits(det.log_value) == _bits(log_r)
                try:
                    r = math.exp(log_r)
                except OverflowError:
                    r = math.inf
                want = (r, *want[1:])
            statistic, k_star, theta_hat = want
            assert math.isfinite(statistic) or statistic == math.inf
            assert (_bits(out.statistic), out.time, out.k_star, out.theta_hat, out.alarm) == (
                _bits(statistic), n, k_star, theta_hat, statistic >= threshold)
            record.append(out)
        assert det.time == n and det._lam.tobytes() == bank.tobytes()
    return record


def _draws(name, seed, nu, length):
    return MODELS[name][0].sample_segment(np.random.default_rng(seed), nu, 1, length).tolist()


# the streams random draws cannot reach: GEM before the change through a full-history
# bank's table doublings and its cut at the dead lag 888; GEM after the change, whose
# live lags overflow to +inf from about step 920 (a bank reaching that far steps hot);
# dead lags equal to the old cap of a doubling bank; decay and the Beta wave, which keep
# every hypothesis
GEM_PRE = ("gem", _draws("gem", 3, math.inf, 1200))
GEM_POST = ("gem", _draws("gem", 5, 1, 1000))
LONG = [(GEM_PRE, kind, 8.0, m) for kind, m in [("full-cusum", None), ("wl-cusum", 2000),
                                                 ("wl-glr", 1000)]]
LONG += [(GEM_POST, kind, 8.0, m) for kind, m in [("full-cusum", None), ("wl-cusum", 2000)]]
LONG += [((name, _draws(name, 23, math.inf, dead + 100)), kind, 5.0, 1000)
         for name, dead in [("gem-512", 512), ("gem-256", 256)]
         for kind in ("full-cusum", "sr", "wl-glr")]
LONG += [((name, _draws(name, 17, 600, 1150)), kind, 1e9, None)
         for name in ("decay", "wave") for kind in ("full-cusum", "sr")]
# -1e308 drives the older hypotheses to -inf and 1e308 next adds +inf to them: a NaN bank
NAN_BANK = ("gem", _draws("gem", 7, math.inf, 39) + [-1e308, 1e308, 1.0, 2.0])


def _long_examples(test):
    for example in [*LONG, *[(NAN_BANK, kind, math.inf, 1000) for kind in DETECTORS]]:
        test = hypothesis.example(*example)(test)
    return test


@_long_examples
@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(_streams(("gem", "decay", "wave", "gem-fast")),
                  st.sampled_from(sorted(DETECTORS)),
                  st.sampled_from(THRESHOLDS), st.one_of(st.integers(0, 40), st.just(2000)))
# log R = 4.9e302 overflows R itself, which must then read +inf and alarm
@hypothesis.example(("gem", [1.0, 1e308]), "sr", 1e308, 0)
def test_every_statistic_is_finite_or_inf(stream, kind, threshold, window):
    """Each step of each detector is its definition, bit for bit: the statistic, k*,
    theta_hat, the alarm and the bank equal the direct sums of llr_terms over the window
    (log R their logsumexp for SR); a refused x leaves the state as it was, a NaN in the
    window raises, and after reset the detector replays the stream identically. Steps
    run with warnings as errors, so an overflow the bank does not expect fails."""
    name, xs = stream
    model, grid = MODELS[name]
    det = DETECTORS[kind](model, grid, threshold, window)
    grid = grid if kind == "wl-glr" else None
    points = [None] if grid is None else [p if grid.ndim == 1 else tuple(p) for p in grid.tolist()]
    stats = np.array([model.sufficient_stat(x) for x in xs if _accepts(model, x)])
    sums = _direct_sums(model, grid, None if kind in ("full-cusum", "sr") else window, stats)
    record = _steps(det, xs, kind, threshold, sums, points)
    det.reset()
    assert _replay(det, xs) == record


def _replay(det, xs):
    record = []
    for x in xs:
        try:
            record.append(det.step(x))
        except (SupportError, FloatingPointError) as refusal:
            record.append(str(refusal))
    return record


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(_streams(), st.sampled_from([0, 1, 30, 2000]))
# the squared distance overflows, for one density or both
@hypothesis.example(("gem", [1e155, 1.0]), 1000)
@hypothesis.example(("decay", [-1e308]), 0)
def test_every_density_is_a_float_or_minus_inf(stream, lag):
    name, xs = stream
    model = MODELS[name][0]
    for x in filter(lambda x: _accepts(model, x), xs):
        values = [model.log_pre_density(x), model.log_post_density(x, lag + 1, 1)]
        for value in values:
            assert isinstance(value, float)
            assert math.isfinite(value) or value == -math.inf
        if values == [-math.inf, -math.inf]:
            with pytest.raises(FloatingPointError, match=re.escape(repr(x))):
                model.log_likelihood_ratio(x, lag + 1, 1)
        else:
            assert not math.isnan(model.log_likelihood_ratio(x, lag + 1, 1))
