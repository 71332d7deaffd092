"""The hypothesis bank's storage rules: dead-lag eviction and the SR reduction."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from wlcusum import detectors
from wlcusum.detectors import FullCusum, SrStatistic, WlCusum, WlGlr
from wlcusum.models import BetaWaveModel, DecayModel, GemModel
from wlcusum.montecarlo import TrialPlan, run_trials

GEM = GemModel(0.1, 1e4, 0.4)
GEM_DEAD_LAG = 888  # first lag whose GEM (theta = 0.4) terms overflow and are pinned
COUNTY = BetaWaveModel(20.6, 2.94e5, (0.464, 3.894, 0.445))


def _bits(v):
    return np.float64(v).tobytes()


@pytest.mark.parametrize("make", [lambda: WlCusum(GEM, 8.0, 2000), lambda: FullCusum(GEM, 8.0)],
                         ids=["WlCusum", "FullCusum"])
def test_post_change_overflow_alarms_instead_of_nan(make):
    # about 920 lags after the change slope * s overflows to +inf at live lags;
    # such an entry is evicted at the dead lag instead of meeting its -inf intercept
    xs = GEM.sample_segment(np.random.default_rng(5), 1, 1, 1000)
    det = make()
    with np.errstate(over="ignore"):
        outs = [det.step(x) for x in xs]
    stats = np.array([o.statistic for o in outs])
    assert not np.isnan(stats).any()
    assert np.isinf(stats).any()
    assert all(o.alarm for o in outs if math.isinf(o.statistic))
    assert det.window == (2000 if isinstance(det, WlCusum) else None)


def test_full_cusum_on_gem_is_window_limited_at_the_dead_lag():
    xs = GEM.sample_segment(np.random.default_rng(11), math.inf, 1, 3000)
    full = FullCusum(GEM, 5.0)
    wl = WlCusum(GEM, 5.0, GEM_DEAD_LAG - 1)
    for x in xs:
        a, b = full.step(x), wl.step(x)
        assert _bits(a.statistic) == _bits(b.statistic)
        assert a.k_star == b.k_star
    assert len(full.hypotheses()) <= GEM_DEAD_LAG
    assert full.window is None


def test_glr_bank_is_cut_only_where_every_column_is_dead():
    # theta = 0.1 keeps live terms far past 888, so no lag of the window is dead
    # in both columns; theta = 0.5 dies before theta = 0.4, so 888 is the cut
    xs = GEM.sample_segment(np.random.default_rng(13), math.inf, 1, 1100)
    mixed = WlGlr(GEM, 1e9, 1000, np.array([0.1, 0.4]))
    dead = WlGlr(GEM, 1e9, 1000, np.array([0.4, 0.5]))
    for x in xs:
        mixed.step(x)
        dead.step(x)
    assert len(mixed._lam) == 1001
    assert len(dead._lam) == GEM_DEAD_LAG


# GEM thetas whose first dead lag is a power of two: a full-history bank finds
# it when its tables double from that very cap, with the bank already full
DEAD_AT_OLD_CAP = [(0.694, 512), (1.387, 256)]


@pytest.mark.parametrize("theta, dead_lag", DEAD_AT_OLD_CAP)
def test_full_history_banks_stop_at_a_dead_lag_equal_to_the_old_cap(theta, dead_lag):
    model = GemModel(0.1, 1e4, theta)
    xs = model.sample_segment(np.random.default_rng(23), math.inf, 1, dead_lag + 100)
    full, sr = FullCusum(model, 5.0), SrStatistic(model)
    wl = WlCusum(model, 5.0, dead_lag - 1)
    for x in xs:
        a, b = full.step(x), wl.step(x)
        sr.step(x)
        assert _bits(a.statistic) == _bits(b.statistic)
        assert a.k_star == b.k_star
    assert len(full._lam) == len(sr._lam) == dead_lag


@pytest.mark.parametrize("theta, dead_lag", DEAD_AT_OLD_CAP)
def test_lockstep_full_cusum_stops_at_a_dead_lag_equal_to_the_old_cap(theta, dead_lag):
    # the change comes after the dead lag, so every trial steps through the cut
    def plan(detector, window):
        return TrialPlan(model=GemModel(0.1, 1e4, theta), detector=detector, threshold=8.0,
                         window=window, nu=dead_lag + 50, num_trials=6, seed=3,
                         max_steps=dead_lag + 150)

    times, censored = run_trials(plan("full-cusum", None))
    wl_times, wl_censored = run_trials(plan("wl-cusum", dead_lag - 1))
    assert times.tolist() == wl_times.tolist()
    assert censored.tolist() == wl_censored.tolist()


@pytest.mark.parametrize("model", [DecayModel(2.0, 4.0, 0.2), COUNTY], ids=["decay", "betawave"])
@pytest.mark.parametrize("make", [lambda m: FullCusum(m, 1e9), SrStatistic],
                         ids=["FullCusum", "SrStatistic"])
def test_models_without_dead_lags_keep_every_hypothesis(model, make):
    det = make(model)
    for x in model.sample_segment(np.random.default_rng(17), math.inf, 1, 1100):
        det.step(x)
    assert len(det._lam) == 1100


EDGE_ARRAYS = [
    [0.0], [-0.0], [0.0, -0.0], [-0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 1.0, 2.0, -3.0],
    [math.inf], [-math.inf], [-math.inf, -math.inf], [math.inf, math.inf], [math.inf, 1.0],
    [math.inf, -math.inf], [-math.inf, 3.0], [math.nan], [math.nan, 1.0], [math.inf, math.nan],
    [1e308, 1e308], [-1e308, 0.0], [710.0, 709.0], [-745.0, 0.0], [5e-324, 0.0],
]


@pytest.mark.parametrize("a", EDGE_ARRAYS, ids=[repr(a) for a in EDGE_ARRAYS])
def test_logsumexp_matches_scipy_on_edges(a):
    with np.errstate(all="ignore"):
        assert _bits(detectors.logsumexp(np.array(a))) == _bits(scipy_logsumexp(np.array(a)))


def test_logsumexp_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(19)
    for size in [*range(1, 40), 127, 128, 129, 300, 1000, 3001]:
        for scale in (1e-3, 1.0, 50.0, 1e3):
            a = rng.normal(0.0, scale, size)
            if size > 3:
                a[rng.integers(size, size=2)] = a.max()  # ties at the max
            for arr in (a, a.reshape(-1, 1), a.reshape(-1, 1)[::-1]):
                assert _bits(detectors.logsumexp(arr)) == _bits(scipy_logsumexp(arr))
