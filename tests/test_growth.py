"""Growth curves, their inverses, and the regularity diagnostics."""

import math
import signal
import warnings

import numpy as np
import pytest

from wlcusum import growth
from wlcusum.growth import GrowthCurve, check_growth_condition, lemma1_diagnostics
from wlcusum.models import BetaWaveModel, DecayModel, GemModel, ObservationModel

GEM_GROWTH_N2 = 1.4762462210062797      # GemModel(1,1,1): KL(0) + KL(1)
DECAY_GROWTH_N2 = 0.8789291416275995    # Decay(2,4,0.2): 0.5 + 0.37892914...
GEM_FIG1_INVERSE = 20.740623031684613   # GemModel(0.1,1e4,0.4) at x = |ln 1e-3|
DECAY_INVERSE_CONST = 1.355091881588681  # (1.2)^(5/3) for Decay(2,4,0.2)
COUNTY_LAW = BetaWaveModel(20.6, 2.94e5, (0.464, 3.894, 0.445))
COUNTY_TOTAL_DRIFT = 96.28531887763782  # g(20) of the county law; g is flat from n = 8


class _Increments(ObservationModel):
    """A model that is nothing but its KL increments, kl(lags)."""

    def __init__(self, kl):
        self.expected_llr_lags = kl


def test_growth_frozen_values():
    gem = GrowthCurve(GemModel(1.0, 1.0, 1.0))
    assert gem.growth(0) == 0.0
    assert gem.growth(1) == 0.0  # lag-0 divergence vanishes for this family
    np.testing.assert_allclose(gem.growth(2), GEM_GROWTH_N2, rtol=1e-14)

    decay = GrowthCurve(DecayModel(2.0, 4.0, 0.2))
    np.testing.assert_allclose(decay.growth(1), 0.5, rtol=1e-14)
    np.testing.assert_allclose(decay.growth(2), DECAY_GROWTH_N2, rtol=1e-14)


def test_growth_matches_divergence_cumsum():
    model = GemModel(0.1, 1e4, 0.4)
    curve = GrowthCurve(model)
    want = np.cumsum(model.expected_llr_lags(np.arange(20)))
    got = np.array([curve.growth(n) for n in range(1, 21)])
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_gem_fig1_inverse_frozen():
    curve = GrowthCurve(GemModel(0.1, 1e4, 0.4))
    np.testing.assert_allclose(
        curve.growth_inverse(-math.log(1e-3)), GEM_FIG1_INVERSE, rtol=1e-12
    )


@pytest.mark.parametrize(
    "model",
    [GemModel(0.1, 1e4, 0.4), DecayModel(2.0, 4.0, 0.2)],
    ids=["gem", "decay"],
)
def test_inverse_round_trip_at_knots(model):
    curve = GrowthCurve(model)
    for n in range(2, 40):
        np.testing.assert_allclose(
            curve.growth_inverse(curve.growth(n)), n, rtol=1e-12
        )


def test_inverse_linear_between_knots():
    curve = GrowthCurve(DecayModel(2.0, 4.0, 0.2))
    for n in range(1, 10):
        mid = 0.5 * (curve.growth(n) + curve.growth(n + 1))
        np.testing.assert_allclose(curve.growth_inverse(mid), n + 0.5, rtol=1e-12)


def test_inverse_monotone_sweep():
    curve = GrowthCurve(GemModel(0.1, 1e4, 0.4))
    xs = np.linspace(0.0, 30.0, 200)
    ts = np.array([curve.growth_inverse(x) for x in xs])
    assert np.all(np.diff(ts) >= 0)


def test_inverse_of_zero_walks_the_plateau():
    # GEM is flat at zero through n=1; the inverse picks the largest such time
    assert GrowthCurve(GemModel(1.0, 1.0, 1.0)).growth_inverse(0.0) == 1.0
    # Decay grows immediately, so only n=0 maps to zero
    assert GrowthCurve(DecayModel(2.0, 4.0, 0.2)).growth_inverse(0.0) == 0.0


def test_inverse_takes_the_last_knot_of_a_plateau_mid_curve():
    # increments 1, 0, 0, 1, 1, ...: g = 0, 1, 1, 1, 2, 3, ...
    curve = GrowthCurve(_Increments(lambda lags: np.where((lags == 1) | (lags == 2), 0.0, 1.0)))
    assert curve.growth_inverse(1.0) == 3.0
    assert curve.growth_inverse(0.5) == 0.5
    assert curve.growth_inverse(1.5) == 3.5
    assert curve.growth_inverse(2.0) == 4.0


def test_inverse_at_the_total_drift_raises_at_once():
    def give_up(signum, frame):
        raise TimeoutError("growth_inverse at the total drift did not return within 10 s")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # past the peak
        assert GrowthCurve(COUNTY_LAW).growth(20) == COUNTY_TOTAL_DRIFT
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        with pytest.raises(ValueError, match="exceeds the total drift"):
            GrowthCurve(COUNTY_LAW).growth_inverse(COUNTY_TOTAL_DRIFT)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_knots_do_not_depend_on_earlier_queries():
    model = DecayModel(2.0, 4.0, 0.2)
    fresh = GrowthCurve(model).growth(300)
    for k in range(1, 200):
        curve = GrowthCurve(model)
        curve.growth(k)
        assert curve.growth(300) == fresh, k
    primed, clean = GrowthCurve(model), GrowthCurve(model)
    primed.growth(5)
    for x in np.linspace(1.0, 200.0, 400):
        assert primed.growth_inverse(x) == clean.growth_inverse(x), x


def test_inverse_past_the_total_drift_does_not_extend_again():
    curve = GrowthCurve(COUNTY_LAW)
    for _ in range(18):
        with pytest.raises(ValueError, match="decayed to nothing at n=128 with g="):
            curve.growth_inverse(100.0)


def test_inverse_argument_errors():
    curve = GrowthCurve(GemModel(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        curve.growth_inverse(-0.5)
    # a saturating curve can never reach 2.0: increments sum to pi^2/6
    flat = GrowthCurve(_Increments(lambda lags: 1.0 / (lags + 1.0) ** 2))
    with pytest.raises(ValueError):
        flat.growth_inverse(2.0)


def test_saturating_inverse_stops_at_the_cap():
    # the refused doubling is never made: the cache ends at the cap, not past it
    flat = GrowthCurve(_Increments(lambda lags: 1.0 / (lags + 1.0) ** 2))
    with pytest.raises(ValueError, match="saturated"):
        flat.growth_inverse(2.0)
    assert len(flat._cum) - 1 == growth._SATURATION_CAP


def test_gem_growth_asymptotic_ratio():
    """g(n) ~ [e^{2 theta}/(e^{2 theta}-1)] (mu0^2 / 2 sigma0^2) e^{2 theta (n-1)}."""
    mu0, s0, th = 0.1, 1e4, 0.4
    curve = GrowthCurve(GemModel(mu0, s0, th))
    lead = math.exp(2 * th) / (math.exp(2 * th) - 1.0) * mu0**2 / (2 * s0)
    for n in (30, 40):
        np.testing.assert_allclose(
            curve.growth(n) / (lead * math.exp(2 * th * (n - 1))), 1.0, rtol=1e-4
        )
    # for strong drifts the geometric-series factor is ~1 and the bare
    # exponential alone already matches
    strong = GrowthCurve(GemModel(1.0, 1.0, 3.0))
    bare = 0.5 * math.exp(2 * 3.0 * 9)
    assert 1.0 <= strong.growth(10) / bare <= 1.01


def test_decay_inverse_asymptotic():
    """g^{-1}(x) ~ [(1-2 theta)(2 sigma^2/mu1^2) x]^{1/(1-2 theta)}."""
    curve = GrowthCurve(DecayModel(2.0, 4.0, 0.2))
    x = 1e3
    want = DECAY_INVERSE_CONST * x ** (1.0 / 0.6)
    assert abs(curve.growth_inverse(x) / want - 1.0) < 0.05


def test_growth_condition_gem_and_decay_hold():
    gem = check_growth_condition(GrowthCurve(GemModel(0.1, 1e4, 0.4)), 100.0)
    assert gem.satisfied
    assert gem.x.shape == gem.ratio.shape
    decay = check_growth_condition(GrowthCurve(DecayModel(2.0, 4.0, 0.2)), 100.0)
    assert decay.satisfied


def test_growth_condition_fails_for_log_curve():
    """g(n) = ln(n+1) gives g^{-1}(x) = e^x - 1: log g^{-1}(x) / x tends to 1."""
    curve = GrowthCurve(_Increments(lambda lags: np.log((lags + 2.0) / (lags + 1.0))))
    report = check_growth_condition(curve, 12.0)
    assert not report.satisfied


def test_growth_condition_fails_where_the_curve_saturates():
    # the county wave's total drift, 96.29, lies between grid points 79.43 and 100
    report = check_growth_condition(GrowthCurve(COUNTY_LAW), 100.0)
    assert not report.satisfied
    assert report.x_max == 100.0
    assert report.x.shape == report.ratio.shape == (20,)
    assert np.all(report.x < COUNTY_TOTAL_DRIFT)


def test_growth_condition_report_dict():
    report = check_growth_condition(GrowthCurve(GemModel(0.1, 1e4, 0.4)), 50.0)
    assert report.satisfied is True
    assert report.x_max == 50.0
    assert report.x[0] == 1.0 and report.x[-1] == pytest.approx(50.0)
    assert report.x.shape == report.ratio.shape == (18,)  # 10 points per decade


def test_growth_condition_argument_errors():
    curve = GrowthCurve(GemModel(0.1, 1e4, 0.4))
    with pytest.raises(ValueError):
        check_growth_condition(curve, 1.0)  # needs more than one decade
    with pytest.raises(ValueError):
        check_growth_condition(curve, 50.0, points_per_decade=0)


@pytest.mark.parametrize("mu0, s0", [(1.0, 1.0), (0.5, 2.0)])
def test_lemma1_gem_variance_ratio_is_two_over_growth(mu0, s0):
    """Cumulative LLR variance equals twice the growth for the GEM family."""
    model = GemModel(mu0, s0, 0.4)
    report = lemma1_diagnostics(model, n_max=12)
    curve = GrowthCurve(model)
    want = np.array([2.0 / curve.growth(n) for n in range(2, 13)])
    np.testing.assert_allclose(report.variance_ratio, want, rtol=1e-12)
    assert list(report.ns) == list(range(2, 13))


def test_lemma1_time_shift_sign():
    # earlier true changes only increase the expected GEM statistic ...
    gem = lemma1_diagnostics(GemModel(0.1, 1e4, 0.4), n_max=10)
    assert gem.time_shift_min >= -1e-12
    # ... but decrease it for decaying signals, which the report exposes
    decay = lemma1_diagnostics(DecayModel(2.0, 4.0, 0.2), n_max=10)
    assert decay.time_shift_min < 0.0


def test_lemma1_report_dict_and_validation():
    report = lemma1_diagnostics(GemModel(1.0, 1.0, 1.0), n_max=5)
    assert list(report.ns) == [2, 3, 4, 5]
    assert report.variance_ratio.shape == (4,)
    assert isinstance(report.time_shift_min, float)
    with pytest.raises(ValueError):
        lemma1_diagnostics(GemModel(1.0, 1.0, 1.0), n_max=1)


def test_lemma1_stops_where_gem_sums_overflow():
    # theta = 0.4: g(n)^2 overflows from n = 463, llr_terms pins lags 888 and up
    report = lemma1_diagnostics(GemModel(0.1, 1e4, 0.4), n_max=1000)
    assert list(report.ns) == list(range(2, 463))
    assert np.all(np.isfinite(report.variance_ratio))
    assert np.all(report.variance_ratio > 0.0)
    assert report.pinned_lags == 1000 - 888
    assert report.time_shift_min == 0.0  # lag 0 has slope 0; no NaN slipped past min
    assert len(report.ns) == len(report.variance_ratio) == 461


def test_betawave_growth_warns_past_peak():
    curve = GrowthCurve(COUNTY_LAW)
    with pytest.warns(RuntimeWarning):
        curve.growth(10)  # lags past the wave peak: divergence shrinks again


def test_betawave_inverse_warns_only_past_peak():
    model = BetaWaveModel(20.6, 2.94e5, (0.464, 3.894, 0.445))
    for x in (0.5, -math.log(1e-3)):  # answers 3.10 and 4.02, before knot 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            GrowthCurve(model).growth_inverse(x)
    with pytest.warns(RuntimeWarning):
        GrowthCurve(model).growth_inverse(96.0)  # needs knot 6, past the peak


@pytest.mark.parametrize("model, first_zero", [
    (BetaWaveModel(5.0, 20.0, (0.0, 10.0, 3.0)), 36),  # slope*mean + intercept < 0 at lag 27
    (BetaWaveModel(20.6, 2.94e5, (0.464, 3.894, 0.445)), 8),  # it leaves +1.1e-10 per lag
])
def test_betawave_drift_stops_where_the_wave_dies_out(model, first_zero):
    """Past the wave the KL increments are exactly 0, not rounding noise of either sign."""
    lags = np.arange(200)
    kl = model.expected_llr_lags(lags)
    assert np.all(kl >= 0.0)
    slopes, _ = model.llr_terms(lags)
    assert np.flatnonzero(slopes == 0.0)[0] == first_zero
    assert np.all(kl[first_zero:] == 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # past the peak
        total = GrowthCurve(model).growth(first_zero)
        # the inverse gives up after two doublings, not tens of millions of knots
        with pytest.raises(ValueError, match="exceeds the total drift") as exc:
            GrowthCurve(model).growth_inverse(100.0)
    assert f"decayed to nothing at n=128 with g={total!r};" in str(exc.value)


def test_growth_curve_constructor_validation():
    with pytest.raises(ValueError):
        GrowthCurve(GemModel(1.0, 1.0, 1.0)).growth(-1)
