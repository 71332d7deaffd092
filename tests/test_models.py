"""Observation models: densities, LLR coefficients, moments, sampling."""

import itertools
import math

import numpy as np
import pytest

from wlcusum.models import (
    BetaWaveModel,
    DecayModel,
    GemModel,
    SupportError,
    build_model,
    wave_multiplier,
)

# Frozen expected values, computed independently before the implementation:
# normal log-densities from the closed form, Beta divergences from the
# digamma/trigamma identities, everything else from direct arithmetic.
GEM_LOG_PRE_AT_1 = -0.9189385332046727          # N(1,1) at x=1
DECAY_LOG_PRE_AT_0 = -1.612085713764618         # N(0,4) at x=0
GEM_LLR_X0_LAG1 = -3.1945280494653248           # GemModel(1,1,1), x=0, lag 1
GEM_EXPECTED_LLR_LAG1 = 1.4762462210062797      # GemModel(1,1,1) KL at lag 1
DECAY_EXPECTED_LLR_LAG0 = 0.5                   # Decay(2,4,0.2) KL at lag 0
DECAY_EXPECTED_LLR_LAG1 = 0.3789291416275995    # Decay(2,4,0.2) KL at lag 1
COUNTY_THETA = (0.464, 3.894, 0.445)
COUNTY_KL_LAG2 = 6.125375936499866e-06          # digamma closed form
COUNTY_KL_LAG4 = 90.40086644624944
COUNTY_LLR_VAR_LAG2 = 1.2248611921218068e-05    # trigamma closed form
COUNTY_H_PEAK = 7.540937343969899               # 1 + 10^0.464 / 0.445
COUNTY_MEAN = 7.006311802642401e-05             # a0 / (a0 + b0)


def test_gem_log_pre_density_frozen():
    model = GemModel(1.0, 1.0, 1.0)
    np.testing.assert_allclose(model.log_pre_density(1.0), GEM_LOG_PRE_AT_1, rtol=1e-14)


def test_decay_log_pre_density_frozen():
    model = DecayModel(2.0, 4.0, 0.2)
    np.testing.assert_allclose(model.log_pre_density(0.0), DECAY_LOG_PRE_AT_0, rtol=1e-14)


def test_beta_uniform_log_density_is_zero():
    model = BetaWaveModel(1.0, 1.0, (0.1, 1.0, 1.0))
    np.testing.assert_allclose(model.log_pre_density(0.5), 0.0, atol=1e-14)


def test_gem_llr_frozen_value():
    model = GemModel(1.0, 1.0, 1.0)
    np.testing.assert_allclose(
        model.log_likelihood_ratio(0.0, n=2, k=1), GEM_LLR_X0_LAG1, rtol=1e-12
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "model",
    [
        GemModel(0.1, 1e4, 0.4),
        DecayModel(2.0, 4.0, 0.2),
        BetaWaveModel(20.6, 2.94e5, COUNTY_THETA),
    ],
    ids=["gem", "decay", "betawave"],
)
def test_llr_equals_density_difference(model, seed):
    """log_likelihood_ratio must equal log_post_density - log_pre_density."""
    rng = np.random.default_rng(seed)
    xs = model.sample_pre(rng, size=20)
    for n, k in [(1, 1), (3, 1), (10, 4)]:
        for x in xs:
            want = model.log_post_density(x, n, k) - model.log_pre_density(x)
            got = model.log_likelihood_ratio(x, n, k)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "model",
    [
        GemModel(0.1, 1e4, 0.4),
        DecayModel(2.0, 4.0, 0.2),
        BetaWaveModel(20.6, 2.94e5, COUNTY_THETA),
    ],
    ids=["gem", "decay", "betawave"],
)
def test_llr_terms_affine_representation(model):
    """slope * stat + intercept must reproduce the scalar LLR at every lag."""
    lags = np.arange(6)
    slopes, intercepts = model.llr_terms(lags)
    assert slopes.shape == intercepts.shape == lags.shape
    rng = np.random.default_rng(7)
    xs = model.sample_pre(rng, size=10)
    # atol covers cancellation noise in the Beta intercepts, whose gammaln
    # terms have magnitude ~ b0 log b0 and eps-level relative error
    for lag in lags:
        n, k = lag + 1, 1
        for x in xs:
            streaming = slopes[lag] * model.sufficient_stat(x) + intercepts[lag]
            direct = model.log_likelihood_ratio(x, n, k)
            np.testing.assert_allclose(streaming, direct, rtol=1e-10, atol=1e-8)


def test_gem_expected_llr_frozen_and_closed_form():
    model = GemModel(1.0, 1.0, 1.0)
    np.testing.assert_allclose(model.expected_llr(1), GEM_EXPECTED_LLR_LAG1, rtol=1e-14)
    mu0, s0, th = 0.1, 1e4, 0.4
    model = GemModel(mu0, s0, th)
    for lag in range(8):
        want = mu0**2 / (2 * s0) * (math.exp(th * lag) - 1.0) ** 2
        np.testing.assert_allclose(model.expected_llr(lag), want, rtol=1e-13)


def test_gem_expected_llr_monotone_in_lag():
    model = GemModel(0.1, 1e4, 0.4)
    values = model.expected_llr_lags(np.arange(30))
    assert values[0] == 0.0
    assert np.all(np.diff(values) > 0)


def test_decay_expected_llr_frozen():
    model = DecayModel(2.0, 4.0, 0.2)
    np.testing.assert_allclose(model.expected_llr(0), DECAY_EXPECTED_LLR_LAG0, rtol=1e-14)
    np.testing.assert_allclose(model.expected_llr(1), DECAY_EXPECTED_LLR_LAG1, rtol=1e-14)


@pytest.mark.parametrize(
    "model",
    [GemModel(1.0, 1.0, 1.0), DecayModel(2.0, 4.0, 0.2),
     BetaWaveModel(20.6, 2.94e5, COUNTY_THETA)],
    ids=["gem", "decay", "betawave"],
)
def test_mismatch_at_matched_lag_equals_expected_llr(model):
    for lag in range(6):
        np.testing.assert_allclose(
            model.expected_llr_mismatch(lag, lag), model.expected_llr(lag), rtol=1e-12
        )


def test_gem_mismatch_grows_with_true_lag():
    """A change that happened earlier (larger true lag) only helps the test."""
    model = GemModel(0.1, 1e4, 0.4)
    for hyp in range(5):
        row = [model.expected_llr_mismatch(hyp, hyp + d) for d in range(6)]
        assert np.all(np.diff(row) >= 0)


def test_gem_llr_variance_is_twice_the_divergence():
    for mu0, s0, th in [(1.0, 1.0, 1.0), (0.1, 1e4, 0.4), (0.5, 2.0, 0.3)]:
        model = GemModel(mu0, s0, th)
        for lag in range(6):
            np.testing.assert_allclose(
                model.llr_variance(lag), 2.0 * model.expected_llr(lag), rtol=1e-12
            )


def test_beta_divergence_matches_digamma_oracle():
    model = BetaWaveModel(20.6, 2.94e5, COUNTY_THETA)
    assert abs(model.expected_llr(0)) < 1e-8  # exact value ~1e-14 plus gammaln noise
    np.testing.assert_allclose(model.expected_llr(2), COUNTY_KL_LAG2, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(model.expected_llr(4), COUNTY_KL_LAG4, rtol=1e-6)


def test_beta_llr_variance_matches_trigamma_oracle():
    model = BetaWaveModel(20.6, 2.94e5, COUNTY_THETA)
    np.testing.assert_allclose(model.llr_variance(2), COUNTY_LLR_VAR_LAG2, rtol=1e-5)


def test_wave_multiplier_peak_and_tail():
    np.testing.assert_allclose(
        wave_multiplier(COUNTY_THETA, COUNTY_THETA[1]), COUNTY_H_PEAK, rtol=1e-12
    )
    lags = np.linspace(0.0, 60.0, 601)
    values = wave_multiplier(COUNTY_THETA, lags)
    assert values.shape == lags.shape
    assert np.all(values >= 1.0)
    np.testing.assert_allclose(wave_multiplier(COUNTY_THETA, 1e6), 1.0, rtol=1e-12)


def test_wave_multiplier_argument_errors():
    with pytest.raises(ValueError):
        wave_multiplier((0.464, 3.894, 0.0), 1.0)
    with pytest.raises(ValueError):
        wave_multiplier((-0.1, 3.894, 0.445), 1.0)
    with pytest.raises(ValueError):
        wave_multiplier((0.464, -1.0, 0.445), 1.0)


def test_beta_mean_matches_frozen_value():
    model = BetaWaveModel(20.6, 2.94e5, COUNTY_THETA)
    rng = np.random.default_rng(3)
    draws = model.sample_pre(rng, size=200_000)
    np.testing.assert_allclose(draws.mean(), COUNTY_MEAN, rtol=5e-3)


MC_CASES = pytest.mark.parametrize(
    "model, lag",
    [
        (GemModel(0.1, 1e4, 0.4), 3),
        (DecayModel(2.0, 4.0, 0.2), 2),
        (BetaWaveModel(20.6, 2.94e5, COUNTY_THETA), 3),
    ],
    ids=["gem", "decay", "betawave"],
)


@MC_CASES
def test_mc_mean_llr_matches_expected_llr(model, lag):
    """Sample mean of the LLR under the post law must match the divergence."""
    rng = np.random.default_rng(11)
    n_draws = 200_000
    xs = model.sample_post_lags(rng, np.full(n_draws, lag))
    slopes, intercepts = model.llr_terms(np.array([lag]))
    stats = np.array([model.sufficient_stat(float(x)) for x in xs[:50_000]])
    z = slopes[0] * stats + intercepts[0]
    want = model.expected_llr(lag)
    stderr = z.std(ddof=1) / math.sqrt(len(z))
    assert abs(z.mean() - want) < 4.0 * stderr + 1e-12


@MC_CASES
def test_mc_llr_variance_matches_llr_variance(model, lag):
    """Sample variance of the LLR under the post law must match llr_variance."""
    rng = np.random.default_rng(13)
    xs = model.sample_post_lags(rng, np.full(50_000, lag))
    slopes, intercepts = model.llr_terms(np.array([lag]))
    z = slopes[0] * np.array([model.sufficient_stat(float(x)) for x in xs]) + intercepts[0]
    var = z.var(ddof=1)
    # standard error of a sample variance: sqrt((m4 - var^2) / n)
    stderr = math.sqrt((np.mean((z - z.mean()) ** 4) - var**2) / len(z))
    assert abs(var - model.llr_variance(lag)) < 4.0 * stderr


def test_mc_exp_llr_has_unit_mean_under_pre_law():
    """E_infinity[exp(Z)] = 1 is the martingale identity behind calibration."""
    model = GemModel(0.1, 1e4, 0.1)
    rng = np.random.default_rng(23)
    xs = model.sample_pre(rng, size=400_000)
    for lag in (1, 5, 10):
        slopes, intercepts = model.llr_terms(np.array([lag]))
        values = np.exp(slopes[0] * xs + intercepts[0])
        stderr = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - 1.0) < 4.0 * stderr


@pytest.mark.parametrize(
    "model",
    [
        GemModel(0.1, 1e4, 0.4),
        DecayModel(2.0, 4.0, 0.2),
        BetaWaveModel(20.6, 2.94e5, COUNTY_THETA),
    ],
    ids=["gem", "decay", "betawave"],
)
def test_sampling_is_seed_deterministic(model):
    a = model.sample_segment(np.random.default_rng(5), 3, 1, 12)
    b = model.sample_segment(np.random.default_rng(5), 3, 1, 12)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("nu", [1, 4, math.inf])
def test_sample_segment_split_invariance(nu):
    """Drawing one long segment or two adjacent halves gives the same stream."""
    model = GemModel(0.1, 1e4, 0.4)
    whole = model.sample_segment(np.random.default_rng(9), nu, 1, 10)
    rng = np.random.default_rng(9)
    parts = np.concatenate(
        [model.sample_segment(rng, nu, 1, 4), model.sample_segment(rng, nu, 5, 6)]
    )
    np.testing.assert_array_equal(whole, parts)


def test_sample_segment_pre_post_boundary():
    """Times before nu follow the pre law, times at/after nu the post law."""
    model = GemModel(1.0, 1e-12, 1.0)  # essentially deterministic means
    seg = model.sample_segment(np.random.default_rng(0), 3, 1, 5)
    np.testing.assert_allclose(seg[:2], [1.0, 1.0], atol=1e-4)
    np.testing.assert_allclose(seg[2:], np.exp([0.0, 1.0, 2.0]), atol=1e-4)


@pytest.mark.parametrize("model, sd, n_finite", [
    (GemModel(0.1, 1e4, 0.4), 100.0, 1775),  # e^{0.4 l} overflows from lag 1,775 on
    (DecayModel(2.0, 4.0, 0.2), 2.0, 2048),
], ids=["gem", "decay"])
def test_post_draws_are_rng_normal_bit_for_bit(model, sd, n_finite):
    """sample_post_lags gives the bytes of rng.normal(means, sd), +inf included,
    and leaves the generator in the same state."""
    lags = np.arange(2048)
    means, _ = model.stat_moments(lags)
    for seed in range(50):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = model.sample_post_lags(got_rng, lags)
        want = want_rng.normal(means, sd)
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert np.isfinite(got[:n_finite]).all() and np.isposinf(got[n_finite:]).all()


def _drawer_mismatches(seeds=range(3), trials=3):
    """(model, nu, start, length, seed) of every block in which a model's
    block_drawer differs from sample_segment row for row, in bytes or in a
    generator's state after. One drawer serves a run's blocks in turn, its lag
    table grown from the first; each serves these in ascending and descending
    order. Pre-change, straddling and post-change blocks are cut at lags 0 to
    1,699, where GEM's means turn +inf at lag 1,775."""
    bad = []
    for model in (GemModel(0.1, 1e4, 0.4), DecayModel(2.0, 4.0, 0.2)):
        for nu in (1, 40, math.inf):
            starts = ([1, 37] if nu == 40 else []) + [
                (1 if math.isinf(nu) else nu) + lag for lag in (0, 32, 64, 128, 999, 1699)]
            for order in (starts, starts[::-1]):
                draw = model.block_drawer(nu)
                for start in order:
                    for k, seed in itertools.product((7, 32, 512), seeds):
                        got_rngs, want_rngs = ([np.random.default_rng([seed, i])
                                                for i in range(trials)] for _ in range(2))
                        got = np.empty((trials, k))
                        draw(got_rngs, start, got)
                        want = np.array([model.sample_segment(r, nu, start, k) for r in want_rngs])
                        if got.tobytes() != want.tobytes() or (
                                [r.bit_generator.state for r in got_rngs]
                                != [r.bit_generator.state for r in want_rngs]):
                            bad.append((type(model).__name__, nu, start, k, seed))
    return bad


def test_block_drawer_equals_sample_segment_row_for_row():
    assert _drawer_mismatches() == []
    block = np.empty((1, 512))  # lags 1,699 .. 2,210: GEM's means are +inf from 1,775
    GemModel(0.1, 1e4, 0.4).block_drawer(1)([np.random.default_rng(0)], 1700, block)
    assert np.isfinite(block[0, :76]).all() and np.isposinf(block[0, 76:]).all()


def test_beta_sufficient_stat_rejects_off_support():
    model = BetaWaveModel(20.6, 2.94e5, COUNTY_THETA)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(SupportError):
            model.sufficient_stat(bad)
    # boundary densities are defined (log 0), only the LLR path rejects them
    assert model.log_pre_density(0.0) == -math.inf


def test_gem_sufficient_stat_rejects_non_finite():
    model = GemModel(1.0, 1.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(SupportError):
            model.sufficient_stat(bad)


@pytest.mark.parametrize("model", [
    GemModel(0.1, 1e4, 0.4),
    DecayModel(2.0, 4.0, 0.2),
    BetaWaveModel(20.6, 2.94e5, COUNTY_THETA),
    BetaWaveModel(2.0, 3.0, COUNTY_THETA),
], ids=["gem", "decay", "betawave-county", "betawave-wide"])
def test_sufficient_stats_bit_identical_to_scalar(model):
    xs = model.sample_segment(np.random.default_rng(17), 19_500, 1, 20_000)
    want = np.array([model.sufficient_stat(x) for x in xs])
    got = model.sufficient_stats(xs)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()  # np.log differs from math.log in the last ulp


@pytest.mark.parametrize("model, bad", [
    (GemModel(1.0, 1.0, 1.0), [math.nan, math.inf, -math.inf]),
    (BetaWaveModel(20.6, 2.94e5, COUNTY_THETA), [0.0, 1.0, -0.1, 1.5, math.nan]),
], ids=["gem", "betawave"])
def test_sufficient_stats_marks_off_support_without_raising(model, bad):
    got = model.sufficient_stats(np.array([0.5, *bad, 0.25]))
    assert np.isfinite(got[[0, -1]]).all()
    assert not np.isfinite(got[1:-1]).any()


def test_support_error_is_a_value_error():
    assert issubclass(SupportError, ValueError)


def test_time_index_validation():
    model = GemModel(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        model.log_post_density(1.0, n=1, k=2)  # change point after the sample
    with pytest.raises(ValueError):
        model.log_post_density(1.0, n=1, k=0)  # 1-based change points
    with pytest.raises(ValueError):
        model.expected_llr(-1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: GemModel(0.0, 1.0, 1.0),
        lambda: GemModel(1.0, 0.0, 1.0),
        lambda: GemModel(1.0, 1.0, 0.0),
        lambda: DecayModel(0.0, 1.0, 0.2),
        lambda: DecayModel(1.0, -1.0, 0.2),
        lambda: DecayModel(1.0, 1.0, 0.5),
        lambda: DecayModel(1.0, 1.0, 0.0),
        lambda: BetaWaveModel(0.0, 1.0, (0.1, 1.0, 1.0)),
        lambda: BetaWaveModel(1.0, 1.0, (0.1, 1.0, 0.0)),
    ],
)
def test_constructor_validation(build):
    with pytest.raises(ValueError):
        build()


def test_with_theta_replaces_parameter():
    gem = GemModel(0.1, 1e4, 0.4)
    assert gem.theta_dim == 1
    other = gem.with_theta(0.25)
    assert other.theta == 0.25
    assert other.mu0 == gem.mu0 and other.sigma0_sq == gem.sigma0_sq
    assert gem.theta == 0.4  # original untouched

    beta = BetaWaveModel(20.6, 2.94e5, COUNTY_THETA)
    assert beta.theta_dim == 3
    swapped = beta.with_theta((1.0, 2.0, 3.0))
    assert swapped.theta == (1.0, 2.0, 3.0)


def test_build_model_round_trip():
    gem = build_model("gem", mu0=0.1, sigma0_sq=1e4, theta=0.4)
    assert isinstance(gem, GemModel)
    decay = build_model("decay", mu1=2.0, sigma_sq=4.0, theta=0.2)
    assert isinstance(decay, DecayModel)
    flat = build_model("betawave", a0=20.6, b0=2.94e5, theta0=0.464, theta1=3.894, theta2=0.445)
    assert isinstance(flat, BetaWaveModel)
    assert flat.theta == COUNTY_THETA
    with pytest.raises(ValueError):
        build_model("unknown")
    with pytest.raises(ValueError):
        build_model("gem", mu0=0.1)
    with pytest.raises(ValueError):
        build_model("betawave", a0=20.6, b0=2.94e5, theta=COUNTY_THETA)


def test_gem_llr_terms_stay_usable_at_extreme_lags():
    """Very stale hypotheses must evaluate to -inf, never to NaN."""
    slopes, intercepts = GemModel(0.1, 1e4, 0.4).llr_terms(np.array([1.0, 1000.0, 2500.0]))
    assert np.all(np.isfinite(slopes))
    lam = slopes * 1e6 + intercepts
    assert np.isfinite(lam[0])
    assert lam[1] == -np.inf and lam[2] == -np.inf
    assert not np.any(np.isnan(lam))


def test_gem_moments_at_pinned_lags_are_inf():
    """Lags whose LLR terms are pinned have infinite divergence and variance."""
    model = GemModel(0.1, 1e4, 0.4)
    for lag in (900, 2000):
        assert model.expected_llr(lag) == math.inf
        assert model.llr_variance(lag) == math.inf
    assert np.all(model.expected_llr_lags(np.array([900, 2000])) == math.inf)
    assert model.expected_llr_mismatch(900, 905) == math.inf
    assert model.expected_llr_mismatch(905, 900) == -math.inf


def test_gem_density_llr_never_nan_at_any_lag():
    """The squared distance overflows from lag 893 at x = 1 and the mean itself
    from lag 1,775: the density LLR goes to -inf, as llr_terms pins it."""
    model = GemModel(0.1, 1e4, 0.4)
    llrs = np.array([model.log_likelihood_ratio(1.0, lag + 1, 1) for lag in range(2001)])
    assert np.all(np.isfinite(llrs) | np.isneginf(llrs))
    assert llrs[2000] == -math.inf
    _, intercepts = model.llr_terms(np.array([2000]))
    assert intercepts[0] == -math.inf

