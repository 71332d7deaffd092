"""Every scalar input is checked by one of two rules, each with one wording.

A count is a whole number >= its least value (4.0 counts as 4); a real lies
in its declared range, lo < v < hi or lo <= v < hi, where hi is never
reached, so +-inf and NaN lie in no range. Each table row is one (entry
point, parameter) pair; a refusal names the parameter.
"""

import math
import re
from datetime import date

import numpy as np
import pytest

from test_epidata import COUNTY_BOX, COUNTY_THETA, _beta, _fraction_series, _wave_series
from wlcusum.calibration import (
    cusum_threshold,
    gem_epsilon,
    glr_threshold,
    glr_threshold_residual,
    unit_ball_volume,
    window_size,
)
from wlcusum.detectors import WlCusum, WlGlr, run_until_alarm, theta_grid
from wlcusum.epidata import (
    CaseSeries,
    fit_beta_prechange,
    fit_wave_shape,
    monitor,
    to_fraction_series,
)
from wlcusum.growth import GrowthCurve, check_growth_condition, lemma1_diagnostics
from wlcusum.models import BetaWaveModel, DecayModel, GemModel, wave_multiplier
from wlcusum.montecarlo import TrialPlan, run_trials

GEM = GemModel(0.1, 1e4, 0.4)
BETA = _beta()
WAVE = _wave_series(BETA, COUNTY_THETA, days=12)
CASES = CaseSeries(dates=WAVE.dates, counts=np.arange(12.0), population=1e6)
QUIET = _fraction_series(np.random.default_rng(1).uniform(1e-4, 2e-4, 10))


def _fit(**kw):
    try:
        return fit_wave_shape(WAVE, BETA, COUNTY_BOX, **kw)
    except RuntimeError as err:  # too few sweeps to converge: the count was taken
        return err.best


def _plan(**kw):
    return TrialPlan(**dict(model=GEM, detector="wl-cusum", threshold=1e9, window=3, nu=1,
                            num_trials=1) | kw)


# (entry point, parameter, least, call with the parameter set to v)
COUNTS = [
    ("WlCusum", "window", 0, lambda v: WlCusum(GEM, 1.0, v)),
    ("WlGlr", "window", 0, lambda v: WlGlr(GEM, 1.0, v, [0.4])),
    ("TrialPlan", "window", 0, lambda v: _plan(window=v)),
    ("TrialPlan", "num_trials", 1, lambda v: _plan(num_trials=v)),
    ("TrialPlan", "workers", 1, lambda v: _plan(workers=v)),
    ("TrialPlan", "nu", 1, lambda v: _plan(nu=v)),
    ("run_trials", "max_steps", 1, lambda v: run_trials(_plan(max_steps=v))),
    ("run_until_alarm", "max_steps", 1,
     lambda v: run_until_alarm(WlCusum(GEM, 1e9, 3), [0.0] * 10, v)),
    ("theta_grid", "counts", 1, lambda v: theta_grid((0.1, 0.5), v)),
    ("theta_grid-per-dimension", "counts", 1, lambda v: theta_grid(((0, 1), (0, 1)), (2, v))),
    ("expected_llr", "lag", 0, lambda v: GEM.expected_llr(v)),
    ("llr_variance", "lag", 0, lambda v: GEM.llr_variance(v)),
    ("expected_llr_mismatch", "hyp_lag", 0, lambda v: GEM.expected_llr_mismatch(v, 3)),
    ("expected_llr_mismatch", "true_lag", 0, lambda v: GEM.expected_llr_mismatch(3, v)),
    ("log_likelihood_ratio", "k", 1, lambda v: GEM.log_likelihood_ratio(0.1, 10, v)),
    ("log_likelihood_ratio", "n", 1, lambda v: GEM.log_likelihood_ratio(0.1, v, 1)),
    ("GrowthCurve.growth", "n", 0, lambda v: GrowthCurve(GEM).growth(v)),
    ("check_growth_condition", "points_per_decade", 1,
     lambda v: check_growth_condition(GrowthCurve(GEM), 10.0, v)),
    ("lemma1_diagnostics", "n_max", 2, lambda v: lemma1_diagnostics(GEM, v, 2)),
    ("lemma1_diagnostics", "shift_max", 1, lambda v: lemma1_diagnostics(GEM, 5, v)),
    ("unit_ball_volume", "dim", 1, unit_ball_volume),
    ("glr_threshold", "dim", 1, lambda v: glr_threshold(1e-3, 1.0, v, 0.0)),
    ("glr_threshold_residual", "dim", 1, lambda v: glr_threshold_residual(5.0, 1e-3, 1.0, v, 1.0)),
    ("to_fraction_series", "window", 1, lambda v: to_fraction_series(CASES, v)),
    ("fit_beta_prechange", "window_days", 2, lambda v: fit_beta_prechange(QUIET, v)),
    ("fit_wave_shape", "restarts", 1, lambda v: _fit(restarts=v)),
    ("fit_wave_shape", "max_iter", 0, lambda v: _fit(restarts=1, max_iter=v)),
    ("monitor", "window", 0,
     lambda v: monitor(WAVE, BETA, COUNTY_BOX, window=v, grid_counts=(2, 2, 2))),
]


@pytest.mark.parametrize("entry, name, least, call", COUNTS,
                         ids=[f"{entry}-{name}" for entry, name, *_ in COUNTS])
def test_a_count_is_a_whole_number_from_its_least(entry, name, least, call):
    refused = [2.5, math.nan, -math.inf, least - 1]
    if name != "nu":  # nu = +inf is the run with no change
        refused.append(math.inf)
    if entry == "TrialPlan" and name != "window":  # only the window has a None placeholder
        refused.append(None)
    for v in refused:
        with pytest.raises(ValueError) as err:
            call(v)
        assert str(err.value) == f"{name} must be a whole number >= {least}, got {v!r}"
    call(4.0)


# (entry point, parameter, its range as named, values outside it, a value inside, call)
REALS = [
    ("GemModel", "mu0", "(0, inf)", [0.0, -1.0], 0.5, lambda v: GemModel(v, 1e4, 0.4)),
    ("GemModel", "sigma0_sq", "(0, inf)", [0.0], 2.0, lambda v: GemModel(0.1, v, 0.4)),
    ("GemModel", "theta", "(0, inf)", [0.0, -0.1], 0.2, lambda v: GemModel(0.1, 1e4, v)),
    ("DecayModel", "mu1", "(0, inf)", [0.0], 2.0, lambda v: DecayModel(v, 4.0, 0.2)),
    ("DecayModel", "sigma_sq", "(0, inf)", [-4.0], 4.0, lambda v: DecayModel(2.0, v, 0.2)),
    ("DecayModel", "theta", "(0, 0.5)", [0.0, 0.5], 0.25, lambda v: DecayModel(2.0, 4.0, v)),
    ("BetaWaveModel", "a0", "(0, inf)", [0.0], 5.0, lambda v: BetaWaveModel(v, 20.0, (1, 2, 3))),
    ("BetaWaveModel", "b0", "(0, inf)", [-1.0], 5.0, lambda v: BetaWaveModel(5.0, v, (1, 2, 3))),
    ("BetaWaveModel", "theta0", "[0, inf)", [-0.1], 0.0, lambda v: BetaWaveModel(5, 20, (v, 2, 3))),
    ("BetaWaveModel", "theta1", "[0, inf)", [-1.0], 0.0, lambda v: BetaWaveModel(5, 20, (1, v, 3))),
    ("BetaWaveModel", "theta2", "(0, inf)", [0.0], 0.5, lambda v: BetaWaveModel(5, 20, (1, 2, v))),
    ("wave_multiplier", "theta0", "[0, inf)", [-0.1], 0.0, lambda v: wave_multiplier((v, 2, 3), 1)),
    ("wave_multiplier", "theta1", "[0, inf)", [-1.0], 0.0, lambda v: wave_multiplier((1, v, 3), 1)),
    ("wave_multiplier", "theta2", "(0, inf)", [0.0], 0.5, lambda v: wave_multiplier((1, 2, v), 1)),
    ("cusum_threshold", "alpha", "(0, 1)", [0.0, 1.0], 0.5, cusum_threshold),
    ("glr_threshold", "alpha", "(0, 1)", [0.0, 1.5], 1e-3, lambda v: glr_threshold(v, 1.0, 1, 0.0)),
    ("window_size", "alpha", "(0, 1)", [0.0, 1.0], 0.5,
     lambda v: window_size(GrowthCurve(GEM), v)),
    ("window_size", "safety", "[1, inf)", [0.5], 1.0,
     lambda v: window_size(GrowthCurve(GEM), 1e-3, v)),
    ("glr_threshold", "theta_volume", "(0, inf)", [0.0, -1.0], 2.0,
     lambda v: glr_threshold(1e-3, v, 1, 0.0)),
    ("glr_threshold", "epsilon", "[0, inf)", [-0.5], 0.0, lambda v: glr_threshold(1e-3, 1.0, 1, v)),
    ("fit_wave_shape", "tol", "(0, inf)", [0.0, -1e-8], 1e-6, lambda v: _fit(restarts=1, tol=v)),
    ("CaseSeries", "population", "(0, inf)", [0.0, -1.0], 1e6,
     lambda v: CaseSeries(dates=(date(2020, 6, 1),), counts=np.ones(1), population=v)),
    ("check_growth_condition", "x_max", "(1, inf)", [1.0, 0.5], 10.0,
     lambda v: check_growth_condition(GrowthCurve(GEM), v)),
    ("growth_inverse", "x", "[0, inf)", [-1.0], 0.0, lambda v: GrowthCurve(GEM).growth_inverse(v)),
    ("gem_epsilon", "theta_min", "(0, inf)", [0.0], 0.1, lambda v: gem_epsilon(v, 0.5)),
    ("gem_epsilon", "theta_max", "[0.1, inf)", [0.05], 0.1, lambda v: gem_epsilon(0.1, v)),
    ("gem_epsilon", "delta", "[0, inf)", [-0.2], 0.0, lambda v: gem_epsilon(0.1, 0.5, v)),
]


@pytest.mark.parametrize("name, domain, outside, inside, call", [row[1:] for row in REALS],
                         ids=[f"{entry}-{name}" for entry, name, *_ in REALS])
def test_a_real_lies_in_its_declared_range(name, domain, outside, inside, call):
    for v in [math.nan, math.inf, -math.inf, *outside]:
        with pytest.raises(ValueError) as err:
            call(v)
        assert str(err.value) == f"{name} must lie in {domain}, got {float(v)!r}"
    call(inside)


@pytest.mark.parametrize("part", range(3))
@pytest.mark.parametrize("end", [0, 1], ids=["lo", "hi"])
@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, -1.0])
def test_both_ends_of_a_theta_box_lie_in_the_wave_ranges(part, end, v):
    box = np.array(COUNTY_BOX)
    box[part, end] = v
    for run in (lambda: fit_wave_shape(WAVE, BETA, box, restarts=1),
                lambda: monitor(WAVE, BETA, box, grid_counts=(2, 2, 2))):
        with pytest.raises(ValueError) as err:
            run()
        if not box[part, 0] >= box[part, 1]:  # else the interval is refused as empty
            assert re.fullmatch(f"theta{part} must lie in .*, got {v!r}", str(err.value))
