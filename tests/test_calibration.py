"""Threshold and window calibration, including the implicit GLR equation."""

import dataclasses
import math
import re

import numpy as np
import pytest

from wlcusum.calibration import (
    CalibrationError,
    GlrThresholdInputs,
    cusum_threshold,
    gem_epsilon,
    glr_threshold,
    glr_threshold_residual,
    unit_ball_volume,
    window_size,
)
from wlcusum.growth import GrowthCurve
from wlcusum.models import GemModel

GLR_B_COUNTY = 16.833290461207017  # alpha 1e-3, volume 456.19, dim 3, eps 1
GLR_B_GEM = 13.72414101861043      # alpha 1e-3, volume 0.5, dim 1, eps 5.5


def test_cusum_threshold_frozen():
    assert cusum_threshold(1e-3) == pytest.approx(6.907755278982137, rel=1e-15)
    assert cusum_threshold(1e-2) == pytest.approx(-math.log(1e-2), rel=1e-15)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 2.0])
def test_cusum_threshold_domain(alpha):
    with pytest.raises(ValueError):
        cusum_threshold(alpha)


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.1887902047863905, rel=1e-15)
    with pytest.raises(ValueError):
        unit_ball_volume(0)


def test_unit_ball_volume_too_large_a_dim_names_dim():
    # Gamma(1 + dim/2) first overflows a float at dim = 342
    assert 0.0 < unit_ball_volume(341) < 1e-200
    with pytest.raises(ValueError, match=r"^dim=342 is too large"):
        unit_ball_volume(342)
    with pytest.raises(ValueError, match=r"^dim=400 is too large"):
        glr_threshold(0.01, 1.0, 400, 0.5)
    with pytest.raises(ValueError, match=r"^dim=400 is too large"):
        glr_threshold_residual(20.0, 0.01, 1.0, 400, 0.5)


def test_glr_threshold_frozen_values():
    assert glr_threshold(1e-3, 456.19, 3, 1.0) == pytest.approx(GLR_B_COUNTY, rel=1e-14)
    assert glr_threshold(1e-3, 0.5, 1, 5.5) == pytest.approx(GLR_B_GEM, rel=1e-14)


def test_glr_threshold_is_a_root():
    for args in [(1e-3, 456.19, 3, 1.0), (1e-3, 0.5, 1, 5.5), (1e-2, 10.0, 2, 0.5)]:
        b = glr_threshold(*args)
        assert abs(glr_threshold_residual(b, *args)) < 1e-9
        # the implicit term must not have flipped the equation's sign intent
        assert b > args[3] * args[2] / 2.0


def test_glr_threshold_larger_root_chosen():
    """Pushing b slightly up must take the residual positive, not negative."""
    args = (1e-3, 456.19, 3, 1.0)
    b = glr_threshold(*args)
    assert glr_threshold_residual(b + 0.5, *args) > 0
    assert glr_threshold_residual(b * 0.5, *args) != 0


def test_glr_threshold_monotone_in_alpha():
    bs = [glr_threshold(a, 456.19, 3, 1.0) for a in (1e-2, 1e-3, 1e-4, 1e-6)]
    assert all(b1 < b2 for b1, b2 in zip(bs, bs[1:]))


def test_glr_threshold_epsilon_zero_closed_form():
    b = glr_threshold(1e-3, unit_ball_volume(2), 2, 0.0)
    assert b == pytest.approx(1.0 + abs(math.log(1e-3)), rel=1e-14)


def test_glr_threshold_exceeds_cusum_threshold():
    # the grid correction only ever raises the bar
    assert glr_threshold(1e-3, 0.5, 1, 5.5) > cusum_threshold(1e-3)


def test_glr_threshold_no_root_raises():
    with pytest.raises(CalibrationError):
        glr_threshold(0.9, 1e-6, 3, 5.5)


def test_glr_threshold_validation():
    with pytest.raises(ValueError):
        glr_threshold(0.0, 1.0, 1, 1.0)
    with pytest.raises(ValueError):
        glr_threshold(1e-3, -1.0, 1, 1.0)
    with pytest.raises(ValueError):
        glr_threshold(1e-3, 1.0, 0, 1.0)
    with pytest.raises(ValueError):
        glr_threshold(1e-3, 1.0, 1, -0.5)


@pytest.mark.parametrize("args, name", [
    ((0.01, math.nan, 1, 0.0), "theta_volume"),
    ((0.01, math.inf, 1, 0.0), "theta_volume"),
    ((0.01, math.inf, 1, 0.5), "theta_volume"),
    ((0.01, 1.0, 1, math.inf), "epsilon"),
    ((0.01, math.nan, 1, 0.5), "theta_volume"),
])
def test_glr_threshold_refuses_non_finite_inputs(args, name):
    with pytest.raises(ValueError, match=f"^{name} must lie in "):
        glr_threshold(*args)


def test_glr_threshold_residual_error_names_epsilon_and_dim():
    # finite but so large that b - c ln b loses the right-hand side to rounding
    with pytest.raises(CalibrationError, match=r"residual .* at epsilon=1e\+300, dim=1$"):
        glr_threshold(0.01, 1.0, 1, 1e300)


def test_glr_inputs_dataclass_solve():
    inputs = GlrThresholdInputs(alpha=1e-3, theta_volume=456.19, dim=3, epsilon=1.0)
    assert inputs.solve() == glr_threshold(1e-3, 456.19, 3, 1.0)
    looser = dataclasses.replace(inputs, alpha=1e-2)
    assert looser.solve() < inputs.solve()


def test_window_size_fig1_setup():
    curve = GrowthCurve(GemModel(0.1, 1e4, 0.4))
    m = window_size(curve, 1e-3)
    assert m == 23
    assert m <= 25
    assert window_size(curve, 1e-3, safety=1.0) == 21


def test_window_size_monotone_and_floor():
    curve = GrowthCurve(GemModel(0.1, 1e4, 0.4))
    sizes = [window_size(curve, a) for a in (1e-1, 1e-2, 1e-3, 1e-5)]
    assert all(m1 <= m2 for m1, m2 in zip(sizes, sizes[1:]))
    # even a trivial target keeps the window usable
    assert window_size(GrowthCurve(GemModel(1.0, 1e-4, 3.0)), 0.5) >= 1


def test_window_size_validation():
    curve = GrowthCurve(GemModel(0.1, 1e4, 0.4))
    with pytest.raises(ValueError):
        window_size(curve, 0.0)
    with pytest.raises(ValueError):
        window_size(curve, 1e-3, safety=0.5)
    for safety in (math.nan, math.inf):  # ceil(safety * t) has no integer to give
        message = re.escape(f"safety must lie in [1, inf), got {safety}")
        with pytest.raises(ValueError, match=message):
            window_size(curve, 1e-3, safety=safety)


def test_gem_epsilon_frozen():
    assert gem_epsilon(0.1, 0.5) == pytest.approx(5.5, rel=1e-15)
    assert gem_epsilon(0.1, 0.5, delta=0.1) == pytest.approx(5.5, rel=1e-15)
    assert gem_epsilon(0.2, 0.4, delta=0.0) == pytest.approx(2.0, rel=1e-15)


def test_gem_epsilon_validation():
    with pytest.raises(ValueError):
        gem_epsilon(0.0, 0.5)
    with pytest.raises(ValueError):
        gem_epsilon(0.5, 0.1)
    with pytest.raises(ValueError):
        gem_epsilon(0.1, 0.5, delta=-0.2)
