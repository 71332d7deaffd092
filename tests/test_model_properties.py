"""Streams with extreme and boundary observations: every statistic is finite
or +inf and every density a float or -inf, for any x a model accepts."""

import math
import re

import numpy as np
import pytest

from wlcusum.detectors import FullCusum, SrStatistic, WlCusum, WlGlr, theta_grid
from wlcusum.models import BetaWaveModel, DecayModel, GemModel, SupportError

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# each model with the wl-glr grid its streams use
MODELS = {
    "gem": (GemModel(0.1, 1e4, 0.4), np.linspace(0.1, 0.5, 3)),
    "decay": (DecayModel(2.0, 4.0, 0.2), np.linspace(0.05, 0.45, 3)),
    "wave": (BetaWaveModel(5.0, 20.0, (0.5, 10.0, 4.0)),
             theta_grid(((0.0, 1.0), (5.0, 15.0), (1.0, 5.0)), (2, 1, 2))),
}
EXTREMES = [1e308, -1e308, 1e155, 5e-324, -5e-324, 1.0 - 2.0**-53, 0.0, 1.0, math.inf,
            -math.inf, math.nan]
DETECTORS = {
    "wl-cusum": lambda model, grid, b, m: WlCusum(model, b, m),
    "full-cusum": lambda model, grid, b, m: FullCusum(model, b),
    "wl-glr": lambda model, grid, b, m: WlGlr(model, b, m, grid),
    "sr": lambda model, grid, b, m: SrStatistic(model, b),
}
THRESHOLDS = [2.0, 50.0, 1e308, math.inf]


@st.composite
def _streams(draw):
    """A model and a stream of its own draws with extreme values put in."""
    name = draw(st.sampled_from(sorted(MODELS)))
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


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(_streams(), st.sampled_from(sorted(DETECTORS)), st.sampled_from(THRESHOLDS),
                  st.integers(0, 40))
# log R = 4.9e302 overflows R itself, which must then read +inf and alarm
@hypothesis.example(("gem", [1.0, 1e308]), "sr", 1e308, 0)
def test_every_statistic_is_finite_or_inf(stream, kind, threshold, window):
    name, xs = stream
    model, grid = MODELS[name]
    det = DETECTORS[kind](model, grid, threshold, window)
    for x in xs:
        if not _accepts(model, x):
            with pytest.raises(SupportError):
                det.step(x)
            continue
        try:
            out = det.step(x)
        except FloatingPointError:
            # the one other refusal: +inf met -inf in an entry (after -1e308
            # and then 1e308 at lags whose terms overflow), so the bank holds NaN
            assert np.isnan(det._lam).any()
            break
        assert math.isfinite(out.statistic) or out.statistic == math.inf
        if kind == "sr":
            try:
                expected = math.exp(det.log_value)
            except OverflowError:
                expected = math.inf
            assert out.statistic == expected
        assert out.alarm == (out.statistic >= threshold)
        if out.alarm:
            break  # a detector stops at its first alarm


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
