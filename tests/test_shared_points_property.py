"""Operating points drawn at random: each row of one shared run is its plan run alone."""

import math
from dataclasses import replace

import numpy as np
import pytest

from test_montecarlo import _assert_each_alone, _plan

from wlcusum import montecarlo
from wlcusum.models import DecayModel, GemModel

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

MODELS = [GemModel(0.1, 1e4, 0.4), DecayModel(2.0, 4.0, 0.2)]
DETECTORS = [dict(detector="wl-cusum"), dict(detector="wl-glr", grid=np.linspace(0.1, 0.4, 3)),
             dict(detector="full-cusum")]
THRESHOLDS = [-1.0, 0.0, 2.0, 4.0, 6.0, 9.0, math.inf]


@st.composite
def _points(draw):
    """The plans of 1-4 operating points over one model, detector, change point and seed."""
    kind = draw(st.sampled_from(DETECTORS))
    base = _plan(model=draw(st.sampled_from(MODELS)), nu=draw(st.sampled_from([math.inf, 1, 7])),
                 num_trials=6, seed=draw(st.integers(0, 2**16)), window=None, **kind)
    windows = st.none() if base.detector == "full-cusum" else st.integers(0, 40)
    point = st.builds(dict, threshold=st.sampled_from(THRESHOLDS), window=windows,
                      max_steps=st.integers(1, 150))
    return [replace(base, **p) for p in draw(st.lists(point, min_size=1, max_size=4))]


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(_points())
# a full-history bank past its first cap of 64 lags: its oldest hypotheses, the
# true ones here, decide the alarms after step 64
@hypothesis.example([_plan(model=MODELS[1], detector="full-cusum", window=None, threshold=9.0,
                           num_trials=6, seed=0, max_steps=68)])
def test_each_point_is_its_plan_run_alone(plans):
    times, censored = montecarlo._run(plans)
    _assert_each_alone(plans, times, censored)
