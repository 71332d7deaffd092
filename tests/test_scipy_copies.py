"""The library's copies of scipy arithmetic give scipy's bits, and importing
the package leaves ``scipy.stats`` and ``scipy.optimize`` unloaded. So do GEM
and decay runs on one worker, which also leave ``scipy.special`` and the
process pool unloaded; a Beta wave loads ``scipy.special`` when it is built.

Only these tests import scipy's own versions.
"""

import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq

from wlcusum import calibration, montecarlo
from wlcusum.models import BetaWaveModel, GemModel


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def brentq_outcome(solver, f, a, b, **kw):
    """The root's bits, or the class of error the solver raised."""
    try:
        return _bits(solver(f, a, b, **kw))
    except RuntimeError:  # scipy's failure to converge; ours is a CalibrationError
        return "RuntimeError"
    except ValueError:
        return "ValueError"


def line(x):
    return x - 2.0


@pytest.mark.parametrize("a, b", [(2.0, 5.0), (1.0, 2.0), (-3.0, 2.0)],
                         ids=["root-at-a", "root-at-b", "root-at-b-far"])
def test_brentq_returns_a_bracket_end_that_is_the_root(a, b):
    got = calibration._brentq(line, a, b, xtol=1e-12, rtol=8.9e-16)
    assert got == 2.0
    assert brentq_outcome(calibration._brentq, line, a, b, xtol=1e-12, rtol=8.9e-16) \
        == brentq_outcome(brentq, line, a, b, xtol=1e-12, rtol=8.9e-16)


@pytest.mark.parametrize("f, a, b, xtol", [
    # a step at 0, where only xtol bounds the step: 100 bisections do not reach it
    (lambda x: -1.0 if x < 0.0 else 1.0, -1.0, 1.0, 1e-300),
    (lambda x: x * x + 1.0, -1.0, 1.0, 1e-12),  # no sign change
    (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-12),  # NaN inside the bracket
    (lambda x: math.floor(x * 10) - 3.5, 0.0, 1.0, 1e-12),  # flat pieces
    (lambda x: (x - 1e-3) * 1e308, -1.0, 1.0, 1e-12),  # values near overflow
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, 1e-12),  # Brent's own textbook cubic
    # an extrapolated step too long for the bracket, though short against the last one
    (lambda x: float(np.interp(x, [0.01, 0.18, 0.38, 0.49], [-0.74, -0.41, 0.89, 0.28])),
     0.0, 1.0, 1e-12),
    # values so small that the extrapolation divides by an underflowed zero
    (lambda x: (x - 0.3) ** 3 * 1e-300, 0.0, 1.0, 1e-12),
], ids=["no-convergence", "same-sign", "nan", "steps", "huge", "cubic", "long-step", "subnormal"])
def test_brentq_edges_match_scipy(f, a, b, xtol):
    kw = dict(xtol=xtol, rtol=8.9e-16)
    assert brentq_outcome(calibration._brentq, f, a, b, **kw) == brentq_outcome(brentq, f, a, b, **kw)


# (a, b) pairs with shapes below 1, at 1 and above it
SHAPES = [(0.3, 0.7), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0), (2.0, 3.0), (1e-3, 1e3), (50.0, 0.2),
          (20.6, 2.94e5)]
POINTS = [0.0, 1.0, 5e-324, 1e-300, 1e-8, 0.25, 0.5, 1.0 - 2.0 ** -53]


@pytest.mark.parametrize("a0, b0", SHAPES)
def test_beta_log_pre_density_is_scipys(a0, b0):
    model = BetaWaveModel(a0, b0, (0.464, 3.894, 0.445))
    assert [_bits(model.log_pre_density(x)) for x in POINTS] \
        == [_bits(stats.beta.logpdf(x, a0, b0)) for x in POINTS]


@pytest.mark.parametrize("a0, b0", SHAPES)
def test_beta_log_post_density_is_scipys(a0, b0):
    model = BetaWaveModel(a0, b0, (0.464, 3.894, 0.445))
    for lag in (0, 2, 9, 40):
        a1 = float(model._post_shape(lag))
        assert [_bits(model.log_post_density(x, 5 + lag, 5)) for x in POINTS] \
            == [_bits(stats.beta.logpdf(x, a1, b0)) for x in POINTS]


PROBS = np.arange(1, 100) / 100.0


@pytest.mark.parametrize("p", [1e-300, 1e-16, 1e-9, 1e-3, 0.3, 0.5, 0.99, 1 - 1e-9, 1 - 2.0 ** -53])
def test_geometric_quantiles_are_scipys(p):
    assert _bits(montecarlo._geom_ppf(PROBS, p)) == _bits(stats.geom.ppf(PROBS, p))


@pytest.mark.parametrize("p, size", [(1e-4, 300), (0.01, 1000), (0.6, 400)])
def test_geometric_qq_quantiles_are_scipys(p, size):
    report = montecarlo.geometric_qq(np.random.default_rng(17).geometric(p, size))
    assert _bits(report.theoretical) == _bits(stats.geom.ppf(report.probs, report.p_hat))


# modules a GEM or decay run must not load: scipy.stats and scipy.optimize
# have copies above, scipy.special only serves the Beta wave, and the process
# pool only a run with workers > 1
HEAVY = ("scipy.special", "scipy.stats", "scipy.optimize", "concurrent.futures.process")
HEAVY_LOADED = f"sorted(m for m in sys.modules if m.startswith({HEAVY!r}))"
GEM = ["--model", "gem", "--mu0", "0.1", "--sigma0-sq", "1e4", "--theta", "0.4"]
DECAY = ["--model", "decay", "--mu1", "2", "--sigma-sq", "4", "--theta", "0.2"]


def _fresh(code):
    """stdout of code run in a fresh interpreter, since this one has imported
    scipy's modules above."""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": str(here.parent / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return run.stdout.strip()


def test_fresh_process_leaves_heavy_modules_unloaded(tmp_path):
    # what is loaded after the import, then after each run in the same process
    runs = {
        "estimate-mtfa-gem": ["estimate-mtfa", *GEM, "--alpha", "1e-2", "--window", "25",
                              "--trials", "6", "--seed", "1", "--max-steps", "300"],
        "estimate-add-decay": ["estimate-add", *DECAY, "--alpha", "1e-3", "--nu", "5",
                               "--trials", "8", "--seed", "5"],
    }
    code = f"""
import contextlib, io, json, sys, warnings
import wlcusum, wlcusum.cli
loaded = {{"import": {HEAVY_LOADED}}}
for name, argv in {runs!r}.items():
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # censored MTFA trials
        assert wlcusum.cli.main([*argv, "--workers", "1", "--out", {str(tmp_path)!r} + "/" + name]) == 0
    loaded[name] = {HEAVY_LOADED}
print(json.dumps(loaded))
"""
    assert json.loads(_fresh(code)) == {"import": [], **{name: [] for name in runs}}


def test_building_a_beta_wave_loads_scipy_special():
    code = f"""
import sys
from wlcusum.models import BetaWaveModel, GemModel
before = {HEAVY_LOADED}
BetaWaveModel(5.0, 20.0, (0.5, 10.0, 4.0))
print(before, "scipy.special" in sys.modules)
"""
    assert _fresh(code) == "[] True"


BETA_WAVE = BetaWaveModel(5.0, 20.0, (0.5, 10.0, 4.0))
GEM_MODEL = GemModel(0.1, 1e4, 0.4)
LAGS = np.arange(40)


def test_unpickled_beta_wave_gives_the_same_bits():
    # an unpickled model skips __post_init__, as in a spawned worker
    code = f"""
import json, pickle, sys
import numpy as np
model = pickle.loads({pickle.dumps(BETA_WAVE)!r})
assert "scipy.special" not in sys.modules
lags = np.arange({len(LAGS)})
values = [*model.llr_terms(lags), *model.stat_moments(lags),
          [model.log_pre_density(0.3), model.log_post_density(0.3, 12, 2)]]
print(json.dumps([np.asarray(v, dtype=float).view(np.int64).tolist() for v in values]))
"""
    want = [*BETA_WAVE.llr_terms(LAGS), *BETA_WAVE.stat_moments(LAGS),
            [BETA_WAVE.log_pre_density(0.3), BETA_WAVE.log_post_density(0.3, 12, 2)]]
    assert json.loads(_fresh(code)) == [_bits(v) for v in want]


def test_beta_wave_trials_on_two_workers_equal_one():
    plan = montecarlo.TrialPlan(model=BETA_WAVE, detector="wl-cusum", threshold=6.0, window=15,
                                nu=20, num_trials=10, seed=5, max_steps=400)
    serial = montecarlo.run_trials(plan)
    parallel = montecarlo.run_trials(dataclasses.replace(plan, workers=2))
    assert [a.tobytes() for a in parallel] == [a.tobytes() for a in serial]


def test_one_chunk_of_trials_runs_without_a_pool():
    # one trial on four workers is one chunk: it runs in this process
    code = f"""
import json, sys
from wlcusum.models import GemModel
from wlcusum.montecarlo import TrialPlan, run_trials
plan = TrialPlan(model=GemModel(0.1, 1e4, 0.4), detector="wl-cusum", threshold=4.0,
                 window=25, nu=1, num_trials=1, seed=3, workers=4)
times, censored = run_trials(plan)
loaded = {HEAVY_LOADED}
print(json.dumps([times.tolist(), censored.tolist(), loaded]))
"""
    serial = montecarlo.run_trials(montecarlo.TrialPlan(
        model=GEM_MODEL, detector="wl-cusum", threshold=4.0, window=25, nu=1, num_trials=1,
        seed=3, workers=1))
    assert json.loads(_fresh(code)) == [serial[0].tolist(), serial[1].tolist(), []]
