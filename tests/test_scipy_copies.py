"""The library's copies of scipy arithmetic give scipy's bits, and importing
the package leaves ``scipy.stats`` and ``scipy.optimize`` unloaded.

Only these tests import scipy's own versions.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq

from wlcusum import calibration, montecarlo
from wlcusum.models import BetaWaveModel


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


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    # a fresh interpreter, since this one has imported both above
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": str(here.parent / "src")}
    code = ("import sys, wlcusum, wlcusum.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'])))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.strip() == "[]"
