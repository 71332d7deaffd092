"""GLR thresholds drawn at random: the library's Brent solver is scipy's, bit for bit."""

import hypothesis
import hypothesis.strategies as st
import pytest
from scipy.optimize import brentq

from test_scipy_copies import brentq_outcome

from wlcusum import calibration


def _powers_of_ten(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(alpha=_powers_of_ten(-12, -0.01), volume=_powers_of_ten(-6, 6),
                  dim=st.integers(1, 7), epsilon=_powers_of_ten(-4, 2))
def test_glr_brackets_solve_as_scipy_does(alpha, volume, dim, epsilon):
    calls, solve = [], calibration._brentq

    def both(f, a, b, **kw):
        calls.append((f, a, b, kw))
        return solve(f, a, b, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calibration, "_brentq", both)
        try:
            calibration.glr_threshold(alpha, volume, dim, epsilon)
        except (calibration.CalibrationError, ValueError):
            pass  # no usable root: the brackets solved on the way still count
    hypothesis.assume(calls)
    for f, a, b, kw in calls:
        assert brentq_outcome(solve, f, a, b, **kw) == brentq_outcome(brentq, f, a, b, **kw)
