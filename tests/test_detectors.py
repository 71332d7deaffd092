"""Streaming detectors against direct recomputation and textbook recursions."""

import math
import re

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import ShiftModel

from wlcusum import detectors
from wlcusum.detectors import (
    FullCusum,
    SrStatistic,
    WlCusum,
    WlGlr,
    run_until_alarm,
    theta_grid,
)
from wlcusum.models import BetaWaveModel, DecayModel, GemModel, SupportError

# GemModel(1,1,1) on observations (1.0, 0.0, 10.0): hand-checkable bank values
EX2_STAT_N3 = 33.89695792326906
EX2_LLR_21 = -3.1945280494653248
EX2_LLR_32 = 13.988290235125126

COUNTY_THETA = (0.464, 3.894, 0.445)


# every detector kind over one model; WlGlr's grid is the model's theta and half of it
DETECTORS = {
    "WlCusum": lambda model, window: WlCusum(model, threshold=1e9, window=window),
    "FullCusum": lambda model, window: FullCusum(model, threshold=1e9),
    "WlGlr": lambda model, window: WlGlr(
        model, threshold=1e9, window=window, grid=np.multiply.outer([0.5, 1.0], model.theta)
    ),
    "SrStatistic": lambda model, window: SrStatistic(model),
}


class _AbsShift(ShiftModel):
    """N(0, 1) -> N(|theta|, 1): grid points +-theta share one column of LLR terms."""

    @property
    def theta(self):
        return self.delta

    def with_theta(self, theta):
        grid = _AbsShift(1.0)
        grid.delta = np.abs(np.asarray(theta, dtype=float))
        return grid

    def llr_terms(self, lags):
        zero = np.zeros(np.broadcast_shapes(np.shape(lags), np.shape(self.delta)))
        return zero + self.delta, zero - 0.5 * self.delta**2


def _bits(v):
    return np.float64(v).tobytes()


def _direct_stat(model, xs, n, window):
    """The defining max over change hypotheses, recomputed from scratch."""
    lo = max(1, n - window)
    ks = np.arange(lo, n + 1)
    vals = np.array(
        [sum(model.log_likelihood_ratio(xs[i - 1], i, k) for i in range(k, n + 1)) for k in ks]
    )
    best = vals.max()
    if best < 0:
        return 0.0, n + 1
    return best, int(ks[np.flatnonzero(vals == best)[0]])


class TestWlCusumStepByStep:
    def test_three_step_replay(self):
        det = WlCusum(GemModel(1.0, 1.0, 1.0), threshold=1e9, window=5)
        out1 = det.step(1.0)
        assert (out1.time, out1.statistic, out1.k_star) == (1, 0.0, 1)
        out2 = det.step(0.0)
        assert (out2.time, out2.statistic, out2.k_star) == (2, 0.0, 2)
        hyps = dict(det.hypotheses())
        np.testing.assert_allclose(hyps[1], EX2_LLR_21, rtol=1e-13)
        out3 = det.step(10.0)
        assert out3.k_star == 1
        np.testing.assert_allclose(out3.statistic, EX2_STAT_N3, rtol=1e-13)
        hyps = dict(det.hypotheses())
        np.testing.assert_allclose(hyps[2], EX2_LLR_32, rtol=1e-13)

    def test_hypotheses_listed_newest_first(self):
        det = WlCusum(GemModel(1.0, 1.0, 1.0), threshold=1e9, window=5)
        for x in (1.0, 0.0, 10.0):
            det.step(x)
        assert [k for k, _ in det.hypotheses()] == [3, 2, 1]

    def test_alarm_flag_tracks_threshold(self):
        det = WlCusum(GemModel(1.0, 1.0, 1.0), threshold=30.0, window=5)
        assert not det.step(1.0).alarm
        assert not det.step(0.0).alarm
        assert det.step(10.0).alarm

    def test_smallest_k_wins_ties(self):
        det = WlCusum(ShiftModel(1.0), threshold=1e9, window=5)
        det.step(0.5)
        out = det.step(2.0)
        # both hypotheses sit at exactly 1.5; report the older change point
        assert dict(det.hypotheses()) == {1: 1.5, 2: 1.5}
        assert out.statistic == 1.5
        assert out.k_star == 1

    def test_window_zero_keeps_only_newest_hypothesis(self):
        model = DecayModel(2.0, 4.0, 0.2)
        det = WlCusum(model, threshold=1e9, window=0)
        rng = np.random.default_rng(7)
        for x in rng.normal(2.0, 2.0, 20):
            out = det.step(x)
            lag0 = model.log_likelihood_ratio(x, 1, 1)
            np.testing.assert_allclose(out.statistic, max(0.0, lag0), atol=1e-15)
            assert out.k_star == (out.time if lag0 >= 0 else out.time + 1)

    @pytest.mark.parametrize("make", DETECTORS.values(), ids=DETECTORS.keys())
    def test_reset_matches_fresh_detector(self, make):
        rng = np.random.default_rng(3)
        xs = rng.normal(0.1, 100.0, 15)
        det = make(GemModel(0.1, 1e4, 0.4), window=6)
        for x in xs:
            det.step(x)
        det.reset()
        fresh = make(GemModel(0.1, 1e4, 0.4), window=6)
        for x in xs:
            np.testing.assert_array_equal(det.step(x).statistic, fresh.step(x).statistic)

    @pytest.mark.parametrize("make", DETECTORS.values(), ids=DETECTORS.keys())
    def test_support_error_leaves_state_unchanged(self, make):
        model = BetaWaveModel(20.6, 2.94e5, COUNTY_THETA)
        rng = np.random.default_rng(11)
        xs = rng.beta(20.6, 2.94e5, 12)
        poisoned = make(model, window=5)
        clean = make(model, window=5)
        for i, x in enumerate(xs):
            if i == 6:
                with pytest.raises(SupportError):
                    poisoned.step(1.5)
            a, b = poisoned.step(x), clean.step(x)
            assert a.statistic == b.statistic and a.time == b.time

    def test_constructor_validation(self):
        model = GemModel(0.1, 1e4, 0.4)
        for window in (-1, 2.5, math.nan, None):
            message = re.escape(f"window must be a whole number >= 0, got {window!r}")
            with pytest.raises(ValueError, match=message):
                WlCusum(model, 1.0, window)
            with pytest.raises(ValueError, match=message):
                WlGlr(model, 1.0, window, [0.4])
        assert WlCusum(model, 1.0, 4.0).window == 4


@pytest.mark.parametrize(
    "model, loc, scale",
    [
        (GemModel(0.1, 1e4, 0.4), 0.1, 100.0),
        (DecayModel(2.0, 4.0, 0.2), 0.5, 2.0),
    ],
    ids=["gem", "decay"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_streaming_matches_direct_recomputation(model, loc, scale, seed):
    rng = np.random.default_rng(seed)
    xs = rng.normal(loc, scale, 28)
    det = WlCusum(model, threshold=1e9, window=8)
    for n, x in enumerate(xs, start=1):
        out = det.step(x)
        want, want_k = _direct_stat(model, xs, n, 8)
        np.testing.assert_allclose(out.statistic, want, rtol=1e-9, atol=1e-8)
        assert out.k_star == want_k


@pytest.mark.parametrize("seed", [0, 1])
def test_streaming_matches_direct_recomputation_beta(seed):
    model = BetaWaveModel(20.6, 2.94e5, COUNTY_THETA)
    rng = np.random.default_rng(seed)
    xs = model.sample_segment(rng, nu=12, start=1, length=24)
    det = WlCusum(model, threshold=1e9, window=8)
    for n, x in enumerate(xs, start=1):
        out = det.step(x)
        want, want_k = _direct_stat(model, xs, n, 8)
        np.testing.assert_allclose(out.statistic, want, rtol=1e-9, atol=1e-8)
        if want > 1e-6:
            # near zero the gammaln round-off (~1e-9 here) can flip which
            # hypothesis wins; the argmax is only meaningful away from it
            assert out.k_star == want_k


class TestFullCusum:
    def test_equals_window_covering_whole_stream(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(0.1, 100.0, 40)
        full = FullCusum(GemModel(0.1, 1e4, 0.4), threshold=1e9)
        wl = WlCusum(GemModel(0.1, 1e4, 0.4), threshold=1e9, window=60)
        for x in xs:
            a, b = full.step(x), wl.step(x)
            np.testing.assert_allclose(a.statistic, b.statistic, rtol=1e-12, atol=1e-12)
            assert a.k_star == b.k_star

    def test_page_recursion_oracle(self):
        """Stationary shift reduces to the classical one-number recursion."""
        model = ShiftModel(0.7)
        det = FullCusum(model, threshold=1e9)
        rng = np.random.default_rng(9)
        w = 0.0
        for x in rng.normal(0.0, 1.0, 200):
            w = max(0.0, w + model.scalar_llr(x))
            np.testing.assert_allclose(det.step(x).statistic, w, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize(
        "make, recursion",
        [
            (lambda model: FullCusum(model, threshold=1e9), lambda w, z: max(0.0, w + z)),
            (SrStatistic, lambda r, z: math.exp(z) * (r + 1.0)),
        ],
        ids=["FullCusum", "SrStatistic"],
    )
    def test_bank_growth_beyond_initial_capacity(self, make, recursion):
        # more steps than the initial internal buffer, still exact against the
        # Page (CuSum) or multiplicative (Shiryaev-Roberts) one-number recursion
        rng = np.random.default_rng(13)
        xs = rng.normal(0.0, 1.0, 300)
        model = ShiftModel(0.3)
        det = make(model)
        w = 0.0
        for x in xs:
            w = recursion(w, model.scalar_llr(x))
            out = det.step(x)
        np.testing.assert_allclose(out.statistic, w, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_full_alarms_no_later_than_windowed(self, seed):
        rng = np.random.default_rng([41, seed])
        xs = rng.normal(0.1, 100.0, 4000)
        model = GemModel(0.1, 1e4, 0.4)
        full = run_until_alarm(FullCusum(model, threshold=3.0), xs)
        wl = run_until_alarm(WlCusum(model, threshold=3.0, window=10), xs)
        assert full.time <= wl.time


@pytest.mark.parametrize("kind", ["WlCusum", "FullCusum", "WlGlr"])
@pytest.mark.parametrize("model", [GemModel(0.1, 1e4, 0.4), BetaWaveModel(2.0, 3.0, COUNTY_THETA)],
                         ids=["gem", "betawave"])
def test_push_batch_is_bitwise_push(kind, model):
    # a lockstep (L, T[, G]) stack advanced by the one bank update: each column
    # stays byte-equal to a bank stepped alone, as columns drop out when trials
    # alarm and as FullCusum outgrows its tables
    rng = np.random.default_rng(29)
    xs = model.sample_segment(rng, 50, 1, 6 * 150).reshape(6, 150)
    banks = [DETECTORS[kind](model, 7) for _ in range(6)]
    shared = DETECTORS[kind](model, 7)
    unit = (1,) * len(shared._shape)
    stack = np.empty((0, 6, *shared._shape))
    live = list(range(6))
    for j in range(150):
        for r in live:
            banks[r].step(xs[r, j])
        stack = shared._advance(stack, model.sufficient_stats(xs[live, j]).reshape(-1, *unit))
        for col, r in enumerate(live):
            assert stack[:, col].tobytes() == banks[r]._lam[:, 0].tobytes()
        if j % 40 == 39:
            stack, live = stack[:, 1:], live[1:]


@pytest.mark.parametrize("kind", DETECTORS)
def test_nan_bank_raises(kind):
    # -1e308 drives the older hypotheses to -inf and +1e308 next adds +inf to
    # them: the bank max is NaN, which is neither an alarm nor "no change"
    model = GemModel(0.1, 1e4, 0.4)
    xs = [*model.sample_segment(np.random.default_rng(7), math.inf, 1, 39), -1e308, 1e308]
    det = DETECTORS[kind](model, 1000)
    det.threshold = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for x in xs[:40]:
            det.step(x)
        with pytest.raises(FloatingPointError, match="at step 41"):
            det.step(xs[40])


class TestThetaGrid:
    def test_scalar_box_midpoints(self):
        np.testing.assert_allclose(
            theta_grid((0.0, 0.5), 5), [0.05, 0.15, 0.25, 0.35, 0.45], rtol=1e-15
        )

    def test_one_dim_sequence_keeps_column_shape(self):
        grid = theta_grid([(0.0, 0.5)], 5)
        assert grid.shape == (5, 1)

    def test_two_dim_lexicographic(self):
        grid = theta_grid([(0.0, 1.0), (0.0, 10.0)], (2, 2))
        np.testing.assert_allclose(
            grid, [[0.25, 2.5], [0.25, 7.5], [0.75, 2.5], [0.75, 7.5]], rtol=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            theta_grid((0.5, 0.5), 4)
        with pytest.raises(ValueError):
            theta_grid([(0.0, 1.0), (0.0, 1.0)], (2,))
        with pytest.raises(ValueError):
            theta_grid((0.0, 1.0), 0)


class TestWlGlr:
    def test_singleton_grid_equals_plain_detector(self):
        model = GemModel(0.1, 1e4, 0.4)
        glr = WlGlr(model, threshold=1e9, window=8, grid=np.array([0.4]))
        plain = WlCusum(model, threshold=1e9, window=8)
        rng = np.random.default_rng(17)
        for x in rng.normal(0.1, 100.0, 30):
            a, b = glr.step(x), plain.step(x)
            assert a.statistic == b.statistic
            assert a.k_star == b.k_star
            assert a.theta_hat == 0.4

    def test_dominates_every_grid_point(self):
        model = GemModel(0.1, 1e4, 0.3)
        grid = theta_grid((0.1, 0.5), 4)
        glr = WlGlr(model, threshold=1e9, window=8, grid=grid)
        plain = [WlCusum(model.with_theta(t), threshold=1e9, window=8) for t in grid]
        rng = np.random.default_rng(19)
        for x in rng.normal(0.1, 100.0, 30):
            out = glr.step(x)
            best = max(det.step(x).statistic for det in plain)
            assert out.statistic >= best - 1e-12
            np.testing.assert_allclose(out.statistic, best, rtol=1e-9, atol=1e-12)

    def test_theta_hat_recovers_strong_signal(self):
        true = 0.4
        model = GemModel(0.1, 1e-4, true)  # near-noiseless: the drift dominates
        grid = theta_grid((0.05, 0.55), 5)  # contains 0.4 as a midpoint
        glr = WlGlr(model, threshold=1e9, window=12, grid=grid)
        rng = np.random.default_rng(23)
        xs = model.sample_segment(rng, nu=1, start=1, length=10)
        for x in xs:
            out = glr.step(x)
        assert out.theta_hat == pytest.approx(true, abs=1e-12)
        assert out.k_star == 1

    def test_theta_hat_none_when_no_hypothesis_is_positive(self):
        glr = WlGlr(
            DecayModel(2.0, 4.0, 0.2), threshold=1e9, window=5, grid=np.array([0.1, 0.3])
        )
        out = glr.step(-1.0)
        assert out.statistic == 0.0
        assert out.k_star == 2
        assert out.theta_hat is None

    @pytest.mark.parametrize("grid, theta_hat", [([-1.0, 1.0, 0.5], -1.0),
                                                 ([0.5, 1.0, -1.0], 1.0)])
    def test_ties_go_to_the_smallest_k_then_the_first_grid_point(self, grid, theta_hat):
        # +-1 share one column of terms: lambda_{2,1} = lambda_{2,2} = 1.5 in both
        det = WlGlr(_AbsShift(1.0), threshold=1e9, window=5, grid=np.array(grid))
        det.step(0.5)
        out = det.step(2.0)
        assert det._lam[:, 0, grid.index(1.0)].tolist() == [1.5, 1.5]
        assert det._lam[..., grid.index(-1.0)].tobytes() == det._lam[..., grid.index(1.0)].tobytes()
        assert (out.statistic, out.k_star, out.theta_hat) == (1.5, 1, theta_hat)

    @pytest.mark.parametrize("row", [0, 2])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_a_nan_in_any_column_raises(self, row, column):
        # the max sits in column 0 at the oldest lag; the NaN may be anywhere
        det = WlGlr(_AbsShift(1.0), threshold=1e9, window=5, grid=np.array([1.0, 0.5, 2.0]))
        for x in (3.0, 0.0, 0.0):
            det.step(x)
        assert det._lam.argmax() == 0
        det._lam[row, 0, column] = math.nan
        with pytest.raises(FloatingPointError, match="at step 4"):
            det.step(0.0)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_an_all_negative_bank_reports_no_change(self, threshold):
        det = WlGlr(_AbsShift(1.0), threshold=threshold, window=2, grid=np.array([0.5, 1.0]))
        for n in range(1, 6):  # through warm-up and evictions
            out = det.step(-3.0)
            assert (det._lam < 0.0).all()
            assert _bits(out.statistic) == _bits(0.0)
            assert (out.time, out.k_star, out.theta_hat) == (n, n + 1, None)
            assert out.alarm == (threshold <= 0.0)

    def test_no_hypotheses_api(self):
        glr = WlGlr(
            GemModel(0.1, 1e4, 0.4), threshold=1e9, window=5, grid=np.array([0.4])
        )
        assert not hasattr(glr, "hypotheses")

    def test_grid_validation(self):
        model = GemModel(0.1, 1e4, 0.4)
        with pytest.raises(ValueError):
            WlGlr(model, threshold=1.0, window=5, grid=np.array([]))
        with pytest.raises(ValueError):
            WlGlr(model, threshold=1.0, window=5, grid=np.zeros((2, 2, 2)))


class TestSrStatistic:
    def test_starts_from_zero(self):
        sr = SrStatistic(ShiftModel(0.5))
        assert sr.value == 0.0
        assert sr.log_value == -math.inf

    def test_matches_multiplicative_recursion(self):
        model = ShiftModel(0.5)
        sr = SrStatistic(model)
        rng = np.random.default_rng(29)
        r = 0.0
        for x in rng.normal(0.0, 1.0, 120):
            out = sr.step(x)
            r = math.exp(model.scalar_llr(x)) * (r + 1.0)
            np.testing.assert_allclose(out.statistic, r, rtol=1e-9)

    def test_alarm_on_threshold(self):
        sr = SrStatistic(ShiftModel(1.0), threshold=0.5)
        out = sr.step(3.0)
        assert out.alarm
        assert out.statistic > 0.5

    def test_value_past_log_709_is_not_capped(self):
        sr = SrStatistic(ShiftModel(1.0))
        out = sr.step(710.0)  # Z = 710 - 1/2
        assert sr.log_value == 709.5
        assert out.statistic == sr.value == math.exp(709.5)

    def test_overflowing_value_is_inf_and_alarms(self):
        sr = SrStatistic(GemModel(0.1, 1e4, 0.4), threshold=1e308)
        assert not sr.step(1.0).alarm
        out = sr.step(1e308)
        assert sr.log_value > 1e302
        assert out.statistic == sr.value == math.inf
        assert out.alarm

    def test_one_logsumexp_per_step(self, monkeypatch):
        calls = []

        def counting_logsumexp(a):
            calls.append(len(a))
            return logsumexp(a)

        monkeypatch.setattr(detectors, "logsumexp", counting_logsumexp)
        sr = SrStatistic(ShiftModel(0.5))
        for x in np.random.default_rng(31).normal(0.0, 1.0, 25):
            sr.step(x)
        assert calls == list(range(1, 26))  # one O(n) reduction of the n-entry bank


class TestRunUntilAlarm:
    def test_censored_on_stream_exhaustion(self):
        det = WlCusum(GemModel(0.1, 1e4, 0.4), threshold=1e9, window=5)
        rec = run_until_alarm(det, np.zeros(10))
        assert rec.censored
        assert rec.time == 10

    def test_censored_by_max_steps(self):
        det = WlCusum(GemModel(0.1, 1e4, 0.4), threshold=1e9, window=5)
        rec = run_until_alarm(det, np.zeros(100), max_steps=7)
        assert rec.censored
        assert rec.time == 7

    def test_nonpositive_threshold_alarms_immediately(self):
        det = WlCusum(GemModel(0.1, 1e4, 0.4), threshold=-1.0, window=5)
        rec = run_until_alarm(det, np.zeros(10))
        assert not rec.censored
        assert rec.time == 1

    def test_stops_at_first_crossing(self):
        model = GemModel(1.0, 1.0, 1.0)
        rec = run_until_alarm(
            WlCusum(model, threshold=30.0, window=5), np.array([1.0, 0.0, 10.0, 5.0])
        )
        assert not rec.censored
        assert rec.time == 3
        np.testing.assert_allclose(rec.statistic, EX2_STAT_N3, rtol=1e-13)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_only_a_nan_threshold_is_refused(threshold):
    model = GemModel(0.1, 1e4, 0.4)
    builds = [lambda: WlCusum(model, threshold, 5), lambda: FullCusum(model, threshold),
              lambda: WlGlr(model, threshold, 5, [0.2, 0.4]),
              lambda: SrStatistic(model, threshold)]
    for build in builds:
        if math.isnan(threshold):
            with pytest.raises(ValueError, match=r"threshold must be a number or \+-inf, got nan"):
                build()
        else:
            assert build().threshold == threshold
