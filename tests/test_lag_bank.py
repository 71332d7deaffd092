"""The hypothesis bank's storage rules: grid tables, dead-lag eviction, the
overflow guard, the one-argmax step and the SR reduction."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from conftest import ShiftModel

from wlcusum import detectors
from wlcusum.detectors import FullCusum, SrStatistic, WlCusum, WlGlr, theta_grid
from wlcusum.models import BetaWaveModel, DecayModel, GemModel
from wlcusum.montecarlo import TrialPlan, run_trials

GEM = GemModel(0.1, 1e4, 0.4)
GEM_DEAD_LAG = 888  # first lag whose GEM (theta = 0.4) terms overflow and are pinned
COUNTY = BetaWaveModel(20.6, 2.94e5, (0.464, 3.894, 0.445))


def _bits(v):
    return np.float64(v).tobytes()


# (id, model, grid, windows): the GEM window reaches past theta = 0.4's first
# dead lag, the Beta wave grid is the monitor-epi one (G = 1000)
GRID_CASES = [
    ("gem", GEM, theta_grid((0.0, 0.5), 50), (23, 1000)),
    ("decay", DecayModel(2.0, 4.0, 0.2), theta_grid((0.0, 0.5), 50), (15, 699, 4095)),
    ("betawave", COUNTY, theta_grid([(0.1, 5.0), (1.0, 20.0), (0.1, 5.0)], 10), (20, 199)),
]


def _grid_table_mismatches() -> list[str]:
    """The cases whose bank tables differ from one llr_terms call per grid point."""
    bad = []
    for name, model, grid, windows in GRID_CASES:
        for window in windows:
            bank = WlGlr(model, 1e9, window, grid)
            pairs = [model.with_theta(t).llr_terms(np.arange(window + 1)) for t in grid]
            slopes = np.array([s for s, _ in pairs]).T
            intercepts = np.array([c for _, c in pairs]).T
            intercepts[0] += 0.0  # the bank stores GEM's lag-0 intercept -0.0 as +0.0
            if (slopes.tobytes() != bank._slopes[::-1, 0].tobytes()
                    or intercepts.tobytes() != bank._intercepts[::-1, 0].tobytes()):
                bad.append(f"{name} window {window}")
    return bad


def test_grid_tables_equal_the_per_point_loop(monkeypatch):
    assert _grid_table_mismatches() == []
    calls, llr_terms = [], BetaWaveModel.llr_terms

    def counted(model, lags):
        calls.append(lags.shape)
        return llr_terms(model, lags)

    monkeypatch.setattr(BetaWaveModel, "llr_terms", counted)
    WlGlr(COUNTY, 1e9, 20, GRID_CASES[2][2])
    assert calls == [(21, 1)]


def test_grid_tables_equal_the_per_point_loop_on_avx2():
    # numpy's AVX-512 and AVX2 loops for exp and power round differently; the
    # grid and per-point tables must agree under either
    here = Path(__file__).resolve().parent
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    code = "import test_lag_bank as t; print(t._grid_table_mismatches())"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.strip() == "[]"


# (model, a valid point, an invalid one); GEM theta <= 0, decay outside (0, 0.5),
# the Beta wave theta2 <= 0 or theta0 < 0, and +inf and NaN, which lie in no range
BAD_POINTS = [
    (GEM, 0.2, 0.0), (GEM, 0.2, -0.1), (GEM, 0.2, math.nan), (GEM, 0.2, math.inf),
    (DecayModel(2.0, 4.0, 0.2), 0.2, 0.5), (DecayModel(2.0, 4.0, 0.2), 0.2, 0.0),
    (DecayModel(2.0, 4.0, 0.2), 0.2, math.nan), (DecayModel(2.0, 4.0, 0.2), 0.2, math.inf),
    (COUNTY, (0.4, 3.0, 0.5), (0.4, 3.0, 0.0)), (COUNTY, (0.4, 3.0, 0.5), (0.4, 3.0, -1.0)),
    (COUNTY, (0.4, 3.0, 0.5), (-0.1, 3.0, 0.5)),
    # each wave component at +inf and NaN
    *[(COUNTY, (0.4, 3.0, 0.5), tuple(v if i == j else g for j, g in enumerate((0.4, 3.0, 0.5))))
      for i in range(3) for v in (math.inf, math.nan)],
]


@pytest.mark.parametrize("model, good, bad", BAD_POINTS,
                         ids=[f"{type(m).__name__}-{b}" for m, _, b in BAD_POINTS])
def test_a_bad_grid_point_is_rejected_as_it_is_alone(model, good, bad):
    with pytest.raises(ValueError) as alone:
        model.with_theta(bad)
    grid = np.array([good, bad, good])
    with pytest.raises(ValueError) as in_grid:
        model.with_theta(grid)
    assert str(in_grid.value) == str(alone.value)
    with pytest.raises(ValueError) as in_detector:
        WlGlr(model, 1e9, 5, grid)
    assert str(in_detector.value) == str(alone.value)


@pytest.mark.parametrize("model, grid", [(GEM, theta_grid((0.0, 0.5), 5)),
                                         (COUNTY, GRID_CASES[2][2])], ids=["gem", "betawave"])
def test_theta_hat_is_a_float_or_a_tuple_of_floats(model, grid):
    det = WlGlr(model, 1e9, 5, grid)
    out = next(o for o in map(det.step, model.sample_segment(np.random.default_rng(3), 1, 1, 20))
               if o.theta_hat is not None)
    if grid.ndim == 1:
        assert type(out.theta_hat) is float and out.theta_hat in grid.tolist()
    else:
        assert type(out.theta_hat) is tuple and all(type(v) is float for v in out.theta_hat)
        assert list(out.theta_hat) in grid.tolist()


@pytest.mark.parametrize("make", [lambda: WlCusum(GEM, 8.0, 2000), lambda: FullCusum(GEM, 8.0)],
                         ids=["WlCusum", "FullCusum"])
def test_post_change_overflow_alarms_instead_of_nan(make):
    # about 920 lags after the change slope * s overflows to +inf at live lags;
    # such an entry is evicted at the dead lag instead of meeting its -inf
    # intercept, and the overflow raises no warning (warnings are errors here)
    xs = GEM.sample_segment(np.random.default_rng(5), 1, 1, 1000)
    det = make()
    outs = [det.step(x) for x in xs]
    stats = np.array([o.statistic for o in outs])
    assert not np.isnan(stats).any()
    assert np.isinf(stats).any()
    assert all(o.alarm for o in outs if math.isinf(o.statistic))
    assert det.window == (2000 if isinstance(det, WlCusum) else None)
    assert det._hot
    det.reset()
    assert not det._hot


@pytest.mark.parametrize("detector, window", [("wl-cusum", 2000), ("full-cusum", None)])
def test_lockstep_overflow_alarms_without_a_warning(detector, window):
    # b = inf: only the +inf entries of the post-change overflow can alarm
    plan = TrialPlan(model=GEM, detector=detector, threshold=math.inf, window=window, nu=1,
                     num_trials=3, seed=5, max_steps=1000)
    times, censored = run_trials(plan)
    det = WlCusum(GEM, math.inf, 2000)
    for t in range(3):
        rng = np.random.default_rng([5, t])
        det.reset()
        xs = np.concatenate([GEM.sample_segment(rng, 1, 1, 512),
                             GEM.sample_segment(rng, 1, 513, 488)])  # as trials draw them
        want = next(n for n, x in enumerate(xs, 1) if det.step(x).alarm)
        assert want > 900
        assert (times[t], censored[t]) == (want, False)


def test_lockstep_scan_overflow_alarms_without_a_warning():
    # GEM theta = 0.4 does not overflow inside a window of 23; at theta = 2 the
    # post-change draws near lag 340 overflow slope * s there, before the
    # draws themselves overflow past lag 354, and the window-23 bank is scanned
    model = GemModel(0.1, 1e4, 2.0)
    plan = TrialPlan(model=model, detector="wl-cusum", threshold=math.inf, window=23, nu=1,
                     num_trials=3, seed=5, max_steps=355)
    times, censored = run_trials(plan)
    det = WlCusum(model, math.inf, 23)
    for t in range(3):
        det.reset()
        xs = model.sample_segment(np.random.default_rng([5, t]), 1, 1, 355)
        want = next(n for n, x in enumerate(xs, 1) if det.step(x).alarm)
        assert want > 256  # past the first sub-block
        assert (times[t], censored[t]) == (want, False)
        assert det._hot


@pytest.mark.parametrize("model", [GEM, DecayModel(2.0, 4.0, 0.2)], ids=["gem", "decay"])
@pytest.mark.parametrize("window", [0, 1, 23])
def test_scan_is_bitwise_advance(model, window):
    # every carried length a lockstep bank can hand over, and block lengths
    # on both sides of the cap
    rng = np.random.default_rng(29)
    bank = WlCusum(model, 5.0, window)
    cap = bank._cap
    for carried in sorted({0, 1, cap - 1, cap} - {-1}):
        for steps in sorted({1, max(cap - 1, 1), cap, cap + 1, 40}):
            lam = rng.normal(0.0, 3.0, (min(carried, cap), 4))
            xs = model.sample_segment(rng, math.inf, 1, steps * 4).reshape(steps, 4)
            stats = model.sufficient_stats(xs.ravel()).reshape(xs.shape)
            maxima, after = bank._scan(lam, stats)
            want = lam
            for r in range(steps):
                want = bank._advance(want, stats[r])
                assert maxima[r].tobytes() == want.max(axis=0).tobytes()
            assert after.tobytes() == want[max(len(want) - (cap - 1), 0) :].tobytes()
            assert after.shape == (min(len(want), cap - 1), 4)



@pytest.mark.parametrize("model", [GEM, DecayModel(2.0, 4.0, 0.2)], ids=["gem", "decay"])
def test_scan_spans_are_the_newest_lags_of_advance(model):
    # narrower windows' maxima over the newest lags, in a trial's first steps too
    rng = np.random.default_rng(31)
    bank = WlCusum(model, 5.0, 23)
    narrow = (1, 6, 12)
    for carried in (0, 1, 7, 23):
        for steps in (1, 11, 24, 40):
            lam = rng.normal(0.0, 3.0, (carried, 4))
            xs = model.sample_segment(rng, math.inf, 1, steps * 4).reshape(steps, 4)
            stats = model.sufficient_stats(xs.ravel()).reshape(xs.shape)
            maxima, after = bank._scan(lam, stats, narrow)
            assert maxima.shape == (steps, 4, 4)
            want = lam
            for r in range(steps):
                want = bank._advance(want, stats[r])
                for u, span in enumerate((*narrow, 24)):
                    assert maxima[r, u].tobytes() == want[-span:].max(axis=0).tobytes()
            assert after.tobytes() == want[max(len(want) - 23, 0) :].tobytes()


def _two_pass_step(bank, lam, n, x):
    """One step as ``_advance`` and then the two-pass reduction: the max over
    grid points, the first row holding the max, then that row's first maximising
    grid point. Returns the new bank and (statistic, k_star, theta_hat, alarm)."""
    with np.errstate(over="ignore"):
        lam = bank._advance(lam, bank.model.sufficient_stat(x))
    rows = lam.max(axis=2) if lam.ndim == 3 else lam
    i = int(rows.argmax())
    best = float(rows[i, 0])
    if best < 0.0:
        return lam, (0.0, n + 1, None, 0.0 >= bank.threshold)
    theta_hat = bank._points[int(np.argmax(lam[i, 0]))] if lam.ndim == 3 else None
    return lam, (best, n - len(lam) + 1 + i, theta_hat, best >= bank.threshold)


BETA_WAVE = BetaWaveModel(2.0, 3.0, (0.464, 3.894, 0.445))
# (id, stream, hot): GEM's pre-change stream runs past a full-history bank's
# table doublings up to its cut at the dead lag 888; on the post-change stream
# from seed 5 a bank that reaches that lag steps hot from step 903 and holds
# +inf entries from step 922 on
STEP_STREAMS = [
    ("gem", GEM, lambda: GEM.sample_segment(np.random.default_rng(3), math.inf, 1, 1000), False),
    ("gem-overflow", GEM, lambda: GEM.sample_segment(np.random.default_rng(5), 1, 1, 1000), True),
    ("betawave", BETA_WAVE,
     lambda: BETA_WAVE.sample_segment(np.random.default_rng(9), 150, 1, 300), False),
]
# (id, build, whether the bank reaches GEM's dead lag, where the overflow comes)
STEP_DETECTORS = [
    ("WlCusum-0", lambda model, b: WlCusum(model, b, 0), False),
    ("WlCusum-23", lambda model, b: WlCusum(model, b, 23), False),
    ("WlCusum-2000", lambda model, b: WlCusum(model, b, 2000), True),
    ("FullCusum", lambda model, b: FullCusum(model, b), True),
    ("WlGlr-23", lambda model, b: WlGlr(model, b, 23, np.multiply.outer([0.5, 1, 1.5],
                                                                       model.theta)), False),
]


@pytest.mark.parametrize("make, deep", [c[1:] for c in STEP_DETECTORS],
                         ids=[c[0] for c in STEP_DETECTORS])
@pytest.mark.parametrize("model, stream, hot", [c[1:] for c in STEP_STREAMS],
                         ids=[c[0] for c in STEP_STREAMS])
def test_step_is_advance_then_the_two_pass_reduction(make, deep, model, stream, hot):
    # bit for bit through warm-up, the first eviction, table doublings, the
    # dead-lag cut and the overflow guard's hot path
    det, ref = make(model, 12.0), make(model, 12.0)
    lam = ref._lam
    for n, x in enumerate(stream(), 1):
        lam, want = _two_pass_step(ref, lam, n, x)
        out = det.step(x)
        assert (_bits(out.statistic), out.k_star, out.theta_hat, out.alarm) == (
            _bits(want[0]), *want[1:])
        assert out.time == n and det._lam.tobytes() == lam.tobytes()
    assert det._hot == (hot and deep)


class InfiniteGem(GemModel):
    """Its scalar hook confirms t(x) = +inf, a true infinity, for x >= 1e300."""

    def sufficient_stat(self, x):
        return math.inf if x >= 1e300 else super().sufficient_stat(x)


def test_infinite_statistic_steps_in_the_guarded_scope():
    # at m = 10 no finite |s| can overflow the bank, so its bound on |s| is +inf;
    # s = +inf still takes the guarded path, where 0 * inf at lag 0 warns nothing
    det = WlCusum(InfiniteGem(0.1, 1e4, 0.4), 1e9, 10)
    assert det._s_safe == math.inf
    for _ in range(5):
        det.step(1.0)
    with pytest.raises(FloatingPointError, match="bank at step 6$"):
        det.step(1e300)
    assert det._hot


def test_ordinary_data_stays_below_the_overflow_bound():
    det = FullCusum(DecayModel(2.0, 4.0, 0.2), 1e9)  # grows its tables five times
    for x in DecayModel(2.0, 4.0, 0.2).sample_segment(np.random.default_rng(7), 500, 1, 2000):
        det.step(x)
    assert not det._hot and det._s_safe > 1e290


def test_the_overflow_bound_counts_what_the_bank_holds():
    # each s just below the bound of an empty bank with the current cap: the entries of a
    # full-history bank keep growing through its table doublings, and it must step hot
    # before any of them overflows (about step 4,030 if the bound left them out)
    det = FullCusum(ShiftModel(1.0), math.inf)
    for n in range(1, 4097):
        det.step(0.999 * detectors._ROOM / max(64, 1 << (n - 1).bit_length()))
    assert det._hot and np.isfinite(det._lam).all()


def test_full_cusum_on_gem_is_window_limited_at_the_dead_lag():
    xs = GEM.sample_segment(np.random.default_rng(11), math.inf, 1, 3000)
    full = FullCusum(GEM, 5.0)
    wl = WlCusum(GEM, 5.0, GEM_DEAD_LAG - 1)
    for x in xs:
        a, b = full.step(x), wl.step(x)
        assert _bits(a.statistic) == _bits(b.statistic)
        assert a.k_star == b.k_star
    assert len(full.hypotheses()) <= GEM_DEAD_LAG
    assert full.window is None


def test_glr_bank_is_cut_only_where_every_column_is_dead():
    # theta = 0.1 keeps live terms far past 888, so no lag of the window is dead
    # in both columns; theta = 0.5 dies before theta = 0.4, so 888 is the cut
    xs = GEM.sample_segment(np.random.default_rng(13), math.inf, 1, 1100)
    mixed = WlGlr(GEM, 1e9, 1000, np.array([0.1, 0.4]))
    dead = WlGlr(GEM, 1e9, 1000, np.array([0.4, 0.5]))
    for x in xs:
        mixed.step(x)
        dead.step(x)
    assert len(mixed._lam) == 1001
    assert len(dead._lam) == GEM_DEAD_LAG


# GEM thetas whose first dead lag is a power of two: a full-history bank finds
# it when its tables double from that very cap, with the bank already full
DEAD_AT_OLD_CAP = [(0.694, 512), (1.387, 256)]


@pytest.mark.parametrize("theta, dead_lag", DEAD_AT_OLD_CAP)
def test_full_history_banks_stop_at_a_dead_lag_equal_to_the_old_cap(theta, dead_lag):
    model = GemModel(0.1, 1e4, theta)
    xs = model.sample_segment(np.random.default_rng(23), math.inf, 1, dead_lag + 100)
    full, sr = FullCusum(model, 5.0), SrStatistic(model)
    wl = WlCusum(model, 5.0, dead_lag - 1)
    for x in xs:
        a, b = full.step(x), wl.step(x)
        sr.step(x)
        assert _bits(a.statistic) == _bits(b.statistic)
        assert a.k_star == b.k_star
    assert len(full._lam) == len(sr._lam) == dead_lag


@pytest.mark.parametrize("theta, dead_lag", DEAD_AT_OLD_CAP)
def test_lockstep_full_cusum_stops_at_a_dead_lag_equal_to_the_old_cap(theta, dead_lag):
    # the change comes after the dead lag, so every trial steps through the cut
    def plan(detector, window):
        return TrialPlan(model=GemModel(0.1, 1e4, theta), detector=detector, threshold=8.0,
                         window=window, nu=dead_lag + 50, num_trials=6, seed=3,
                         max_steps=dead_lag + 150)

    times, censored = run_trials(plan("full-cusum", None))
    wl_times, wl_censored = run_trials(plan("wl-cusum", dead_lag - 1))
    assert times.tolist() == wl_times.tolist()
    assert censored.tolist() == wl_censored.tolist()


@pytest.mark.parametrize("model", [DecayModel(2.0, 4.0, 0.2), COUNTY], ids=["decay", "betawave"])
@pytest.mark.parametrize("make", [lambda m: FullCusum(m, 1e9), SrStatistic],
                         ids=["FullCusum", "SrStatistic"])
def test_models_without_dead_lags_keep_every_hypothesis(model, make):
    det = make(model)
    for x in model.sample_segment(np.random.default_rng(17), math.inf, 1, 1100):
        det.step(x)
    assert len(det._lam) == 1100


EDGE_ARRAYS = [
    [0.0], [-0.0], [0.0, -0.0], [-0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 1.0, 2.0, -3.0],
    [math.inf], [-math.inf], [-math.inf, -math.inf], [math.inf, math.inf], [math.inf, 1.0],
    [math.inf, -math.inf], [-math.inf, 3.0], [math.nan], [math.nan, 1.0], [math.inf, math.nan],
    [1e308, 1e308], [-1e308, 0.0], [710.0, 709.0], [-745.0, 0.0], [5e-324, 0.0],
]


@pytest.mark.parametrize("a", EDGE_ARRAYS, ids=[repr(a) for a in EDGE_ARRAYS])
def test_logsumexp_matches_scipy_on_edges(a):
    with np.errstate(all="ignore"):
        assert _bits(detectors.logsumexp(np.array(a))) == _bits(scipy_logsumexp(np.array(a)))


def test_logsumexp_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(19)
    for size in [*range(1, 40), 127, 128, 129, 300, 1000, 3001]:
        for scale in (1e-3, 1.0, 50.0, 1e3):
            a = rng.normal(0.0, scale, size)
            if size > 3:
                a[rng.integers(size, size=2)] = a.max()  # ties at the max
            for arr in (a, a.reshape(-1, 1), a.reshape(-1, 1)[::-1]):
                assert _bits(detectors.logsumexp(arr)) == _bits(scipy_logsumexp(arr))
