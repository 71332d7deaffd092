"""Acceptance gate: end-to-end checks, one printed verdict line each.

Each test prints `[A#] PASS ...` or `[A#] FAIL ...` with the measured
numbers (visible under plain pytest runs), then asserts. Tolerances are
fixed here on purpose; loosening them is a library regression, not a test
maintenance task.
"""

import math

import numpy as np
import pytest

from wlcusum.calibration import cusum_threshold, glr_threshold, window_size
from wlcusum.detectors import (
    FullCusum,
    SrStatistic,
    WlCusum,
    run_until_alarm,
    theta_grid,
)
from wlcusum.growth import GrowthCurve
from wlcusum.models import BetaWaveModel, DecayModel, GemModel
from wlcusum.montecarlo import TrialPlan, estimate_add, estimate_mtfa, geometric_qq, run_trials

GEM = GemModel(0.1, 1e4, 0.4)
COUNTY_THETA = (0.464, 3.894, 0.445)
COUNTY_BOX = ((0.1, 5.0), (1.0, 20.0), (0.1, 5.0))


def _report(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


def _gem_delay(alpha, window, *, trials=2000, seed=404):
    plan = TrialPlan(
        model=GEM, detector="wl-cusum", threshold=cusum_threshold(alpha),
        window=window, nu=1, num_trials=trials, seed=seed,
    )
    return estimate_add(plan)


def test_a1_false_alarm_bound(capsys):
    plan = TrialPlan(
        model=GEM, detector="wl-cusum", threshold=math.log(100), window=25,
        num_trials=2000, seed=101,
    )
    with pytest.warns(RuntimeWarning, match="20 of 2000 false-alarm trials hit the step cap"):
        est = estimate_mtfa(plan)
    floor = 100.0 - 3.0 * est.stderr
    ok = est.mean >= floor
    _report(capsys, "A1", ok,
            f"MTFA {est.mean:.1f} (stderr {est.stderr:.1f}) >= bound {floor:.1f}")


def test_a2_gem_delay_law(capsys):
    alphas = (1e-2, 1e-3, 1e-4)
    delays = [_gem_delay(a, 25) for a in alphas]
    theory = [math.log(2e6 * abs(math.log(a))) / 0.8 for a in alphas]
    ratios = [d.mean / t for d, t in zip(delays, theory)]
    in_band = all(0.6 <= r <= 1.8 for r in ratios)
    monotone = delays[0].mean <= delays[1].mean <= delays[2].mean
    wide = _gem_delay(1e-3, 100)
    gap = abs(delays[1].mean - wide.mean)
    slack = 2.0 * math.hypot(delays[1].stderr, wide.stderr)
    windows_agree = gap <= slack
    ok = in_band and monotone and windows_agree
    _report(capsys, "A2", ok,
            f"delay/theory ratios {[f'{r:.2f}' for r in ratios]} in [0.6, 1.8]; "
            f"monotone {monotone}; m=25 vs m=100 gap {gap:.2f} <= {slack:.2f}")


def test_a3_glr_close_to_oracle(capsys):
    grid = theta_grid((0.0, 0.5), 50)
    glr_plan = TrialPlan(
        model=GEM, detector="wl-glr", threshold=glr_threshold(1e-3, 0.5, 1, 5.5),
        window=25, grid=grid, nu=1, num_trials=2000, seed=303,
    )
    glr = estimate_add(glr_plan)
    oracle = _gem_delay(1e-3, 25, seed=303)
    slack = 2.0 * math.hypot(glr.stderr, oracle.stderr)
    ordered = glr.mean >= oracle.mean - slack
    within = glr.mean <= 1.3 * oracle.mean
    ok = ordered and within
    _report(capsys, "A3", ok,
            f"GLR delay {glr.mean:.2f} vs oracle {oracle.mean:.2f}: "
            f"adaptation cost in [0, 30%] (slack {slack:.2f})")


def test_a4_decay_superlinear_delay(capsys):
    model = DecayModel(2.0, 4.0, 0.2)
    curve = GrowthCurve(model)
    alphas = (1e-1, 1e-2, 1e-3)
    means = []
    for a in alphas:
        plan = TrialPlan(
            model=model, detector="wl-cusum", threshold=cusum_threshold(a),
            window=window_size(curve, a), nu=1, num_trials=2000, seed=505,
        )
        means.append(estimate_add(plan).mean)
    slope = np.polyfit(np.log([abs(math.log(a)) for a in alphas]), np.log(means), 1)[0]
    ok = 1.2 <= slope <= 2.2
    _report(capsys, "A4", ok,
            f"log-log slope {slope:.2f} in [1.2, 2.2] (delays {[f'{m:.1f}' for m in means]})")


def test_a5_geometric_false_alarm_times(capsys):
    plan = TrialPlan(
        model=GEM, detector="wl-cusum", threshold=math.log(100), window=25,
        num_trials=1000, seed=707, max_steps=20000,
    )
    times, censored = run_trials(plan)
    report = geometric_qq(times[~censored])
    ok = report.correlation >= 0.98
    _report(capsys, "A5", ok,
            f"geometric QQ correlation {report.correlation:.4f} >= 0.98 "
            f"(p_hat {report.p_hat:.2e}, {report.num_samples} alarms)")


def test_a6_martingale_mean(capsys):
    model = GemModel(0.1, 1e4, 0.1)
    trials, horizon = 5000, 50
    at10 = np.empty(trials)
    at50 = np.empty(trials)
    for i in range(trials):
        rng = np.random.default_rng([606, i])
        sr = SrStatistic(model)
        xs = model.sample_pre(rng, horizon)
        for n, x in enumerate(xs, start=1):
            out = sr.step(float(x))
            if n == 10:
                at10[i] = out.statistic
        at50[i] = out.statistic
    checks = []
    for n, vals in ((10, at10), (50, at50)):
        err = abs(vals.mean() - n)
        se = vals.std(ddof=1) / math.sqrt(trials)
        checks.append((n, vals.mean(), err, 3 * se, err <= 3 * se))
    ok = all(c[-1] for c in checks)
    detail = "; ".join(f"mean R_{n} = {m:.2f} (|err| {e:.2f} <= {s:.2f})"
                       for n, m, e, s, _ in checks)
    _report(capsys, "A6", ok, detail)


def test_a7_pathwise_ordering(capsys):
    base = dict(model=GEM, threshold=3.0, num_trials=1000, seed=808, max_steps=5000)
    full_times, _ = run_trials(TrialPlan(detector="full-cusum", window=None, **base))
    wl_times, _ = run_trials(TrialPlan(detector="wl-cusum", window=25, **base))
    violations = int((full_times > wl_times).sum())

    rng = np.random.default_rng(809)
    xs = GEM.sample_pre(rng, 200)
    full = FullCusum(GEM, threshold=1e9)
    wide = WlCusum(GEM, threshold=1e9, window=200)
    max_gap = 0.0
    for x in xs:
        a, b = full.step(float(x)).statistic, wide.step(float(x)).statistic
        max_gap = max(max_gap, abs(a - b) / max(1.0, abs(b)))
    ok = violations == 0 and max_gap <= 1e-9
    _report(capsys, "A7", ok,
            f"{violations} ordering violations in 1000 paths; "
            f"m >= horizon max relative gap {max_gap:.1e} <= 1e-9")


def test_a8_example_path_exact(capsys):
    det = WlCusum(GemModel(1.0, 1.0, 1.0), threshold=1e9, window=5)
    ks = [det.step(x).k_star for x in (1.0, 0.0, 10.0)]
    ok = ks[1] == 2 and ks[2] == 1
    _report(capsys, "A8", ok, f"argmax sequence {ks}, expected k*=2 at n=2 and k*=1 at n=3")


def test_a9_streaming_equals_direct(capsys):
    def direct(model, xs, n, window):
        lo = max(1, n - window)
        vals = [
            sum(model.log_likelihood_ratio(xs[i - 1], i, k) for i in range(k, n + 1))
            for k in range(lo, n + 1)
        ]
        return max(0.0, max(vals))

    cases = [
        (GEM, 70),
        (DecayModel(2.0, 4.0, 0.2), 70),
        (BetaWaveModel(20.6, 2.94e5, COUNTY_THETA), 60),
    ]
    window, length = 8, 25
    worst = 0.0
    paths = 0
    for model, num in cases:
        for p in range(num):
            rng = np.random.default_rng([909, paths])
            xs = model.sample_segment(rng, nu=(p % 12) + 1, start=1, length=length)
            det = WlCusum(model, threshold=1e9, window=window)
            for n, x in enumerate(xs, start=1):
                got = det.step(float(x)).statistic
                want = direct(model, xs, n, window)
                # denominator floor of 10 folds a 1e-8 absolute allowance
                # (Beta log-gamma round-off) into the 1e-9 relative budget
                worst = max(worst, abs(got - want) / max(10.0, abs(want)))
            paths += 1
    ok = paths == 200 and worst <= 1e-9
    _report(capsys, "A9", ok,
            f"{paths} paths across 3 models, worst relative gap {worst:.1e} <= 1e-9")


def test_a10_epidemic_pipeline(capsys):
    model = BetaWaveModel(20.6, 2.94e5, COUNTY_THETA)
    grid = theta_grid(COUNTY_BOX, (10, 10, 10))
    b = glr_threshold(1e-3, 4.9 * 19.0 * 4.9, 3, 1.0)
    common = dict(model=model, detector="wl-glr", threshold=b, window=20, grid=grid)

    onset = TrialPlan(nu=50, num_trials=500, seed=111, max_steps=80, **common)
    times, censored = run_trials(onset)
    caught = float(((times >= 50) & (times <= 79) & ~censored).mean())

    quiet = TrialPlan(num_trials=500, seed=222, max_steps=200, **common)
    _, quiet_censored = run_trials(quiet)
    false_rate = float((~quiet_censored).mean())

    ok = caught >= 0.90 and false_rate <= 0.6
    _report(capsys, "A10", ok,
            f"detection within 30 days in {caught:.1%} of runs (need >= 90%); "
            f"200-day false-alarm rate {false_rate:.3f} <= 0.6")


def test_a12_glr_false_alarm_bound(capsys):
    # the WL-GLR threshold from alpha, the box volume, its dimension and epsilon
    # promises a mean time to false alarm of at least 1/alpha
    alpha = 0.1
    plan = TrialPlan(
        model=GEM, detector="wl-glr", threshold=glr_threshold(alpha, 0.5, 1, 5.5),
        window=window_size(GrowthCurve(GEM), alpha), grid=theta_grid((0.0, 0.5), 50),
        num_trials=50, seed=12, max_steps=2000,
    )
    with pytest.warns(RuntimeWarning, match="45 of 50 false-alarm trials hit the step cap"):
        est = estimate_mtfa(plan)  # censored trials count at the cap: a lower bound
    floor = 1.0 / alpha + 3.0 * est.stderr
    ok = est.mean >= floor
    _report(capsys, "A12", ok,
            f"MTFA {est.mean:.0f} (stderr {est.stderr:.0f}) >= 1/alpha + 3 stderr {floor:.0f}; "
            f"MTFA * alpha {est.mean * alpha:.0f} (b {plan.threshold:.2f}, m {plan.window})")
