"""Monte-Carlo harness: determinism, censoring, OC sweeps, geometric QQ."""

import contextlib
import csv
import math
import warnings
from dataclasses import dataclass, field, replace
from unittest import mock

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from conftest import ShiftModel

from wlcusum import detectors, montecarlo
from wlcusum.cli import _oc_table, _qq_table, _write_csv
from wlcusum.calibration import GlrThresholdInputs
from wlcusum.detectors import WlGlr, run_until_alarm, theta_grid
from wlcusum.models import BetaWaveModel, DecayModel, GemModel, SupportError
from wlcusum.montecarlo import (
    _STREAM_BLOCK,
    DelayEstimate,
    TrialPlan,
    estimate_add,
    estimate_mtfa,
    geometric_qq,
    operating_characteristic,
    run_trials,
)

GEM = GemModel(0.1, 1e4, 0.4)
COUNTY = BetaWaveModel(20.6, 2.94e5, (0.464, 3.894, 0.445))
GLR_GEM = dict(detector="wl-glr", grid=np.linspace(0.1, 0.5, 5))


def _stream(model, rng, nu, max_steps, block=_STREAM_BLOCK):
    """One trial's observations, drawn block by block as they are needed.

    The reference for ``montecarlo._lockstep``, which draws the same blocks
    for every live trial at once.
    """
    produced = 0
    while produced < max_steps:
        k = min(block, max_steps - produced)
        seg = model.sample_segment(rng, nu, produced + 1, k)
        yield from seg
        produced += k


def _plan(**kw):
    # post-change runs by default: stopping times are quick and genuinely random
    base = dict(
        model=GEM, detector="wl-cusum", threshold=math.log(20), window=10,
        nu=1, num_trials=40, seed=11,
    )
    base.update(kw)
    return TrialPlan(**base)


class TestRunTrials:
    def test_bit_for_bit_determinism(self):
        t1, c1 = run_trials(_plan())
        t2, c2 = run_trials(_plan())
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(c1, c2)

    def test_worker_count_does_not_change_results(self):
        serial = run_trials(_plan(num_trials=24, workers=1))
        parallel = run_trials(_plan(num_trials=24, workers=3))
        np.testing.assert_array_equal(serial[0], parallel[0])
        np.testing.assert_array_equal(serial[1], parallel[1])

    def test_pool_has_one_worker_per_chunk(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        serial = run_trials(_plan(num_trials=3))
        parallel = run_trials(_plan(num_trials=3, workers=4))  # chunks of 1, 1 and 1
        one_chunk = run_trials(_plan(num_trials=1, workers=4))
        assert sizes == [3]
        assert [a.tobytes() for a in parallel] == [a.tobytes() for a in serial]
        assert [a.tobytes() for a in one_chunk] == [a[:1].tobytes() for a in serial]

    def test_trial_streams_are_independent_of_batch_size(self):
        # per-trial seeding: a longer run must extend, not reshuffle
        small = run_trials(_plan(num_trials=25))
        large = run_trials(_plan(num_trials=100))
        np.testing.assert_array_equal(small[0], large[0][:25])

    def test_seed_changes_results(self):
        t1, _ = run_trials(_plan(seed=11))
        t2, _ = run_trials(_plan(seed=12))
        assert not np.array_equal(t1, t2)

    def test_nonpositive_threshold_alarms_at_one(self):
        times, censored = run_trials(_plan(threshold=-1.0, num_trials=10))
        np.testing.assert_array_equal(times, np.ones(10, dtype=times.dtype))
        assert not censored.any()

    def test_window_none_refused_at_run_time(self):
        plan = _plan(window=None)
        with pytest.raises(ValueError, match="placeholder"):
            run_trials(plan)

    def test_full_cusum_refuses_a_window(self):
        # a lockstep run would read only the newest window + 1 lags of its full-history bank
        with pytest.raises(ValueError, match="full-cusum reads every hypothesis"):
            _plan(detector="full-cusum", window=3)

    def test_max_steps_validated_at_resolution(self):
        plan = _plan(max_steps=0)
        with pytest.raises(ValueError):
            run_trials(plan)

    def test_explicit_max_steps_honoured(self):
        times, censored = run_trials(_plan(threshold=1e9, max_steps=17, num_trials=6))
        assert np.all(times == 17)
        assert censored.all()

    def test_one_detector_per_chunk(self, monkeypatch):
        builds = []

        class CountingWlGlr(WlGlr):
            def __init__(self, *args):
                builds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(montecarlo, "WlGlr", CountingWlGlr)
        plan = _plan(detector="wl-glr", grid=np.linspace(0.1, 0.5, 5), num_trials=30)
        times, censored = run_trials(plan)
        assert len(builds) == 1
        # the reused, reset detector stops where a fresh one per trial does
        want = _streamed(plan)
        np.testing.assert_array_equal(times, want[0])
        np.testing.assert_array_equal(censored, want[1])


class TestTrialSeeding:
    """A batch seeds its trials in one pass, each as np.random.default_rng([seed, i]) does."""

    # one to five entropy words with i: past four, SeedSequence mixes the extra words in
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 1, 2**130 + 9,
                                      np.int64(7)])
    @pytest.mark.parametrize("start, stop",
                             [(0, 40), (1000, 1064), (7, 10), (2**32 - 8, 2**32 + 8)],
                             ids=["first-chunk", "later-chunk", "three", "two-word-index"])
    def test_matches_default_rng(self, seed, start, stop):
        rngs = montecarlo._trial_rngs(seed, start, stop)
        assert len(rngs) == stop - start
        for i, rng in zip(range(start, stop), rngs):
            want = np.random.default_rng([seed, i])
            assert rng.bit_generator.state == want.bit_generator.state
            np.testing.assert_array_equal(rng.random(8), want.random(8))


def _alone(plan, i, max_steps):
    """Trial i of plan run alone: a fresh detector fed by _stream, which reads no walk constant."""
    stream = _stream(plan.model, np.random.default_rng([plan.seed, i]), plan.nu, max_steps)
    record = run_until_alarm(montecarlo._build_detector(plan), stream, max_steps)
    return record.time, record.censored


def _streamed(plan):
    """run_trials by the streaming reference, one trial alone at a time."""
    max_steps = plan.resolved_max_steps()
    times, censored = zip(*(_alone(plan, i, max_steps) for i in range(plan.num_trials)))
    return np.array(times, dtype=np.int64), np.array(censored)


@contextlib.contextmanager
def _scans():
    """Records each _LagBank._scan: (steps, live trials, whether every statistic is finite)."""
    scans, scan = [], detectors._LagBank._scan

    def counted(bank, lam, stats, narrow):
        scans.append((*stats.shape, bool(np.isfinite(stats).all())))
        return scan(bank, lam, stats, narrow)

    with mock.patch.object(detectors._LagBank, "_scan", counted):
        yield scans


class _Spikes:
    """Draws carry fixed values at given times (1-based), in every trial."""

    def sample_segment(self, rng, nu, start, length):
        out = super().sample_segment(rng, nu, start, length)
        for n, x in self.spikes:
            if start <= n < start + length:
                out[n - start] = x
        return out


@dataclass(frozen=True)
class SpikedGem(_Spikes, GemModel):
    spikes: tuple = ()


@dataclass(frozen=True)
class SpikedWave(_Spikes, BetaWaveModel):
    spikes: tuple = ()


@dataclass(frozen=True)
class CountedGem(GemModel):
    """Records the (start, length) of every block drawn, over all trials in draw order."""

    blocks: list = field(default_factory=list, compare=False)

    def sample_segment(self, rng, nu, start, length):
        self.blocks.append((start, length))
        return super().sample_segment(rng, nu, start, length)


@dataclass(frozen=True)
class SpikedWhenPositive(GemModel):
    """Where a trial's draw at step 40 is positive, steps 40 and 41 draw at40 and at41."""

    at40: float = 0.0
    at41: float = 0.0

    def sample_segment(self, rng, nu, start, length):
        out = super().sample_segment(rng, nu, start, length)
        if start <= 40 and 41 < start + length and out[40 - start] > 0:
            out[40 - start], out[41 - start] = self.at40, self.at41
        return out


@dataclass(frozen=True)
class SpikedWhenFirstPositive(GemModel):
    """Where a trial's first draw is positive, it draws 1e7 at step 2 and -1e308,
    1e308 at steps 40 and 41."""

    def sample_segment(self, rng, nu, start, length):
        out = super().sample_segment(rng, nu, start, length)
        if start == 1 and length >= 41 and out[0] > 0:
            out[1], out[39], out[40] = 1e7, -1e308, 1e308
        return out


# The walk's constants, over values that force one-trial batches, steps, long scans, short blocks
KNOBS = dict(_SCAN_STEPS=(1, 2, 7, 256), _SCAN_THIN=(0, 3, 16, 10**6), _BATCH_TRIALS=(1, 3, 1024),
             _BATCH_ENTRIES=(1, 2**9, 2**15), _SCAN_ENTRIES=(0, 2**12, 2**21),
             _STREAM_BLOCK=(7, 64, 512))
DECAY = DecayModel(2.0, 4.0, 0.2)
WAVE = BetaWaveModel(5.0, 20.0, (0.5, 10.0, 4.0))
WAVE_GRID = theta_grid(((0.0, 1.0), (5.0, 15.0), (1.0, 5.0)), (2, 2, 2))


@st.composite
def _walks(draw):
    """The plans of 1-4 operating points over one model, detector, change point and seed."""
    # planted in every trial from a drawn step on: an overflow, a NaN bank, an off-support draw
    spikes = st.sampled_from([(1e308,), (-1e308, 1e308), (math.nan,)])
    spiked = st.builds(lambda theta, xs, n: SpikedGem(0.1, 1e4, theta, tuple(enumerate(xs, n))),
                       st.sampled_from([0.4, 1.0]), spikes, st.integers(1, 60))
    model = draw(st.one_of(st.sampled_from([GEM, DECAY, WAVE]), spiked))
    detector = draw(st.sampled_from(["wl-cusum", "wl-glr", "full-cusum"]))
    grid = WAVE_GRID if model is WAVE else np.linspace(0.1, 0.4, 3)
    nu = draw(st.sampled_from([math.inf, 1, 7]))
    base = _plan(model=model, detector=detector, grid=grid if detector == "wl-glr" else None,
                 nu=nu, num_trials=draw(st.integers(1, 40)),
                 seed=draw(st.integers(0, 2**16)), window=None)
    point = st.fixed_dictionaries(dict(
        threshold=st.sampled_from([-1.0, 0.0, 2.0, 4.0, 6.0, 9.0, math.inf]),
        window=st.none() if detector == "full-cusum" else st.integers(0, 40),
        max_steps=st.integers(1 if math.isinf(nu) else nu, 150)))  # a delay cap reaches nu
    return [replace(base, **p) for p in draw(st.lists(point, min_size=1, max_size=4))]


def _hand_picked(test):
    """The hand-picked walks, as examples: (plans, the constants they set)."""
    fa = dict(nu=math.inf, window=23, threshold=math.log(100))
    glr = dict(fa, threshold=math.log(300), num_trials=12, **GLR_GEM)
    full = dict(detector="full-cusum", window=None)
    def scan(steps):  # B bounds every scan: no batch is thin
        return dict(_SCAN_STEPS=steps, _SCAN_THIN=0)

    walks = [
        # false-alarm runs: long, random lengths, several 512-step blocks; the full-history
        # bank outgrows its initial 64-entry tables
        ([_plan(**fa, num_trials=30)], {}),
        ([_plan(**fa | full, num_trials=12)], {}),
        ([_plan(**glr)], {}),
        # delay runs, with pre-change steps when nu > 1
        ([_plan(nu=1, threshold=math.log(1e3), window=25)], {}),
        ([_plan(nu=30, model=DECAY, threshold=4.0, window=12)], {}),
        ([_plan(nu=30, **full, threshold=math.log(1e3))], {}),
        ([_plan(nu=8, model=WAVE, detector="wl-glr", window=20, threshold=5.0, max_steps=300,
                grid=WAVE_GRID)], {}),
        # censoring at an explicit cap that cuts the second block short
        ([_plan(**fa | dict(threshold=8.0), max_steps=600, num_trials=15)], {}),
        ([_plan(**fa | full | dict(threshold=8.0), max_steps=600, num_trials=6)], {}),
        # a threshold <= 0 alarms on the first observation; the decay plan's first bank
        # is negative, and the statistic 0 still meets b
        ([_plan(**fa | dict(threshold=0.0), num_trials=5)], {}),
        ([_plan(nu=math.inf, model=DECAY, window=12, threshold=0.0, num_trials=1)], {}),
        ([_plan(**glr | dict(threshold=-1.0, num_trials=5))], {}),
        # chunks split across two workers
        ([_plan(**fa, num_trials=20, workers=2)], {}),
        ([_plan(**glr, workers=2)], {}),
        # sub-batches of 3 trials; the first grows the shared decay tables past 64 lags
        ([_plan(**fa, num_trials=20)], dict(_BATCH_TRIALS=3)),
        ([_plan(**glr)], dict(_BATCH_TRIALS=3)),
        ([_plan(**fa | full, model=DECAY, num_trials=12)], dict(_BATCH_TRIALS=3)),
        # three points, each with its own window or step cap
        ([_plan(**fa, num_trials=12, max_steps=300), _plan(**fa, num_trials=12, max_steps=30),
          _plan(nu=math.inf, window=5, threshold=math.log(50), num_trials=12, max_steps=45)],
         dict(_BATCH_TRIALS=3)),
        # scans of a bank's cap - 1, cap or cap + 1 steps, of 1 and of 512
        ([_plan(**fa, num_trials=12)], scan(24)),
        ([_plan(nu=30, window=23, threshold=math.log(1e3), num_trials=12)], scan(25)),
        ([_plan(nu=math.inf, model=DECAY, window=12, threshold=4.0, num_trials=12)], scan(12)),
        ([_plan(nu=30, model=DECAY, window=12, threshold=4.0, num_trials=12)], scan(1)),
        # the second block's 88 steps cut a sub-block short, and every trial is censored
        ([_plan(**fa | dict(threshold=8.0), max_steps=600, num_trials=12)], scan(512)),
        # a full-history bank joins the scan once its cap stops at GEM's dead lag 119
        ([_plan(**fa | full, model=GemModel(0.1, 1e4, 3.0), max_steps=600, num_trials=12)],
         scan(118)),
        # a full-history bank past its first cap of 64 lags: its oldest hypotheses, the
        # true ones here, decide the alarms after step 64
        ([_plan(**full, model=DECAY, threshold=9.0, num_trials=6, seed=0, max_steps=68)], {}),
        # a cap inside a scan: trial 5 alarms at step 18, past the first point's cap of 17
        ([_plan(**fa | dict(threshold=2.0), num_trials=12, seed=0, max_steps=cap)
          for cap in (17, 300)], {}),
        # a scan stops before the off-support draw at step 40, which one step refuses
        ([_plan(**fa | dict(threshold=math.inf), num_trials=3, max_steps=50,
                model=SpikedGem(0.1, 1e4, 0.4, ((40, math.nan),)))], {}),
        # every batch is thin: scans of 2B = 4 rows
        ([_plan(**fa, num_trials=3, max_steps=100)], dict(_SCAN_STEPS=2, _SCAN_THIN=10**6)),
        # b = inf: only the +inf entries of GEM's post-change overflow alarm, past step 900,
        # with no overflow warning
        *[([_plan(threshold=math.inf, num_trials=3, seed=5, max_steps=1000, **kw)], {})
          for kw in (dict(window=2000), full)],
        # at theta = 2 the draws near lag 340 overflow slope * s in a window-23 bank, so a
        # scan past the first 256 steps meets the overflow
        ([_plan(model=GemModel(0.1, 1e4, 2.0), threshold=math.inf, window=23, num_trials=3,
                seed=5, max_steps=355)], {}),
        # full-history banks step through their cut at a dead lag equal to the old cap
        *[([_plan(**full, model=GemModel(0.1, 1e4, theta), threshold=8.0, nu=dead + 50,
                  num_trials=6, seed=3, max_steps=dead + 150)], {})
          for theta, dead in ((0.694, 512), (1.387, 256))],
    ]
    for plans, knobs in walks:
        test = hypothesis.example(plans, knobs)(test)
    return test


@_hand_picked
@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(_walks(),
                  st.fixed_dictionaries({k: st.sampled_from(v) for k, v in KNOBS.items()}))
def test_walk_rows_are_plans_run_alone(plans, knobs):
    """Under any walk constants each row of a shared run is its plan run alone, the run
    refuses iff some (plan, trial) alone does, with one of their refusals, and a scan takes
    at most B = _SCAN_STEPS rows (2B below _SCAN_THIN live trials), all finite."""
    knobs = {k: getattr(montecarlo, k) for k in KNOBS} | knobs
    want, refusals = [], set()
    for plan in plans:
        max_steps, row = plan.resolved_max_steps(), []
        for i in range(plan.num_trials):
            try:
                row.append(_alone(plan, i, max_steps))
            except (SupportError, FloatingPointError) as err:  # a walk's NaN names its trial
                refusals.add((type(err), str(err).replace(" at step", f" of trial {i} at step")))
        want.append(row)
    with mock.patch.multiple(montecarlo, **knobs), _scans() as scans:
        try:
            times, censored = montecarlo._run(plans)
        except (SupportError, FloatingPointError) as err:
            assert (type(err), str(err)) in refusals
        else:
            assert not refusals
            assert [list(zip(*row)) for row in zip(times.tolist(), censored.tolist())] == want
    for rows, live, finite in scans:
        assert finite and rows <= knobs["_SCAN_STEPS"] * (2 if live < knobs["_SCAN_THIN"] else 1)


class TestLockstepMatchesStreaming:
    """Lockstep batches give the stopping times of one trial at a time, bit for bit."""

    def test_thin_batches_scan_to_the_block_end(self):
        # 40 trials start wide; once fewer than _SCAN_THIN are live, a scan runs on
        # up to 2 * _SCAN_STEPS steps, to the end of its 512-step block
        plan = _plan(nu=math.inf, window=23, threshold=math.log(200), num_trials=40)
        want = _streamed(plan)
        with _scans() as scans:
            times, censored = run_trials(plan)
        np.testing.assert_array_equal(times, want[0])
        np.testing.assert_array_equal(censored, want[1])
        steps, live, _ = np.array(scans).T
        thin = live < montecarlo._SCAN_THIN
        assert not thin[0] and thin[-1]
        assert steps[~thin].max() <= montecarlo._SCAN_STEPS < steps[thin].max()
        assert steps.max() <= 2 * montecarlo._SCAN_STEPS

    def test_a_cap_ends_the_scan(self):
        # the hand-picked walk "a cap inside a scan": the first point's cap of 17 ends the
        # first scan, so no row past it is computed; trial 5 alarms at step 18 for the second
        plans = [_plan(nu=math.inf, window=23, threshold=2.0, num_trials=12, seed=0,
                       max_steps=cap) for cap in (17, 300)]
        with _scans() as scans:
            times, censored = montecarlo._run(plans)
        assert scans[0][:2] == (17, 12)
        for plan, row, flags in zip(plans, times, censored):
            want = _streamed(plan)
            np.testing.assert_array_equal(row, want[0])
            np.testing.assert_array_equal(flags, want[1])
        assert times[1, 5] == 18 and censored[0, 5]

    def test_infinite_statistic_alarms(self):
        # 1e308 overflows the older hypotheses to +inf, which meets even b = inf
        model = SpikedGem(0.1, 1e4, 0.4, spikes=((40, 1e308),))
        plan = _plan(model=model, nu=math.inf, threshold=math.inf, window=1000, num_trials=3,
                     max_steps=2000)
        with np.errstate(over="ignore"):
            times, censored = run_trials(plan)
            want = _streamed(plan)
        np.testing.assert_array_equal(times, [40, 40, 40])
        np.testing.assert_array_equal(times, want[0])
        assert not censored.any()

    def test_nan_in_bank_raises(self):
        # -1e308 drives the older hypotheses to -inf and +1e308 next adds +inf to
        # them: NaN in the step that also gives the first +inf entries, so the
        # bank max is NaN, and the batch must raise rather than alarm or censor
        model = SpikedGem(0.1, 1e4, 0.4, spikes=((40, -1e308), (41, 1e308)))
        plan = _plan(model=model, nu=math.inf, threshold=math.inf, window=1000, num_trials=3,
                     max_steps=2000)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="trial 0 at step 41"):
                run_trials(plan)

    # at theta = 1 a spike of 1e308 overflows lags of about 12 and up, so the
    # window-23 bank that a scan advances holds the +inf and NaN entries
    def test_infinite_statistic_alarms_in_a_scan(self):
        model = SpikedGem(0.1, 1e4, 1.0, spikes=((40, 1e308),))
        plan = _plan(model=model, nu=math.inf, threshold=math.inf, window=23, num_trials=3,
                     max_steps=2000)
        with np.errstate(over="ignore"):
            times, censored = run_trials(plan)
            want = _streamed(plan)
        np.testing.assert_array_equal(times, [40, 40, 40])
        np.testing.assert_array_equal(times, want[0])
        assert not censored.any()

    def test_nan_in_bank_raises_in_a_scan(self):
        model = SpikedGem(0.1, 1e4, 1.0, spikes=((40, -1e308), (41, 1e308)))
        plan = _plan(model=model, nu=math.inf, threshold=math.inf, window=23, num_trials=3,
                     max_steps=2000)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="trial 0 at step 41"):
                run_trials(plan)
            with pytest.raises(FloatingPointError, match="at step 41"):
                _streamed(plan)

    def test_nan_after_an_alarm_in_the_same_sub_block(self):
        # a trial whose step-40 draw is positive meets 1e308 there (+inf, an
        # alarm at b = inf) and -1e308 next (NaN); it is gone by then, so only
        # the trials that step on count, and they never alarm
        model = SpikedWhenPositive(0.1, 1e4, 1.0, at40=1e308, at41=-1e308)
        plan = _plan(model=model, nu=math.inf, threshold=math.inf, window=23, num_trials=8,
                     max_steps=300)
        times, censored = run_trials(plan)
        want = _streamed(plan)
        np.testing.assert_array_equal(times, want[0])
        np.testing.assert_array_equal(censored, want[1])
        assert 0 < (times == 40).sum() < len(times)

    def test_support_error_after_an_alarm_in_the_same_sub_block(self):
        # a trial whose step-40 draw is positive alarms there and meets +inf at
        # step 41, inside the first sub-block; only a trial that steps on raises
        model = SpikedWhenPositive(0.1, 1e4, 0.4, at40=1e6, at41=math.inf)
        plan = _plan(model=model, nu=math.inf, threshold=math.log(100), window=23,
                     num_trials=8, max_steps=300)
        times, censored = run_trials(plan)
        want = _streamed(plan)
        np.testing.assert_array_equal(times, want[0])
        np.testing.assert_array_equal(censored, want[1])
        assert 0 < (times == 40).sum() < len(times)
        with pytest.raises(SupportError):
            run_trials(replace(plan, threshold=1e9))

    @pytest.mark.parametrize("model", [
        SpikedGem(0.1, 1e4, 0.4, spikes=((30, math.inf),)),
        SpikedWave(COUNTY.a0, COUNTY.b0, COUNTY.theta, spikes=((30, 1.0),)),
    ], ids=["gem", "betawave"])
    def test_support_error_only_for_consumed_draws(self, model):
        # every trial alarms before step 30, in the first block of 32 steps that
        # holds the bad draw: it is drawn but never reaches a bank
        early = _plan(model=model, nu=1, threshold=0.5, window=5, num_trials=4)
        times, _ = run_trials(early)
        assert times.max() < 30
        np.testing.assert_array_equal(times, _streamed(early)[0])
        late = _plan(model=model, nu=math.inf, threshold=1e9, window=5, num_trials=4,
                     max_steps=400)
        with pytest.raises(SupportError):
            run_trials(late)


class TestOverflowingPostChangeDraws:
    """At theta = 0.4 every draw from lag 1,775 on is +inf; the block of steps
    1,505-2,016 (after blocks of 32, 64, ..., 512, then 512) holds them whether
    or not a trial gets that far."""

    PLAN = TrialPlan(GEM, "wl-cusum", threshold=1e300, window=23, nu=1, num_trials=4, seed=3,
                     max_steps=2500)

    def test_unconsumed_draws_raise_no_warning(self):
        times, censored = run_trials(self.PLAN)
        np.testing.assert_array_equal(times, [1738] * 4)
        assert not censored.any()

    def test_a_consumed_draw_raises_support_error(self):
        with pytest.raises(SupportError):
            run_trials(replace(self.PLAN, threshold=math.inf))


@dataclass(frozen=True)
class InfiniteAtSpike(SpikedGem):
    """Its scalar hook confirms t(x) = +inf, a true infinity, for x >= 1e300."""

    def sufficient_stat(self, x):
        return math.inf if x >= 1e300 else super().sufficient_stat(x)

    def sufficient_stats(self, xs):
        return np.where(xs >= 1e300, math.inf, super().sufficient_stats(xs))


@dataclass(frozen=True)
class WarningDraws(GemModel):
    """Each block it draws overflows a numpy exp of its own, which warns."""

    def sample_segment(self, rng, nu, start, length):
        np.exp(np.array([1e3]))
        return super().sample_segment(rng, nu, start, length)


class TestErrorScope:
    """A walk advances under one numpy error scope; the model runs under the caller's."""

    SPIKED = InfiniteAtSpike(0.1, 1e4, 0.4, spikes=((5, 1e300),))

    @pytest.mark.parametrize("kw", [
        dict(window=23),  # scanned up to the spike, which one step takes
        dict(detector="wl-glr", grid=np.linspace(0.1, 0.5, 5), window=23),
    ], ids=["scan", "grid"])
    def test_infinite_statistic_raises_as_a_step_does(self, kw):
        # +inf meets GEM's lag-0 slope of 0: the new hypothesis is NaN at step 5 (at
        # m = 23 step's overflow bound on |s| is finite, so step meets +inf in its scope)
        plan = _plan(model=self.SPIKED, nu=math.inf, threshold=1e9, num_trials=3,
                     max_steps=50, **kw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="of trial 0 at step 5$"):
                run_trials(plan)
            with pytest.raises(FloatingPointError, match="bank at step 5$"):
                _streamed(plan)

    def test_model_warnings_still_show(self):
        with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
            run_trials(_plan(model=WarningDraws(0.1, 1e4, 0.4), num_trials=2))

    @pytest.mark.parametrize("error, model", [
        (SupportError, SpikedGem(0.1, 1e4, 0.4, spikes=((5, math.inf),))),
        (FloatingPointError, SPIKED),
    ], ids=["support-error", "nan"])
    def test_caller_settings_survive_a_failed_run(self, error, model):
        plan = _plan(model=model, nu=math.inf, threshold=1e9, num_trials=3, max_steps=50)
        with np.errstate(over="raise", invalid="raise"):
            before = np.geterr()
            with pytest.raises(error, match=None if error is SupportError else "trial 0"):
                run_trials(plan)
            assert np.geterr() == before


class TestDrawSizes:
    """A delay trial's first block is the least power of two of at least nu - 1 + 32
    steps, and each later one doubles up to 512; a false-alarm trial draws 512 at
    once. Every block stops at the step cap, and the stopping times are those of
    512-step blocks."""

    @staticmethod
    def _blocks(**kw):
        model = CountedGem(0.1, 1e4, 0.4)
        plan = _plan(model=model, num_trials=3, **kw)
        times, censored = run_trials(plan)
        blocks = list(model.blocks)
        want = _streamed(plan)
        np.testing.assert_array_equal(times, want[0])
        np.testing.assert_array_equal(censored, want[1])
        return times, blocks

    def test_delay_run_starts_at_32_and_doubles(self):
        # b = 1e300 is met near step 1,738: all three trials are censored at 1,200
        times, blocks = self._blocks(nu=1, threshold=1e300, window=23, max_steps=1200)
        assert times.tolist() == [1200] * 3
        sizes = [32, 64, 128, 256, 512, 1200 - 992]
        starts = np.cumsum([1] + sizes[:-1]).tolist()
        assert blocks == [block for block in zip(starts, sizes) for _ in range(3)]

    def test_first_block_covers_the_change_and_a_post_change_stretch(self):
        # 64 >= 30 - 1 + 32: every trial alarms after the change, within its first block
        times, blocks = self._blocks(nu=30, threshold=math.log(1e3), window=25)
        assert 30 <= times.min() and times.max() <= 64
        assert blocks == [(1, 64)] * 3

    def test_false_alarm_run_draws_512_first(self):
        times, blocks = self._blocks(nu=math.inf, threshold=math.log(100), window=23)
        assert blocks[:3] == [(1, 512)] * 3
        assert times.max() > 512 and (513, 512) in blocks


def test_an_overridden_sampler_keeps_the_per_row_drawer():
    model = CountedGem(0.1, 1e4, 0.4)
    model.block_drawer(1)([np.random.default_rng(i) for i in range(3)], 5, np.empty((3, 7)))
    assert model.blocks == [(5, 7)] * 3


class TestResolvedMaxSteps:
    def test_false_alarm_default_scales_with_threshold(self):
        plan = _plan(threshold=math.log(100), nu=math.inf)
        assert plan.resolved_max_steps() == 5000  # 50 * e^b

    def test_delay_default_uses_growth_inverse(self):
        plan = _plan(threshold=math.log(100), nu=4)
        # nu - 1 plus a hundred times the nominal detection horizon
        assert plan.resolved_max_steps() == 2025

    def test_nonpositive_threshold_floor(self):
        plan = _plan(threshold=-1.0, nu=4)
        assert plan.resolved_max_steps() == 53  # nu - 1 + floor of 50

    def test_infinite_threshold_takes_the_ceiling(self):
        # g^{-1}(+inf) = +inf, capped as the false-alarm default is at b = +inf
        plan = _plan(threshold=math.inf, nu=4)
        assert plan.resolved_max_steps() == 3 + montecarlo._MAX_DEFAULT_STEPS
        assert _plan(threshold=math.inf, nu=math.inf).resolved_max_steps() == (
            montecarlo._MAX_DEFAULT_STEPS)


class TestPlanValidation:
    def test_detector_name(self):
        with pytest.raises(ValueError):
            _plan(detector="page")

    def test_num_trials(self):
        with pytest.raises(ValueError):
            _plan(num_trials=0)

    def test_nu(self):
        with pytest.raises(ValueError):
            _plan(nu=0)

    def test_glr_needs_grid(self):
        with pytest.raises(ValueError):
            _plan(detector="wl-glr")

    @pytest.mark.parametrize("kw, message", [
        (dict(seed=-3), "seed must be an integer >= 0, got -3"),
        (dict(seed=2.0), "seed must be an integer >= 0, got 2.0"),
        (dict(num_trials=2.7), "num_trials must be a whole number >= 1, got 2.7"),
        (dict(workers=1.5), "workers must be a whole number >= 1, got 1.5"),
        (dict(max_steps=2.5), "max_steps must be a whole number >= 1, got 2.5"),
        (dict(window=2.5), "window must be a whole number >= 0, got 2.5"),
        (dict(window=math.nan), "window must be a whole number >= 0, got nan"),
        (dict(window=-1), "window must be a whole number >= 0, got -1"),
        (dict(nu=1000, max_steps=10), "max_steps=10 ends before the change at nu=1000"),
    ], ids=["negative-seed", "float-seed", "num-trials", "workers", "max-steps",
            "fraction-window", "nan-window", "negative-window", "cap-before-change"])
    def test_names_a_bad_seed_or_count(self, kw, message):
        with pytest.raises(ValueError, match=message):
            run_trials(_plan(**kw))
        # a count is a whole number, as nu is: 4.0 is one
        plan = _plan(threshold=1e9, num_trials=4.0, workers=1.0, max_steps=5.0, window=3.0)
        np.testing.assert_array_equal(run_trials(plan)[0], [5] * 4)
        assert plan.window == 3 and type(plan.window) is int

    def test_nan_threshold(self):
        with pytest.raises(ValueError, match="threshold must be a number or \\+-inf, got nan"):
            _plan(threshold=math.nan)
        assert _plan(threshold=math.inf).threshold == math.inf
        assert _plan(threshold=-math.inf).threshold == -math.inf


class TestEstimateMtfa:
    def test_requires_infinite_nu(self):
        with pytest.raises(ValueError):
            estimate_mtfa(_plan(nu=5))

    def test_matches_precomputed_results(self):
        plan = _plan(nu=math.inf, window=25)
        fresh = estimate_mtfa(plan)
        reused = estimate_mtfa(plan, results=run_trials(plan))
        assert fresh == reused

    def test_all_censored_is_flagged_lower_bound(self):
        plan = _plan(threshold=1e9, nu=math.inf, max_steps=30, num_trials=10)
        with pytest.warns(RuntimeWarning):
            est = estimate_mtfa(plan)
        assert est.lower_bound_only
        assert est.censor_rate == 1.0
        assert est.mean == 30.0

    def test_uncensored_moments(self):
        plan = _plan(nu=math.inf, window=25, num_trials=60)
        times, censored = run_trials(plan)
        est = estimate_mtfa(plan, results=(times, censored))
        kept = times[~censored]
        assert est.num_uncensored == kept.size
        if not censored.any():
            np.testing.assert_allclose(est.mean, kept.mean())
            np.testing.assert_allclose(est.stderr, kept.std(ddof=1) / math.sqrt(kept.size))


class TestEstimateAdd:
    def test_requires_finite_nu(self):
        with pytest.raises(ValueError):
            estimate_add(_plan(nu=math.inf))

    def test_matches_precomputed_results(self):
        plan = _plan(nu=1)
        fresh = estimate_add(plan)
        reused = estimate_add(plan, results=run_trials(plan))
        assert fresh == reused

    def test_delay_counts_change_time_as_one(self):
        # an alarm on the very first post-change sample is a delay of 1
        plan = _plan(threshold=-1.0, nu=1, num_trials=10)
        est = estimate_add(plan)
        assert est.mean == 1.0
        assert est.num_false_starts == 0

    def test_false_starts_excluded(self):
        model = ShiftModel(1.5)
        plan = TrialPlan(
            model=model, detector="wl-cusum", threshold=2.0, window=20,
            nu=50, num_trials=80, seed=3, max_steps=400,
        )
        times, censored = run_trials(plan)
        est = estimate_add(plan, results=(times, censored))
        false_starts = int(((times < 50) & ~censored).sum())
        assert false_starts > 0  # threshold 2 is low enough to trip early
        assert est.num_false_starts == false_starts
        ok = censored | (times >= 50)
        want = (times[ok & ~censored] - 50 + 1).mean()
        np.testing.assert_allclose(est.mean, want)

    def test_every_trial_false_starting_raises(self):
        plan = TrialPlan(
            model=ShiftModel(1.5), detector="wl-cusum", threshold=-1.0, window=5,
            nu=50, num_trials=10, seed=0, max_steps=60,
        )
        with pytest.raises(ValueError, match="raise the threshold"):
            estimate_add(plan)

    def test_heavy_censoring_warns(self):
        plan = _plan(threshold=1e9, nu=1, max_steps=25, num_trials=10)
        with pytest.warns(RuntimeWarning):
            est = estimate_add(plan)
        assert est.lower_bound_only


class TestOperatingCharacteristic:
    def test_window_sized_per_alpha_when_unset(self):
        template = _plan(window=None, nu=1, num_trials=30)
        rows = operating_characteristic(template, [1e-1, 1e-2, 1e-3])
        assert [r.alpha for r in rows] == [1e-1, 1e-2, 1e-3]
        assert all(rows[i].window <= rows[i + 1].window for i in range(2))
        assert all(rows[i].threshold < rows[i + 1].threshold for i in range(2))
        # thresholds follow the false-alarm budget exactly
        np.testing.assert_allclose([r.threshold for r in rows],
                                   [-math.log(a) for a in (1e-1, 1e-2, 1e-3)])

    def test_fixed_window_kept(self):
        template = _plan(window=25, nu=1, num_trials=30)
        rows = operating_characteristic(template, [1e-1, 1e-2])
        assert all(r.window == 25 for r in rows)

    def test_matches_direct_estimate(self):
        template = _plan(window=None, nu=1, num_trials=30)
        rows = operating_characteristic(template, [1e-2])
        direct = estimate_add(
            _plan(window=rows[0].window, threshold=rows[0].threshold, nu=1, num_trials=30)
        )
        assert rows[0].delay == direct

    def test_glr_requires_threshold_inputs(self):
        grid = np.array([0.2, 0.4])
        template = TrialPlan(
            model=GEM, detector="wl-glr", threshold=1.0, window=None, grid=grid,
            nu=1, num_trials=10, seed=0,
        )
        with pytest.raises(ValueError):
            operating_characteristic(template, [1e-2])
        rows = operating_characteristic(
            template, [1e-2],
            glr_inputs=GlrThresholdInputs(alpha=1e-2, theta_volume=0.5, dim=1, epsilon=5.5),
        )
        assert rows[0].threshold > -math.log(1e-2)

    def test_csv_round_trip(self, tmp_path):
        template = _plan(window=None, nu=1, num_trials=25)
        rows = operating_characteristic(template, [1e-1, 1e-2])
        path = tmp_path / "oc.csv"
        _write_csv(path, *_oc_table(rows), [])
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert list(got[0]) == [
            "alpha", "threshold", "window", "delay_mean", "delay_stderr",
            "num_uncensored", "censor_rate",
        ]
        assert len(got) == 2
        assert float(got[1]["delay_mean"]) == rows[1].delay.mean
        assert int(got[0]["window"]) == rows[0].window


GLR_INPUTS = GlrThresholdInputs(alpha=1e-2, theta_volume=0.4, dim=1, epsilon=5.5)


def _assert_each_alone(plans, times, censored):
    """Row p of a shared run is plans[p]'s streamed reference, bit for bit."""
    for plan, t, c in zip(plans, times, censored):
        want = _streamed(plan)
        np.testing.assert_array_equal(t, want[0])
        np.testing.assert_array_equal(c, want[1])


class TestSharedOperatingPoints:
    """A curve runs every alpha on one bank and one set of trial streams; each
    row is still the one its alpha's plan gives run alone."""

    @pytest.mark.parametrize("kw, alphas", [
        (dict(), (1e-1, 1e-2, 1e-3)),  # windows 22, 23 and 23: scans with two spans
        (GLR_GEM, (1e-2, 1e-3, 1e-4)),  # the grid path
        # the bank grows from 64 to GEM's dead lag 119 over 149 pre-change steps
        (dict(model=GemModel(0.1, 1e4, 3.0), detector="full-cusum", nu=150, num_trials=12),
         (1e-1, 1e-2, 1e-3)),
        (dict(model=DecayModel(2.0, 4.0, 0.2)), (1e-1, 1e-2, 1e-3)),
        # no dead lag: the bank grows past its first cap of 64 while all three points wait
        (dict(model=DecayModel(2.0, 4.0, 0.2), detector="full-cusum"), (1e-1, 1e-2, 1e-3)),
        (dict(window=25), (1e-1, 1e-2, 1e-3)),
        # the cap censors 1 of 40 trials at 1e-3 and none at 1e-2 or 1e-1
        (dict(max_steps=22), (1e-1, 1e-2, 1e-3)),
        (dict(workers=2, num_trials=20), (1e-1, 1e-2, 1e-3)),
        (dict(), (1e-3, 1e-1, 1e-2)),
    ], ids=["wl-cusum", "wl-glr", "full-cusum-dead-lag", "decay", "full-cusum-decay",
            "fixed-window", "max-steps", "workers", "unsorted"])
    def test_rows_equal_each_alpha_run_alone(self, kw, alphas):
        template = _plan(**{"window": None, "nu": 1, **kw})
        inputs = GLR_INPUTS if template.detector == "wl-glr" else None
        rows = operating_characteristic(template, alphas, glr_inputs=inputs)
        assert [r.alpha for r in rows] == list(alphas)
        censored_any = []
        for row in rows:
            plan = replace(template, threshold=row.threshold, window=row.window)
            alone = run_trials(plan)
            want = _streamed(plan)
            np.testing.assert_array_equal(alone[0], want[0])
            np.testing.assert_array_equal(alone[1], want[1])
            assert row.delay == estimate_add(plan, results=alone)
            censored_any.append(bool(alone[1].any()))
        if "max_steps" in kw:
            assert censored_any == [False, False, True]

    def test_no_alphas_no_rows(self):
        assert operating_characteristic(_plan(window=None, nu=1), []) == []

    def test_one_detector_for_a_curve(self, monkeypatch):
        builds = []

        class CountingWlGlr(WlGlr):
            def __init__(self, *args):
                builds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(montecarlo, "WlGlr", CountingWlGlr)
        template = _plan(window=None, nu=1, num_trials=30, **GLR_GEM)
        rows = operating_characteristic(template, [1e-2, 1e-3, 1e-4], glr_inputs=GLR_INPUTS)
        assert len(builds) == 1
        assert builds[0][2] == max(r.window for r in rows)  # the widest window's bank

    @pytest.mark.parametrize("kw", [
        dict(window=23),  # scans
        dict(window=23, **GLR_GEM),  # one step at a time
    ], ids=["scan", "grid"])
    def test_points_with_their_own_step_caps(self, kw):
        # caps 30, 45 and 300 fall inside one scan: a trial that would alarm
        # past a point's cap is censored there for that point alone
        base = _plan(nu=math.inf, num_trials=12, threshold=math.log(100), **kw)
        plans = [replace(base, max_steps=300), replace(base, max_steps=30),
                 replace(base, threshold=math.log(50), window=5, max_steps=45)]
        times, censored = montecarlo._run(plans)
        _assert_each_alone(plans, times, censored)
        assert (censored[1] & ~censored[0]).any()

    def test_support_error_only_where_a_point_needs_the_step(self):
        # a trial whose step-40 draw is positive alarms there for b = ln 100 and
        # meets +inf at step 41, which only a point with a later cap needs
        model = SpikedWhenPositive(0.1, 1e4, 0.4, at40=1e6, at41=math.inf)
        base = _plan(model=model, nu=math.inf, threshold=math.log(100), window=23,
                     num_trials=8, max_steps=300)
        plans = [base, replace(base, threshold=1e9, max_steps=40)]
        times, censored = montecarlo._run(plans)
        _assert_each_alone(plans, times, censored)
        with pytest.raises(SupportError):
            montecarlo._run([base, replace(base, threshold=1e9, max_steps=41)])

    def test_nan_counts_for_a_point_only_where_it_reads_the_bank(self):
        # +inf at step 40 alarms the window-23 point where the draw is positive,
        # and -1e308 next turns those lags (12 and up) to NaN; the window-5
        # point steps on over the same bank but holds none of them
        model = SpikedWhenPositive(0.1, 1e4, 1.0, at40=1e308, at41=-1e308)
        base = _plan(model=model, nu=math.inf, threshold=math.inf, window=23, num_trials=8,
                     max_steps=300)
        plans = [base, replace(base, window=5)]
        times, censored = montecarlo._run(plans)
        _assert_each_alone(plans, times, censored)
        assert 0 < (times[0] == 40).sum() < len(times[0])

    def test_grid_nan_counts_for_a_point_only_where_it_reads_the_bank(self):
        # as above on a theta grid: +inf at step 40 and NaN at 41 sit in the old lags
        # of the theta = 0.75 and 1 columns, which the window-5 point never reads
        model = SpikedWhenPositive(0.1, 1e4, 1.0, at40=1e308, at41=-1e308)
        base = _plan(model=model, nu=math.inf, threshold=math.inf, window=23, num_trials=8,
                     max_steps=300, detector="wl-glr", grid=np.linspace(0.25, 1.0, 4))
        plans = [base, replace(base, window=5)]
        times, censored = montecarlo._run(plans)
        _assert_each_alone(plans, times, censored)
        assert 0 < (times[0] == 40).sum() < len(times[0])

    def test_grid_nan_raises_for_a_point_that_reads_it(self):
        model = SpikedGem(0.1, 1e4, 1.0, spikes=((40, -1e308), (41, 1e308)))
        base = _plan(model=model, nu=math.inf, threshold=math.inf, window=23, num_trials=3,
                     max_steps=300, detector="wl-glr", grid=np.linspace(0.25, 1.0, 4))
        plans = [replace(base, window=5), base]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="trial 0 at step 41"):
                montecarlo._run(plans)
            with pytest.raises(FloatingPointError, match="at step 41"):
                _streamed(base)
            times, censored = montecarlo._run(plans[:1])  # window 5 holds no NaN
            _assert_each_alone(plans[:1], times, censored)

    def test_nan_counts_only_while_a_point_waits(self):
        # at theta = 1 the spikes give NaN at step 601 in lags 13 and up, which the
        # window-23 points hold and the window-5 point does not; the first alarms
        # at step 1 and the second is censored at step 590, before the NaN
        model = SpikedGem(0.1, 1e4, 1.0, spikes=((600, -1e308), (601, 1e308)))
        base = _plan(model=model, nu=math.inf, threshold=math.inf, window=5, num_trials=3,
                     max_steps=700)
        plans = [replace(base, threshold=0.0, window=23),
                 replace(base, threshold=1e9, window=23, max_steps=590), base]
        with np.errstate(over="ignore", invalid="ignore"):
            times, censored = montecarlo._run(plans)
            _assert_each_alone(plans, times, censored)

    def test_nan_counts_only_for_the_trials_a_point_waits_on(self):
        # window 200 steps one at a time; where the first draw is positive the
        # b = 50 point alarms at step 2 and its lags 13 and up are NaN at step
        # 41, which the window-5 point, still waiting there, does not hold
        model = SpikedWhenFirstPositive(0.1, 1e4, 1.0)
        base = _plan(model=model, nu=math.inf, threshold=math.inf, window=5, num_trials=6,
                     max_steps=100)
        plans = [replace(base, threshold=50.0, window=200), base]
        with np.errstate(over="ignore", invalid="ignore"):
            times, censored = montecarlo._run(plans)
            _assert_each_alone(plans, times, censored)
        assert 0 < (times[0] == 2).sum() < len(times[0])

    def test_nan_raises_for_a_point_that_still_needs_the_step(self):
        # b = 0 alarms every trial at step 1; the b = inf point meets NaN at step 41
        model = SpikedGem(0.1, 1e4, 1.0, spikes=((40, -1e308), (41, 1e308)))
        base = _plan(model=model, nu=math.inf, threshold=math.inf, window=23, num_trials=3,
                     max_steps=2000)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="trial 0 at step 41"):
                montecarlo._run([replace(base, threshold=0.0), base])


class TestGeometricQq:
    def test_recovers_geometric_law(self):
        rng = np.random.default_rng(101)
        times = rng.geometric(0.01, 2000)
        report = geometric_qq(times)
        assert report.correlation >= 0.995
        assert report.p_hat == pytest.approx(0.01, rel=0.15)
        assert report.num_samples == 2000
        assert np.all(np.diff(report.probs) > 0)
        assert report.empirical.shape == report.theoretical.shape

    def test_default_percentile_grid(self):
        rng = np.random.default_rng(5)
        report = geometric_qq(rng.geometric(0.05, 500))
        np.testing.assert_allclose(report.probs, np.arange(1, 100) / 100.0)

    def test_validation(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            geometric_qq(rng.geometric(0.5, 99))  # too few samples
        with pytest.raises(ValueError):
            geometric_qq(np.full(200, 7))  # constant sample
        with pytest.raises(ValueError):
            geometric_qq(np.r_[np.zeros(100), np.ones(100)])  # times must be >= 1

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        report = geometric_qq(rng.geometric(0.01, 1000))
        path = tmp_path / "qq.csv"
        _write_csv(path, *_qq_table(report), [])
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert list(got[0]) == ["prob", "theoretical", "empirical"]
        assert len(got) == len(report.probs)
        np.testing.assert_allclose(
            [float(r["theoretical"]) for r in got], report.theoretical
        )


def test_full_cusum_plan_runs_without_window():
    plan = TrialPlan(
        model=GEM, detector="full-cusum", threshold=math.log(20), window=None,
        num_trials=10, seed=2,
    )
    times, censored = run_trials(plan)
    assert times.shape == (10,)
    est = estimate_mtfa(plan, results=(times, censored))
    assert isinstance(est, DelayEstimate)


def test_decay_model_delay_smoke():
    plan = TrialPlan(
        model=DecayModel(2.0, 4.0, 0.2), detector="wl-cusum",
        threshold=-math.log(1e-2), window=12, nu=1, num_trials=50, seed=21,
    )
    est = estimate_add(plan)
    assert est.mean > 1.0
    assert est.censor_rate <= 0.05
