"""The benchmark's four workloads.

Each workload derives all of its inputs from the benchmark seed, runs in
rounds of fixed work (``run_round``), times stretches of detector steps in
``probe`` and recomputes a sample of its outputs with the direct-sum
reference in ``check``. Every timing is a pair of readings of the clock of
the workload's speedometer, CPU time less calibration (see speed.py); run.py
rescales each interval to the reference speed. The library is driven only
from outside: through ``wlcusum.cli.main`` in-process or through public
functions. Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
import warnings
from array import array
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

import reference as ref
from speed import Speedometer
from wlcusum import calibration, cli, detectors, growth, models, montecarlo

GEM = {"mu0": 0.1, "sigma0_sq": 1e4, "theta": 0.4}
GEM_FLAGS = ["--model", "gem", "--mu0", "0.1", "--sigma0-sq", "1e4", "--theta", "0.4"]
SEED_POOL = 100_000  # per-round seeds drawn up front; far more rounds than any run reaches


def no_steps() -> dict:
    return {"window": [], "full": []}


@dataclass
class Round:
    """One round of fixed work and what it produced."""

    ops: int  # trials, streams or counties
    obs: int  # observations that reached a detector
    requests: list  # (start, end) clock readings of each user-facing call in the round
    record: dict  # outputs that go into the digest
    bytes_written: int = 0
    # (start, end, steps) of each timed stretch: window-limited and full detector
    steps: dict = field(default_factory=no_steps)

    @property
    def cpu_s(self) -> float:
        return float(sum(end - start for start, end in self.requests))


@dataclass
class Check:
    checked: int = 0
    mismatches: list = field(default_factory=list)

    def expect(self, ok: bool, what: str):
        self.checked += 1
        if not ok:
            self.mismatches.append(what)


def call_cli(argv: list[str], out_dir: Path, clock) -> tuple[tuple[float, float], int]:
    """Run one CLI command in-process; ((start, end) on ``clock``, bytes left in ``out_dir``)."""
    sink_out, sink_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err), \
            warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*hit the step cap", category=RuntimeWarning)
        start = clock()
        code = cli.main(argv)
        end = clock()
    if code != 0:
        raise RuntimeError(f"wlcusum {argv[0]} exited {code}: {sink_err.getvalue().strip()}")
    return (start, end), sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def gem_model():
    return models.GemModel(**GEM)


class Workload:
    name = ""
    why = ""
    OPS = 0  # operations in one round

    def __init__(self, seed: int, workdir: Path, meter: Speedometer | None = None):
        self.seed = int(seed)
        self.meter = meter or Speedometer()
        self.clock = self.meter.clock
        self.rng = np.random.default_rng(self.seed)
        self.round_seeds = self.rng.integers(0, 2**31 - 1, size=SEED_POOL)
        self.workdir = workdir / self.name
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.probe_detectors = None

    def inputs_digest(self) -> str:
        return hashlib.sha256(self.round_seeds.tobytes()).hexdigest()

    def run_round(self, i: int) -> Round:
        raise NotImplementedError

    def probe(self, i: int, rounds):
        """Time detector steps after round ``i`` (the last of ``rounds``), outside its timing."""
        raise NotImplementedError

    def time_probe(self, inputs, stretch: int, steps: dict):
        """Time each (window-limited, full, observations) triple in stretches.

        Each detector is reset and fed the observations on its own; every
        ``stretch`` steps give one (start, end, steps) entry in ``steps``. A
        calibration sample runs before and after each stretch, so a stretch
        is rescaled by the speed right around it.
        """
        clock, sample = self.clock, self.meter.sample
        for wl, full, xs in inputs:
            for det, key in ((wl, "window"), (full, "full")):
                det.reset()
                for lo in range(0, len(xs), stretch):
                    part = xs[lo : lo + stretch]
                    sample()
                    start = clock()
                    for x in part:
                        det.step(x)
                    steps[key].append((start, clock(), len(part)))
        sample()

    def check(self, rounds) -> Check:
        raise NotImplementedError


class MtfaWlGem(Workload):
    name = "mtfa-wl-gem"
    why = ("estimate-mtfa with wl-cusum on GEM: long pre-change trials, so the per-step "
           "WlCusum bank and the run_until_alarm loop do almost all the work")
    ALPHA = 1e-2
    # Each trial also pays a fixed cost (RNG substream, detector, block draws), so
    # a round's rate depends on its trials' lengths; 64 trials per round keep
    # that to a few percent, so the fastest rounds are fast because of the machine.
    TRIALS = 64
    # 10 pre-change streams of 200 steps in stretches of 50: each position within a
    # stream, whose cost differs, is a quarter of the stretches, so no percentile
    # falls on the edge of a small group
    PROBE_STREAMS, PROBE_STEPS, PROBE_STRETCH = 10, 200, 50
    OPS = TRIALS

    def argv(self, seed: int, trials: int, workers: int = 1) -> list[str]:
        return ["estimate-mtfa", "--out", str(self.workdir), *GEM_FLAGS,
                "--detector", "wl-cusum", "--alpha", repr(self.ALPHA),
                "--trials", str(trials), "--seed", str(seed), "--workers", str(workers)]

    def run_round(self, i):
        seed = int(self.round_seeds[i])
        span, nbytes = call_cli(self.argv(seed, self.TRIALS), self.workdir, self.clock)
        with open(self.workdir / "mtfa_trials.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        times = [int(r["time"]) for r in rows]
        censored = [int(r["censored"]) for r in rows]
        summary = json.loads((self.workdir / "mtfa_summary.json").read_text())
        return Round(ops=self.TRIALS, obs=sum(times), requests=[span], bytes_written=nbytes,
                     record={"seed": seed, "times": times, "censored": censored,
                             "threshold": summary["threshold"], "window": summary["window"]})

    def scaling(self) -> tuple[float, float]:
        """Wall seconds of one 96-trial call with 1 worker and with 2 workers."""
        seed, walls = int(self.round_seeds[-1]), []
        for workers in (1, 2):
            start = time.perf_counter()  # wall time: workers run in other processes
            call_cli(self.argv(seed, 96, workers), self.workdir, self.clock)
            walls.append(time.perf_counter() - start)
        return tuple(walls)

    def probe(self, i, rounds):
        model = gem_model()
        if self.probe_detectors is None:
            b, m = rounds[0].record["threshold"], rounds[0].record["window"]
            self.probe_detectors = (detectors.WlCusum(model, b, m),
                                    detectors.FullCusum(model, b))
        rng = np.random.default_rng([self.seed, 1, i])
        self.time_probe([(*self.probe_detectors,
                          model.sample_segment(rng, math.inf, 1, self.PROBE_STEPS).tolist())
                         for _ in range(self.PROBE_STREAMS)], self.PROBE_STRETCH, rounds[-1].steps)

    def check(self, rounds):
        model, out = gem_model(), Check()
        rec = rounds[0].record
        b, m = rec["threshold"], rec["window"]
        out.expect(b == -math.log(self.ALPHA), f"threshold {b!r} != |ln alpha|")
        out.expect(m == ref.gem_window(GEM, self.ALPHA), f"window {m} != growth-inverse sizing")
        cap = ref.mtfa_step_cap(b)
        slopes, intercepts = ref.llr_tables(model, m)
        picks = np.random.default_rng([self.seed, 2]).choice(self.TRIALS, 3, replace=False)
        for i in sorted(int(p) for p in picks):
            got = (rec["times"][i], bool(rec["censored"][i]))
            want = ref.trial_stopping_time(model, rec["seed"], i, math.inf, cap, b,
                                           slopes, intercepts, m)
            out.expect(got == want, f"trial {i} of seed {rec['seed']}: cli {got}, reference {want}")
        return out


class OcGlrGem(Workload):
    name = "oc-glr-gem"
    why = ("wl-glr delay curve on GEM (A3 set-up, G=50, change at nu=1): short trials, so "
           "per-trial detector build, RNG, block draws and growth_inverse dominate")
    ALPHAS = (1e-2, 1e-3, 1e-4)
    BOX, GRID_COUNT, EPSILON = (0.0, 0.5), 50, 5.5
    TRIALS = 16
    PROBE_STREAMS, PROBE_STEPS = 20, 25
    OPS = TRIALS * len(ALPHAS)

    def run_round(self, i):
        # simulate-oc --detector wl-glr fails on one-parameter models (the CLI hands
        # theta_grid a (1, 2) box and GemModel.with_theta gets 1-tuples), so this
        # workload calls the public operating_characteristic the CLI would call
        seed = int(self.round_seeds[i])
        start = self.clock()
        template = montecarlo.TrialPlan(
            model=gem_model(), detector="wl-glr", threshold=1.0, window=None,
            grid=detectors.theta_grid(self.BOX, self.GRID_COUNT), nu=1,
            num_trials=self.TRIALS, seed=seed, workers=1)
        inputs = calibration.GlrThresholdInputs(alpha=self.ALPHAS[0],
                                                theta_volume=self.BOX[1] - self.BOX[0],
                                                dim=1, epsilon=self.EPSILON)
        rows = montecarlo.operating_characteristic(template, self.ALPHAS, glr_inputs=inputs)
        end = self.clock()
        table = [[r.alpha, r.threshold, r.window, r.delay.mean, r.delay.stderr,
                  r.delay.num_uncensored, r.delay.censor_rate] for r in rows]
        obs = sum(round(r.delay.mean * self.TRIALS) for r in rows)
        return Round(ops=self.TRIALS * len(rows), obs=obs, requests=[(start, end)],
                     record={"seed": seed, "rows": table})

    def probe(self, i, rounds):
        model = gem_model()
        if self.probe_detectors is None:
            _, b, m = rounds[0].record["rows"][1][:3]  # the alpha = 1e-3 row
            self.probe_detectors = (
                detectors.WlGlr(model, b, m, detectors.theta_grid(self.BOX, self.GRID_COUNT)),
                detectors.FullCusum(model, -math.log(self.ALPHAS[1])))
        rng = np.random.default_rng([self.seed, 1, i])
        self.time_probe([(*self.probe_detectors,
                          model.sample_segment(rng, 1, 1, self.PROBE_STEPS).tolist())
                         for _ in range(self.PROBE_STREAMS)], self.PROBE_STEPS, rounds[-1].steps)

    def check(self, rounds):
        model, out = gem_model(), Check()
        rec = rounds[0].record
        grid = ref.midpoint_grid([self.BOX], [self.GRID_COUNT])
        for alpha, b, m, mean, _, uncensored, _ in rec["rows"]:
            residual = ref.glr_threshold_residual(b, alpha, self.BOX[1] - self.BOX[0], 1,
                                                  self.EPSILON)
            out.expect(residual <= 1e-9, f"alpha {alpha}: threshold residual {residual:.3g}")
            out.expect(m == ref.gem_window(GEM, alpha), f"alpha {alpha}: window {m}")
            cap = ref.delay_step_cap(GEM, b, 1)
            slopes, intercepts = ref.llr_tables(model, m, grid)
            results = [ref.trial_stopping_time(model, rec["seed"], i, 1, cap, b, slopes,
                                               intercepts, m) for i in range(self.TRIALS)]
            times = np.array([t for t, _ in results], dtype=float)
            n_unc = sum(1 for _, cens in results if not cens)
            out.expect(ref.close(times.mean(), mean) and n_unc == uncensored,
                       f"alpha {alpha}: delay mean {mean!r} / {uncensored} uncensored, "
                       f"reference {times.mean()!r} / {n_unc}")
        return out


class StreamGem(Workload):
    name = "stream-gem"
    why = ("online monitoring: one GEM stream with a late change fed one observation at a "
           "time to WlCusum and FullCusum; the only direct step caller and FullCusum user")
    NU = 20_001  # 20,000 pre-change observations
    ALPHA = 1e-6
    MAX_LAG = 1_500  # GEM draws overflow about 1,770 lags past the change
    OPS = 1

    def __init__(self, seed, workdir, meter=None):
        super().__init__(seed, workdir, meter)
        self.model = gem_model()
        self.threshold = calibration.cusum_threshold(self.ALPHA)
        self.window = calibration.window_size(growth.GrowthCurve(self.model), self.ALPHA)
        self.first = None  # observations and statistics of round 0, for the reference

    def run_round(self, i):
        model, nu = self.model, self.NU
        rng = np.random.default_rng(int(self.round_seeds[i]))
        wl = detectors.WlCusum(model, self.threshold, self.window)
        full = detectors.FullCusum(model, self.threshold)
        steps = no_steps()
        wl_stat, full_stat, drawn = array("d"), array("d"), []
        wl_hit = full_hit = None
        alarms_before_change = 0
        n = 0
        clock = self.clock
        round_start = clock()
        while wl_hit is None:
            block = model.sample_segment(rng, nu, n + 1, ref.STREAM_BLOCK)
            drawn.append(block)
            xs = block.tolist()
            # each detector takes the block on its own: one pair of clock reads per block
            start = clock()
            for used, x in enumerate(xs, 1):
                out = wl.step(x)
                wl_stat.append(out.statistic)
                if out.alarm:
                    if n + used >= nu:
                        wl_hit = (n + used, out.k_star, out.statistic)
                        break
                    alarms_before_change += 1
            middle = clock()
            full_used = 0
            if full_hit is None:
                for full_used, x in enumerate(xs[:used], 1):
                    fout = full.step(x)
                    full_stat.append(fout.statistic)
                    if fout.alarm and n + full_used >= nu:
                        full_hit = (n + full_used, fout.k_star, fout.statistic)
                        break
            end = clock()
            if used == len(xs):
                steps["window"].append((start, middle, used))
            if full_used == len(xs):
                steps["full"].append((middle, end, full_used))
            n += used
            if n >= nu + self.MAX_LAG:
                raise RuntimeError(f"no alarm within {self.MAX_LAG} lags of the change")
        round_end = clock()
        wl_stat, full_stat = np.asarray(wl_stat), np.asarray(full_stat)
        if i == 0:
            self.first = (np.concatenate(drawn)[:n], wl_stat, full_stat)
        common = len(full_stat)
        record = {"wl": list(wl_hit), "full": list(full_hit),
                  "alarms_before_change": alarms_before_change,
                  "a7_violations": int(np.sum(~(full_stat >= wl_stat[:common]))),
                  "nan": int(np.isnan(wl_stat).sum() + np.isnan(full_stat).sum()),
                  "draws": int(sum(len(b) for b in drawn))}
        return Round(ops=1, obs=n, requests=[(round_start, round_end)], record=record,
                     steps=steps)

    def probe(self, i, rounds):
        pass  # the rounds themselves time every step

    def cost_curve(self, steps: int = 4000) -> dict[int, float]:
        """CPU ns per WlCusum.step at m = 25, 200, 2000 on a filled pre-change bank."""
        model = self.model
        xs = [float(x) for x in model.sample_segment(np.random.default_rng([self.seed, 3]),
                                                     math.inf, 1, 2001 + steps)]
        curve = {}
        for m in (25, 200, 2000):
            samples = []
            for _ in range(3):
                det = detectors.WlCusum(model, math.inf, m)
                for x in xs[: m + 1]:
                    det.step(x)
                start = time.thread_time()
                for x in xs[m + 1 : m + 1 + steps]:
                    det.step(x)
                samples.append((time.thread_time() - start) / steps * 1e9)
            curve[m] = float(np.median(samples))
        return curve

    def check(self, rounds):
        out = Check()
        for i, r in enumerate(rounds):
            rec = r.record
            out.expect(rec["a7_violations"] == 0,
                       f"stream {i}: FullCusum < WlCusum at {rec['a7_violations']} steps (A7)")
            out.expect(rec["nan"] == 0, f"stream {i}: {rec['nan']} NaN statistics")
        xs, wl_stat, full_stat = self.first
        t = ref.sufficient_stats(self.model, xs)
        for label, stat, window, hit in (("WlCusum", wl_stat, self.window, rounds[0].record["wl"]),
                                         ("FullCusum", full_stat, None,
                                          rounds[0].record["full"])):
            size = len(stat)
            width = size if window is None else window + 1
            slopes, intercepts = ref.llr_tables(self.model, min(width, 4096) - 1)
            want, k_star = ref.direct_statistics(t[:size], slopes, intercepts, window)
            out.expect(ref.close(stat, want), f"stream 0 {label}: statistics differ from direct sums")
            n = ref.first_crossing(np.where(np.arange(1, size + 1) >= self.NU, want, 0.0),
                                   self.threshold)
            out.expect(n == hit[0] and k_star[n - 1] == hit[1] and ref.close(want[n - 1], hit[2]),
                       f"stream 0 {label}: alarm {hit}, reference ({n}, {k_star[n - 1]})")
        return out


class EpiCounties(Workload):
    name = "epi-counties"
    why = ("monitor-epi over generated county CSVs, G=1000 grid, m=20, a year per county: "
           "numpy-bound GLR bank plus epidata loading and fitting")
    # BetaWave law of the bundled county (demos/make_synthetic_county.py)
    A0, B0, THETA, POPULATION = 20.6, 2.94e5, (0.464, 3.894, 0.445), 1_000_000
    COUNTIES, PER_ROUND = 12, 6
    OPS = PER_ROUND
    DAYS, MONITOR_FROM = 400, 35  # 400 - 35 = 365 monitored days
    PREFIT, MA = 20, 4
    BOX = ((0.1, 5.0), (1.0, 20.0), (0.1, 5.0))
    START = date(2021, 1, 1)
    REFERENCE_COUNTIES, PROBE_COUNTIES = 2, 4
    PROBE_STRETCH = 12  # days; 31 stretches per county

    def __init__(self, seed, workdir, meter=None):
        super().__init__(seed, workdir, meter)
        model = models.BetaWaveModel(self.A0, self.B0, self.THETA)
        self.onsets = self.rng.integers(60, self.DAYS - 40, size=self.COUNTIES)
        self.paths = []
        for j, onset in enumerate(self.onsets):
            fractions = model.sample_segment(np.random.default_rng([self.seed, 10, j]),
                                             int(onset), 1, self.DAYS)
            counts = np.round(fractions * self.POPULATION).astype(np.int64)
            lines = ["date,cases"] + [f"{(self.START + timedelta(days=d)).isoformat()},{c}"
                                      for d, c in enumerate(counts)]
            path = self.workdir / f"county_{j:02d}.csv"
            path.write_text("\n".join(lines) + "\n")
            self.paths.append(path)
        self.out_dir = self.workdir / "out"
        self.out_dir.mkdir(exist_ok=True)
        self.saved = {}  # county -> (summary, trajectory) of round 0, for the reference

    def inputs_digest(self):
        h = hashlib.sha256()
        for path in self.paths:
            h.update(path.read_bytes())
        return h.hexdigest()

    def argv(self, j: int) -> list[str]:
        start = self.START + timedelta(days=self.MONITOR_FROM)
        return ["monitor-epi", "--out", str(self.out_dir), "--input", str(self.paths[j]),
                "--population", str(self.POPULATION), "--start-date", start.isoformat(),
                "--prechange-days", str(self.PREFIT),
                "--theta-box", ",".join(f"{lo}:{hi}" for lo, hi in self.BOX),
                "--grid-counts", "10,10,10", "--window", "20", "--alpha", "1e-3"]

    def run_round(self, i):
        latencies, results, days, nbytes = [], [], 0, 0
        first_county = i * self.PER_ROUND % self.COUNTIES
        for j in range(first_county, first_county + self.PER_ROUND):
            span, written = call_cli(self.argv(j), self.out_dir, self.clock)
            latencies.append(span)
            nbytes += written
            summary = json.loads((self.out_dir / "monitor_summary.json").read_text())
            with open(self.out_dir / "trajectory.csv", newline="") as fh:
                traj = list(csv.DictReader(fh))
            first = summary["first_alarm_index"]
            results.append([first, None if first is None else int(traj[first]["k_star"]),
                            None if first is None else traj[first]["statistic"]])
            days += summary["num_days"]
            if i == 0 and j < max(self.REFERENCE_COUNTIES, self.PROBE_COUNTIES):
                self.saved[j] = (summary, traj)
        return Round(ops=self.PER_ROUND, obs=days, requests=latencies, bytes_written=nbytes,
                     record={"counties": results})

    def fractions(self, j: int) -> np.ndarray:
        """(Pre-change fit, monitored) fractions of county j, recomputed from its CSV.

        Monitored fractions equal to 0 are set to half the smallest positive
        one, as ``monitor-epi`` does before they reach the detector.
        """
        with open(self.paths[j], newline="") as fh:
            counts = np.array([float(r["cases"]) for r in csv.DictReader(fh)])
        smooth = np.convolve(counts, np.ones(self.MA) / self.MA, mode="valid") / self.POPULATION
        start = self.MONITOR_FROM - (self.MA - 1)
        x = smooth[start:].copy()
        x[x == 0.0] = x[x > 0.0].min() / 2.0
        return smooth[start - self.PREFIT : start], x

    def county_model(self, j: int):
        quiet, _ = self.fractions(j)
        mean, var = float(quiet.mean()), float(quiet.var(ddof=1))
        c = mean * (1.0 - mean) / var - 1.0
        return models.BetaWaveModel(mean * c, (1.0 - mean) * c,
                                    tuple(float(np.mean(b)) for b in self.BOX))

    def probe(self, i, rounds):
        # fresh detectors for each probe, as each monitor-epi call builds its own: one
        # long-lived bank would keep whatever cache placement its first allocation got
        j = i % self.PROBE_COUNTIES
        b, model = self.saved[j][0]["threshold"], self.county_model(j)
        grid = detectors.theta_grid(self.BOX, (10, 10, 10))
        self.time_probe([(detectors.WlGlr(model, b, 20, grid), detectors.FullCusum(model, b),
                          self.fractions(j)[1].tolist())], self.PROBE_STRETCH, rounds[-1].steps)

    def check(self, rounds):
        out = Check()
        grid = ref.midpoint_grid(self.BOX, (10, 10, 10))
        volume = float(np.prod([hi - lo for lo, hi in self.BOX]))
        for j in range(self.REFERENCE_COUNTIES):
            summary, traj = self.saved[j]
            model = self.county_model(j)
            fit = summary["beta_fit"]
            out.expect(ref.close([fit["a0"], fit["b0"]], [model.a0, model.b0]),
                       f"county {j}: Beta fit {fit['a0']}, {fit['b0']} vs "
                       f"{model.a0}, {model.b0}")
            b = summary["threshold"]
            residual = ref.glr_threshold_residual(b, 1e-3, volume, 3, 1.0)
            out.expect(residual <= 1e-9, f"county {j}: threshold residual {residual:.3g}")
            x = self.fractions(j)[1]
            slopes, intercepts = ref.llr_tables(model, 20, grid)
            want, k_star = ref.direct_statistics(ref.sufficient_stats(model, x), slopes,
                                                 intercepts, 20)
            got = np.array([float(r["statistic"]) for r in traj])
            got_k = np.array([int(r["k_star"]) for r in traj])
            out.expect(len(got) == len(want) and ref.close(got, want)
                       and np.array_equal(got_k, k_star),
                       f"county {j}: trajectory differs from direct sums")
            first = ref.first_crossing(want, b)
            want_first = None if first is None else first - 1
            out.expect(summary["first_alarm_index"] == want_first,
                       f"county {j}: first alarm {summary['first_alarm_index']}, "
                       f"reference {want_first}")
        for r in rounds:
            out.expect(all(c[2] is None or math.isfinite(float(c[2]))
                           for c in r.record["counties"]), "NaN alarm statistic")
        return out


WORKLOADS = {cls.name: cls for cls in (MtfaWlGem, OcGlrGem, StreamGem, EpiCounties)}
