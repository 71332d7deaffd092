"""wlcusum benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory. With ``--trace 0`` the run measures for S seconds with
tracing off and prints every end-to-end metric, in CPU time rescaled to a
reference speed (speed.py). With ``--trace 1`` it runs the
same rounds twice, untraced then traced, for S/2 seconds each, and prints
every per-layer metric plus the tracing overhead; the spans are written to
``perfbench/.work/``. Both modes recompute a sample of the outputs with the
direct-sum reference and print a digest of the stopping times. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracing
from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
SETUP_REPEATS = 3  # set-ups per run: at the start, halfway and at the end
DIGEST_ROUNDS = 2  # every run completes at least these rounds; the digest covers them


def metric_tables() -> dict[str, dict[str, str]]:
    """{"end_to_end" | "per_layer": {metric name: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def import_library():
    """Import wlcusum from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "wlcusum" / "__init__.py").is_file():
        raise SystemExit(f"error: no wlcusum sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import wlcusum
    import wlcusum.cli  # noqa: F401  (part of set-up: the CLI is what the workloads drive)

    if Path(wlcusum.__file__).resolve().parent != (src / "wlcusum").resolve():
        raise SystemExit(f"error: imported wlcusum from {wlcusum.__file__}, not {src}")


def machine_info() -> dict:
    info = {"cores": os.cpu_count(), "cpu_model": platform.processor() or "unknown",
            "llc": "unknown", "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
                  for d in caches.glob("index*")]
        if levels:
            level, size = max(levels)
            info["llc"] = f"L{level} {size}"
    except (OSError, ValueError):
        pass
    return info


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def timings(rounds, meter: Speedometer) -> dict:
    """End-to-end timings of ``rounds``, in CPU time at the reference speed."""
    requests = [meter.scaled(start, end) for r in rounds for start, end in r.requests]
    total = sum(requests)
    window, full = ([meter.scaled(start, end) / n for r in rounds for start, end, n in r.steps[key]]
                    for key in ("window", "full"))
    return {
        "wall_s": total / len(rounds),
        "throughput_obs_per_s": sum(r.obs for r in rounds) / total,
        "ops_per_s": sum(r.ops for r in rounds) / total,
        "region_p50_ms": percentile(requests, 50) * 1e3,
        "region_p90_ms": percentile(requests, 90) * 1e3,
        "step_p50_us": percentile(window, 50) * 1e6,
        "step_p99_us": percentile(window, 99) * 1e6,
        "full_step_p50_us": percentile(full, 50) * 1e6,
        "full_step_p99_us": percentile(full, 99) * 1e6,
    }


def time_setup(workload: str, seed: int) -> float:
    """Set-up seconds of a fresh interpreter, as it reports them (see ``main``)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs rounds of one workload and keeps the failure tally."""

    def __init__(self, wl, meter: Speedometer):
        self.wl = wl
        self.meter = meter  # the speedometer of ``wl``
        self.attempted = 0
        self.failures: list[str] = []
        self.wall_s = 0.0  # wall-clock seconds spent in rounds and probes

    def rounds(self, seconds: float, start: int = 0, timed: bool = True) -> list:
        """Rounds for ``seconds``.

        ``timed`` runs the calibration timer in each round and the latency
        probe after it; the traced run does neither.
        """
        done, i = [], start
        begin = time.perf_counter()
        while i < DIGEST_ROUNDS or time.perf_counter() < begin + seconds:
            self.attempted += self.wl.OPS
            try:
                with self.meter if timed else contextlib.nullcontext():
                    done.append(self.wl.run_round(i))
            except Exception:
                self.fail(f"round {i}: {traceback.format_exc()}", self.wl.OPS)
                if i < DIGEST_ROUNDS:
                    break  # the digest and the reference need the first rounds
            else:
                if timed:
                    self.probe(i, done)
            i += 1
        self.wall_s += time.perf_counter() - begin
        return done

    def probe(self, i, done):
        try:
            self.wl.probe(i, done)
        except Exception:
            self.attempted += 1
            self.fail(f"latency probe after round {i}: {traceback.format_exc()}")

    def fail(self, what: str, count: int = 1):
        print(f"FAILED {what}", file=sys.stderr)
        self.failures.extend([what] * count)

    def check(self, rounds):
        if len(rounds) < DIGEST_ROUNDS:
            self.attempted += 1
            self.fail("too few completed rounds to check")
            return
        try:
            result = self.wl.check(rounds)
        except Exception:
            self.attempted += 1
            self.fail(f"reference check raised: {traceback.format_exc()}")
            return
        self.attempted += result.checked
        for what in result.mismatches:
            self.fail(f"reference mismatch: {what}")
        print(f"reference: {result.checked - len(result.mismatches)} of {result.checked} "
              "checks agree with the direct-sum reference")


def digest(rounds) -> str:
    records = [r.record for r in rounds[:DIGEST_ROUNDS]]
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def describe(rounds, runner: Runner) -> str:
    """The raw figures behind the rescaled ones."""
    meter = runner.meter
    factors = [meter.factor(start, end) for r in rounds for start, end in r.requests]
    return (f"rounds: {len(rounds)}, requests: {len(factors)}, timed stretches: "
            f"{sum(len(r.steps['window']) + len(r.steps['full']) for r in rounds)}; per round "
            f"{runner.wall_s / len(rounds):.4f} s wall clock with its probe, "
            f"{statistics.fmean(r.cpu_s for r in rounds):.4f} s CPU; calibration samples: "
            f"{len(meter.cost)}, speed factor per request: median "
            f"{statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f}")


def end_to_end(wl, runner: Runner, seed: int, seconds: float) -> dict:
    setups, rounds = [], []
    for part in range(SETUP_REPEATS):
        setups.append(time_setup(wl.name, seed))
        if part < SETUP_REPEATS - 1:
            rounds += runner.rounds(seconds / (SETUP_REPEATS - 1), start=len(rounds))
    print(f"digest: {digest(rounds)}")
    runner.check(rounds)
    if not rounds:
        raise SystemExit("error: no round completed")
    print(describe(rounds, runner))
    print(f"set-ups: {', '.join(f'{s:.3f}' for s in setups)} s")
    return {
        "setup_s": statistics.median(setups),
        **timings(rounds, runner.meter),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(wl, runner: Runner, seed: int, seconds: float, machine: dict, names) -> dict:
    # no calibration sampling here: it would add to the span times
    plain = runner.rounds(seconds / 2, timed=False)
    print(f"digest: {digest(plain)}")
    extra = {}
    if hasattr(wl, "scaling"):
        w1, w2 = wl.scaling()
        extra["montecarlo.run_trials.speedup_w2"] = w1 / w2
        extra["montecarlo.run_trials.efficiency_w2"] = w1 / w2 / 2.0
        print(f"scaling probe: workers=1 {w1:.3f} s, workers=2 {w2:.3f} s, speedup "
              f"{w1 / w2:.3f}, measured on a shared machine with {machine['cores']} cores")
    if hasattr(wl, "cost_curve"):
        for m, ns in wl.cost_curve().items():
            extra[f"detectors.WlCusum.step.ns_m{m}"] = ns
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        rounds = runner.rounds(seconds / 2, timed=False)
    finally:
        tracer.restore()
    runner.check(plain)
    if not plain or not rounds:
        raise SystemExit("error: no round completed")
    for i, (r, p) in enumerate(zip(rounds, plain)):
        runner.attempted += 1
        if r.record != p.record:
            runner.fail(f"traced round {i} produced different outputs")
    metrics = layer_metrics(tracer, rounds, extra, names)
    untraced = timings(plain, runner.meter)["wall_s"]
    traced_wall = timings(rounds, runner.meter)["wall_s"]
    metrics["trace.overhead_s"] = traced_wall - untraced
    print(f"tracing overhead: wall_s {untraced:.4f} s untraced, {traced_wall:.4f} s traced")
    WORKDIR.mkdir(exist_ok=True)
    out = WORKDIR / f"trace-{wl.name}-seed{seed}.json"
    out.write_text(json.dumps({"workload": wl.name, "seed": seed, "machine": machine,
                               "spans": tracer.as_rows(), "counters": dict(tracer.counters),
                               "metrics": metrics}, indent=1) + "\n")
    print(f"spans written to {out.relative_to(ROOT)}")
    return metrics


def layer_metrics(tracer, rounds, extra: dict, names) -> dict:
    """Every per-layer metric in ``names``; span metrics end in ``.calls`` or ``.self_s``."""
    c = tracer.counters
    m = dict.fromkeys(names, 0.0)
    for name in names:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            calls, self_s = tracer.totals(span)
            m[name] = calls if field == "calls" else self_s
    m["models.sample_segment.draws"] = c["draws"]
    obs = sum(r.obs for r in rounds)
    m["models.sample_segment.used_ratio"] = obs / c["draws"] if c["draws"] else 0.0
    calls, self_s = tracer.totals("detectors.WlCusum.step")
    m["detectors.WlCusum.step.ns_per_call"] = self_s / calls * 1e9 if calls else 0.0
    for _, _, bucket in tracing.FULL_BUCKETS:
        m[f"detectors.FullCusum.step.self_s_{bucket}"] = c[f"full_self_s.{bucket}"]
    m["detectors.FullCusum.bank_entries"] = c["full_entries"]
    m["detectors.FullCusum.live_ratio"] = (c["full_finite"] / c["full_sampled"]
                                           if c["full_sampled"] else 0.0)
    m["detectors.WlGlr.bank_entries"] = c["glr_entries"]
    for key in ("trials", "trial_steps", "censored"):
        m[f"montecarlo.{key}"] = c[key]
    m["cli.bytes_written"] = sum(r.bytes_written for r in rounds)
    m.update(extra)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    setup_meter, meter = Speedometer(), Speedometer()
    with setup_meter:
        import_library()
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        wl = WORKLOADS[args.workload](args.seed, WORKDIR, meter)
    if args.setup_only:
        # the CPU time of this whole process so far, less sampling, at the reference speed
        usage = resource.getrusage(resource.RUSAGE_SELF)
        cpu = usage.ru_utime + usage.ru_stime - setup_meter.overhead
        print(repr(cpu * setup_meter.factor(-math.inf, math.inf)))
        return 0

    machine = machine_info()
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload: {wl.name} ({wl.why})")
    print(f"inputs: {wl.inputs_digest()}")
    runner = Runner(wl, meter)
    tables = metric_tables()
    if args.trace:
        units = tables["per_layer"]
        metrics = traced(wl, runner, args.seed, args.seconds, machine, units)
    else:
        units = tables["end_to_end"]
        metrics = end_to_end(wl, runner, args.seed, args.seconds)
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")
    failed = len(runner.failures)
    print(f"failed_ratio = {failed / max(runner.attempted, 1)!r} "
          f"({failed} failed of {runner.attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(runner.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
