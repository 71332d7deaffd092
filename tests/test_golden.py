"""Golden digests: the outputs of small seeded runs, hashed and frozen.

Each case runs one seeded configuration. Its integer outputs (stopping times,
censoring flags, k_star sequences, alarm indices) are hashed into one digest,
and its floats (statistics, theta estimates, thresholds, delay means), as repr
strings, into a second one; both are frozen in ``golden/digests.json``. A
changed digest means a changed result. The float digest rests on the
platform's libm as well as on this code, so it is kept apart from the
integer one, and ``golden/platform.txt`` records what the float digests were
frozen under: numpy's version and the SIMD targets it dispatches to. The
``cli-*`` cases run one subcommand each through
``cli.main`` and hash its stdout and the bytes of every file it writes
except ``run_manifest.json`` (which records the wall time and versions).
The ``cli-flags`` case hashes every subcommand's options, so a flag that is
added, dropped or changed in name, destination, default or choices shows.

After a deliberate change of results, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py --update
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from wlcusum import cli
from wlcusum.calibration import glr_threshold, window_size
from wlcusum.detectors import FullCusum, SrStatistic, WlCusum, WlGlr, theta_grid
from wlcusum.growth import GrowthCurve
from wlcusum.models import BetaWaveModel, DecayModel, GemModel
from wlcusum.montecarlo import TrialPlan, estimate_add, estimate_mtfa, run_trials

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
PLATFORM = GOLDEN.with_name("platform.txt")  # the _float_platform() they were frozen under
REPO = Path(__file__).resolve().parent.parent

# each model with the window and the wl-glr grid its cases use
MODELS = {
    "gem": (GemModel(0.1, 1e4, 0.4), 23, np.linspace(0.1, 0.5, 5)),
    "decay": (DecayModel(2.0, 4.0, 0.2), 15, np.linspace(0.05, 0.45, 5)),
    "wave": (
        BetaWaveModel(5.0, 20.0, (0.5, 10.0, 4.0)), 15,
        theta_grid(((0.0, 1.0), (5.0, 15.0), (1.0, 5.0)), (2, 2, 2)),
    ),
}
# (nu, threshold, trials, max_steps) per change setting
RUNS = {"nochange": (math.inf, math.log(50.0), 10, 600), "change": (20, 6.0, 10, 400)}


def _trials(detector, model_name, run):
    model, window, grid = MODELS[model_name]
    nu, threshold, trials, max_steps = RUNS[run]
    plan = TrialPlan(
        model=model, detector=detector, threshold=threshold,
        window=None if detector == "full-cusum" else window,
        grid=grid if detector == "wl-glr" else None,
        nu=nu, num_trials=trials, seed=5, max_steps=max_steps,
    )
    times, censored = run_trials(plan)
    with warnings.catch_warnings():  # censored trials are part of the record
        warnings.simplefilter("ignore", RuntimeWarning)
        estimate = (estimate_mtfa if math.isinf(nu) else estimate_add)(plan, (times, censored))
    return [times.tolist(), censored.tolist()], [estimate.mean, estimate.stderr]


def _stream(detector, model_name):
    # 60 pre-change then 140 post-change draws, stepped one at a time
    model, window, grid = MODELS[model_name]
    xs = model.sample_segment(np.random.default_rng(3), 61, 1, 200)
    det = {
        "wl-cusum": lambda: WlCusum(model, 5.0, window),
        "full-cusum": lambda: FullCusum(model, 5.0),
        "wl-glr": lambda: WlGlr(model, 5.0, window, grid),
        "sr": lambda: SrStatistic(model, 50.0),
    }[detector]()
    outs = [det.step(x) for x in xs]
    ints = [[o.k_star for o in outs], [o.time for o in outs if o.alarm]]
    floats = [o.statistic for o in outs] + [
        v for o in outs if o.theta_hat is not None for v in np.ravel(o.theta_hat)
    ]
    return ints, floats


def _long_stream(detector, model_name, nu=math.inf):
    # 3,000 steps: past GEM's first dead lag (888 at theta = 0.4) and past
    # numpy's 128-entry pairwise-sum block, so the SR sum takes its full shape.
    # nu = 2200 leaves 800 post-change steps, where the hypotheses that dominate
    # lie far from the newest but short of the lag at which GEM's terms overflow
    model = MODELS[model_name][0]
    xs = model.sample_segment(np.random.default_rng(4), nu, 1, 3000)
    det = {
        "wl-cusum": lambda: WlCusum(model, 5.0, 2000),
        "full-cusum": lambda: FullCusum(model, 5.0),
        "sr": lambda: SrStatistic(model, 50.0),
    }[detector]()
    outs, log_values = [], []
    for x in xs:
        outs.append(det.step(x))
        if detector == "sr":
            log_values.append(det.log_value)
    ints = [[o.k_star for o in outs], [o.time for o in outs if o.alarm]]
    return ints, [o.statistic for o in outs] + log_values


def _calibration():
    gem = GrowthCurve(MODELS["gem"][0])
    alphas = [1e-1, 1e-2, 1e-3, 1e-4, 1e-6]
    windows = [window_size(gem, a) for a in alphas]
    thresholds = [glr_threshold(a, 0.4, 1, 1.0) for a in alphas]
    return [windows], thresholds + [gem.growth_inverse(math.log(1e3))]


def _monitor_epi(tmp_path):
    argv = [
        "monitor-epi", "--input", str(REPO / "demos" / "data" / "synthetic_county.csv"),
        "--population", "1e6", "--start-date", "2020-07-01",
        "--theta-box", "0.1:5,1:20,0.1:5", "--out", str(tmp_path),
    ]
    assert cli.main(argv) == 0
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ints = [[int(r["k_star"]) for r in rows], [i for i, r in enumerate(rows) if r["alarm"] == "1"]]
    summary = json.loads((tmp_path / "monitor_summary.json").read_text())
    beta = summary["beta_fit"]
    floats = [summary["threshold"], *(beta[k] for k in ("a0", "b0", "mean", "variance"))] + [
        float(r[c]) for r in rows for c in ("statistic", "theta0", "theta1", "theta2") if r[c]
    ]
    return ints, floats


GEM_FLAGS = ["--model", "gem", "--mu0", "0.1", "--sigma0-sq", "1e4", "--theta", "0.4"]
DECAY_FLAGS = ["--model", "decay", "--mu1", "2", "--sigma-sq", "4", "--theta", "0.2"]
EPI_FLAGS = [
    "--input", str(REPO / "demos" / "data" / "synthetic_county.csv"), "--population", "1e6",
    "--start-date", "2020-07-01", "--theta-box", "0.1:5,1:20,0.1:5",
]
SIM_FLAGS = ["--workers", "1"]
CLI_CASES = {
    "cli-calibrate": ["calibrate", *GEM_FLAGS, "--alpha", "1e-3"],
    "cli-calibrate-glr": ["calibrate", *GEM_FLAGS, "--alpha", "1e-3", "--theta-box", "0:0.5",
                          "--epsilon", "5.5"],
    "cli-calibrate-decay": ["calibrate", *DECAY_FLAGS, "--alpha", "1e-3"],
    "cli-simulate-oc-wl-cusum": ["simulate-oc", *GEM_FLAGS, "--alphas", "1e-1,1e-2", "--nu", "1",
                                 "--trials", "10", "--seed", "3", *SIM_FLAGS],
    "cli-simulate-oc-wl-glr": ["simulate-oc", *GEM_FLAGS, "--detector", "wl-glr",
                               "--theta-box", "0:0.5", "--alphas", "1e-1,1e-2", "--nu", "1",
                               "--trials", "6", "--seed", "3", *SIM_FLAGS],
    "cli-simulate-qq": ["simulate-qq", *GEM_FLAGS, "--threshold", repr(math.log(20.0)),
                        "--window", "25", "--trials", "120", "--seed", "2", *SIM_FLAGS],
    "cli-estimate-mtfa": ["estimate-mtfa", *GEM_FLAGS, "--alpha", "1e-2", "--window", "25",
                          "--trials", "6", "--seed", "1", "--max-steps", "300", *SIM_FLAGS],
    "cli-estimate-add": ["estimate-add", *GEM_FLAGS, "--alpha", "1e-2", "--nu", "1",
                         "--window", "10", "--trials", "8", "--seed", "5", *SIM_FLAGS],
    "cli-estimate-add-decay": ["estimate-add", *DECAY_FLAGS, "--alpha", "1e-3", "--nu", "5",
                               "--trials", "8", "--seed", "5", *SIM_FLAGS],
    "cli-diagnostics-gem": ["diagnostics", *GEM_FLAGS, "--x-max", "50", "--n-max", "20"],
    "cli-monitor-epi": ["monitor-epi", *EPI_FLAGS],
    "cli-fit-epi": ["fit-epi", *EPI_FLAGS, "--restarts", "3"],
}


def _cli_outputs(name, out_dir):
    """Digest of the stdout and of each output file (but the manifest) of one CLI run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # censored MTFA trials are expected
        code = cli.main([*CLI_CASES[name], "--out", str(out_dir)])
    assert code == 0, f"{name} exited with {code}"
    digests = {"stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()[:16]}
    for path in sorted(out_dir.iterdir()):
        if path.name != "run_manifest.json":
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    return digests


def _cli_flags():
    """Digest of each subcommand's options: strings, dest, default, required, choices.

    --workers defaults to the machine's core count, so the parser is built as
    on a 2-core machine.
    """
    with mock.patch("os.cpu_count", return_value=2):
        parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: _digest([
            [a.option_strings, a.dest, a.default, a.required, a.choices]
            for a in sub._actions
        ])
        for command, sub in subparsers.choices.items()
    }


CASES = {
    **{
        f"trials-{d}-{m}-{r}": (lambda d=d, m=m, r=r: _trials(d, m, r))
        for d in ("wl-cusum", "full-cusum", "wl-glr") for m in MODELS for r in RUNS
    },
    **{
        f"stream-{d}-{m}": (lambda d=d, m=m: _stream(d, m))
        for d in ("wl-cusum", "full-cusum", "wl-glr", "sr") for m in MODELS
    },
    **{
        f"long-{d}-{m}": (lambda d=d, m=m: _long_stream(d, m))
        for d, m in (("full-cusum", "gem"), ("sr", "gem"), ("wl-cusum", "gem"),
                     ("full-cusum", "decay"), ("sr", "decay"))
    },
    **{
        f"long-{d}-gem-change": (lambda d=d: _long_stream(d, "gem", nu=2200))
        for d in ("full-cusum", "sr")
    },
    "calibration-gem": _calibration,
}


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


def _digests(ints, floats) -> dict:
    return {"ints": _digest(ints), "floats": _digest([repr(float(v)) for v in floats])}


def _compute(name, tmp_path):
    if name == "monitor-epi":
        return _digests(*_monitor_epi(tmp_path))
    if name in CLI_CASES:
        return _cli_outputs(name, tmp_path)
    return _digests(*CASES[name]())


NAMES = [*CASES, "monitor-epi"]


@pytest.fixture(scope="module")
def frozen():
    return json.loads(GOLDEN.read_text())


def _float_platform() -> str:
    """numpy's version and the SIMD targets it dispatches to on this CPU, which a
    float digest rests on: the ones found here, and those of its float64 exp,
    log and power loops."""
    try:
        from numpy.lib.introspect import opt_func_info  # numpy >= 2.0
    except ImportError:
        return f"numpy {np.__version__}"
    loops = opt_func_info(func_name="^(exp|log|power)$", signature="^float64")
    current = ", ".join(f"{f} {v['current']}" for f, sigs in loops.items() for v in sigs.values())
    found = " ".join(np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found", []))
    return f"numpy {np.__version__}, SIMD targets found: {found or 'none'}; loops: {current}"


def _platforms() -> str:
    """Where the float digests were frozen and where they ran, for a failure message."""
    return f"frozen under {PLATFORM.read_text().strip()}; this machine {_float_platform()}"


@pytest.mark.parametrize("name", NAMES)
def test_digests_unchanged(name, frozen, tmp_path):
    got = _compute(name, tmp_path)
    assert got["ints"] == frozen[name]["ints"], "integer outputs changed"
    assert got["floats"] == frozen[name]["floats"], f"float outputs changed ({_platforms()})"


@pytest.mark.parametrize("name", CLI_CASES)
def test_cli_outputs_unchanged(name, frozen, tmp_path):
    got = _compute(name, tmp_path)
    assert got == frozen[name], f"outputs changed ({_platforms()})"


def test_cli_flags_unchanged(frozen):
    assert _cli_flags() == frozen["cli-flags"]


def _on_avx2_loops(code: str) -> str:
    """The stdout of code run in a fresh interpreter whose numpy skips its
    AVX-512 loops, as on a CPU without AVX-512."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO / "tests")]),
           "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_integer_digests_hold_on_avx2_loops(frozen):
    """Every integer digest holds when numpy skips its AVX-512 loops, as on a
    CPU without AVX-512. The float digests do not yet: those loops round exp,
    power and log differently from the AVX2 ones."""
    code = ("import json, sys, tempfile; from pathlib import Path; import test_golden as g\n"
            "with tempfile.TemporaryDirectory() as tmp:\n"
            "    print(json.dumps({n: g._compute(n, Path(tmp))['ints'] for n in g.NAMES}))")
    last = _on_avx2_loops(code).splitlines()[-1]  # monitor-epi prints its summary first
    assert json.loads(last) == {name: frozen[name]["ints"] for name in NAMES}


def test_block_drawer_equals_sample_segment_on_avx2_loops():
    """The AVX2 loops' tail handling, in the drawer's block-wide multiply-add or
    its one-shot mean table, must not part its draws from per-row ones either."""
    assert _on_avx2_loops("import test_models as t; print(t._drawer_mismatches())") == "[]\n"


def test_every_frozen_case_still_runs(frozen):
    assert sorted(frozen) == sorted([*NAMES, *CLI_CASES, "cli-flags"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {}
        for name in [*NAMES, *CLI_CASES]:
            out_dir = Path(tmp) / name  # each CLI case hashes every file of its own directory
            out_dir.mkdir()
            table[name] = _compute(name, out_dir)
        table["cli-flags"] = _cli_flags()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    PLATFORM.write_text(_float_platform() + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}, frozen under {_float_platform()}")
