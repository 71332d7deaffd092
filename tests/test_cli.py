"""End-to-end command-line runs, in process via main(argv)."""

import csv
import json
import math
import shlex
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from test_golden import EPI_FLAGS

from wlcusum import cli
from wlcusum.cli import main
from wlcusum.models import wave_multiplier

REPO = Path(__file__).resolve().parents[1]
COUNTY_THETA = (0.464, 3.894, 0.445)
GEM = ["--model", "gem", "--mu0", "0.1", "--sigma0-sq", "1e4", "--theta", "0.4"]
SYNTHETIC_COUNTY = ["--input", str(REPO / "demos" / "data" / "synthetic_county.csv"),
                    "--population", "1e6", "--start-date", "2020-07-01",
                    "--theta-box", "0.1:5,1:20,0.1:5"]


def _case_csv(path, *, days=90, onset=50, seed=2020, noiseless_post=False):
    rng = np.random.default_rng(seed)
    a0, b0 = 20.6, 2.94e5
    pre = rng.beta(a0, b0, onset)
    lags = np.arange(days - onset, dtype=float)
    h = wave_multiplier(COUNTY_THETA, lags)
    post = a0 * h / (a0 * h + b0) if noiseless_post else rng.beta(a0 * h, b0)
    counts = np.round(np.r_[pre, post] * 1e6).astype(int)
    lines = ["date,cases"] + [
        f"{date(2020, 6, 1) + timedelta(days=i)},{c}" for i, c in enumerate(counts)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


ONSET_DATE = (date(2020, 6, 1) + timedelta(days=50)).isoformat()  # 2020-07-21


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if code == 0 else None
    return code, payload, captured.err


def _reference_csv(path, header, columns):
    """The cell rule applied cell by cell through csv.writer."""
    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return int(v)
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return v  # csv writes None as a blank and str() of the rest

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*[[cell(v) for v in column] for column in columns]))


NEG_ZERO, NAN = -0.0, math.nan


@pytest.mark.parametrize("text", ["plain", "a,b", 'say "hi"', "two\nlines", "cr\r"])
def test_write_csv_applies_the_cell_rule_to_every_cell(tmp_path, text):
    # repeated objects (0.0 and -0.0 among them) take the per-object memo; equal
    # values of different types must keep their own text
    columns = [
        [0.0, NEG_ZERO, 0.0, NEG_ZERO, NAN, math.inf, -math.inf, NAN],
        [1, 1.0, True, np.float64(NEG_ZERO), np.bool_(True), None, date(2020, 6, 1), text],
        [1.0, 1, 1.0, 1, True, True, np.float64(1.0), np.float64(1.0)],
        np.array([0.0, -0.0, 0.1, 1e300, 5e-324, -np.inf, np.nan, 0.0]),
        np.array([True, False, True, True, False, False, True, False]),
        [np.bool_(False), np.bool_(True)] * 4,
        [None, text] * 4,
        list(range(253, 261)),  # small ints are shared objects, larger ones not
        np.arange(8, dtype=np.int64) * 10**12,
    ]
    header = [f"c{i}" for i in range(len(columns))]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    written = []
    cli._write_csv(got, header, columns, written)
    _reference_csv(want, header, columns)
    assert got.read_bytes() == want.read_bytes()
    assert written == [got]


def test_write_csv_one_column_quotes_a_blank_row_as_csv_does(tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    cli._write_csv(got, ["x"], [[None, -0.0, None]], [])
    _reference_csv(want, ["x"], [[None, -0.0, None]])
    assert got.read_bytes() == want.read_bytes() == b'x\r\n""\r\n-0.0\r\n""\r\n'


class TestCalibrate:
    def test_cusum_threshold_and_window(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, payload, _ = _run(
            capsys, ["calibrate", *GEM, "--alpha", "1e-3", "--out", str(out)]
        )
        assert code == 0
        assert payload["b"] == 6.907755278982137
        assert payload["m"] == 23
        assert payload["epsilon"] is None
        assert (out / "calibrate.json").exists()
        assert (out / "run_manifest.json").exists()
        assert json.loads((out / "calibrate.json").read_text()) == payload

    def test_glr_threshold_with_box(self, tmp_path, capsys):
        code, payload, _ = _run(
            capsys,
            ["calibrate", *GEM, "--alpha", "1e-3", "--theta-box", "0:0.5",
             "--epsilon", "5.5", "--out", str(tmp_path / "out")],
        )
        assert code == 0
        assert payload["b"] == pytest.approx(13.72414101861043, rel=1e-14)
        assert abs(payload["residual"]) < 1e-9

    def test_betawave_needs_explicit_window(self, tmp_path, capsys):
        beta = ["calibrate", "--model", "betawave", "--a0", "20.6", "--b0", "2.94e5",
                "--theta0", "0.464", "--theta1", "3.894", "--theta2", "0.445",
                "--alpha", "1e-3"]
        out = tmp_path / "out"
        code, _, err = _run(capsys, beta + ["--out", str(out)])
        assert code == 1
        assert "--window" in err
        assert not any(out.iterdir())
        code, payload, _ = _run(capsys, beta + ["--window", "20", "--out", str(tmp_path / "w")])
        assert code == 0
        assert payload["m"] == 20

    def test_manifest_contents(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = _run(capsys, ["calibrate", *GEM, "--alpha", "1e-2", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "calibrate"
        assert "calibrate.json" in manifest["outputs"]
        assert "numpy" in manifest["versions"]
        assert manifest["config"]["alpha"] == 1e-2


class TestArgumentErrors:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", *GEM, "--alpha", "1e-3", "--bogus", "1"])
        assert exc.value.code == 2

    def test_missing_seed_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate-oc", *GEM, "--alphas", "1e-2", "--nu", "1"])
        assert exc.value.code == 2

    def test_bad_box_syntax_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", *GEM, "--alpha", "1e-3", "--theta-box", "5:0.1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["calibrate", *GEM, "--alpha", "1e-3", "--theta-box", "5:0.1"],
         "argument --theta-box: expected comma-separated lo:hi pairs (lo < hi) like "
         "'0.1:5,1:20,0.1:5', got '5:0.1'"),
        (["simulate-oc", *GEM, "--alphas", "1e-2", "--nu", "1", "--seed", "1",
          "--grid-counts", "0"],
         "argument --grid-counts: expected comma-separated positive integers like "
         "'10,10,10', got '0'"),
        (["simulate-oc", *GEM, "--alphas", "x", "--nu", "1", "--seed", "1"],
         "argument --alphas: expected comma-separated numbers like '1e-2,1e-3', got 'x'"),
    ])
    def test_bad_list_value_message(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_missing_model_parameter_is_runtime_error(self, tmp_path, capsys):
        code = main(["calibrate", "--model", "gem", "--mu0", "0.1", "--theta", "0.4",
                     "--alpha", "1e-3", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "sigma0-sq" in err

    @pytest.mark.parametrize("argv", [
        ["estimate-add", *GEM, "--nu", "1", "--window", "5"],
        ["estimate-mtfa", *GEM, "--window", "5"],
        ["simulate-qq", *GEM, "--window", "5"],
        ["monitor-epi", *SYNTHETIC_COUNTY, "--grid-counts", "2"],
        # with no --window the window is sized at e^-b: b is refused before that
        pytest.param(["estimate-add", *GEM, "--nu", "1"], id="estimate-add-sized-window"),
        pytest.param(["estimate-mtfa", *GEM], id="estimate-mtfa-sized-window"),
        pytest.param(["simulate-qq", *GEM], id="simulate-qq-sized-window"),
    ], ids=lambda argv: argv[0])
    def test_nan_threshold_is_refused(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        seed = [] if argv[0] == "monitor-epi" else ["--seed", "1", "--workers", "1"]
        code, _, err = _run(capsys, [*argv, "--threshold", "nan", *seed, "--out", str(out)])
        assert code == 1
        assert "error: threshold must be a number or +-inf, got nan" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv, code, message", [
        (["estimate-add", *GEM, "--nu", "1", "--alpha", "1e-2", "--detector", "wl-glr"], 1,
         "error: detector 'wl-glr' requires --theta-box"),
        (["estimate-add", *GEM, "--nu", "1", "--alpha", "1e-2", "--detector", "wl-glr",
          "--theta-box", "0.1:1,0.1:1"], 1,
         "error: --theta-box must give 1 lo:hi pairs for model 'gem', got 2"),
        (["estimate-add", *GEM, "--nu", "1", "--window", "5"], 1,
         "error: need --threshold or --alpha to set the detection threshold"),
        (["simulate-qq", *GEM, "--threshold", "1e9", "--window", "5", "--max-steps", "10",
          "--trials", "5"], 1, "error: only 0 of 5 trials alarmed before the step cap"),
        (["monitor-epi", *SYNTHETIC_COUNTY, "--prechange-days", "40"], 1,
         "error: --start-date needs 40 smoothed days before it for the pre-change fit"),
        (["fit-epi", *SYNTHETIC_COUNTY, "--end-date", "2020-06-30"], 1,
         "error: --end-date must not precede --start-date"),
        (["fit-epi", *SYNTHETIC_COUNTY, "--end-date", "2020-06-31"], 2,
         "argument --end-date: expected an ISO date like 2020-06-01, got '2020-06-31'"),
        (["fit-epi", *EPI_FLAGS, "--seed", "-3"], 1, "error: seed must be an integer >= 0, got -3"),
        # a descent never shrinks its sum by less than a tol <= 0: it would never converge
        (["fit-epi", *EPI_FLAGS, "--tol", "0"], 1, "error: tol must lie in (0, inf), got 0.0"),
        (["diagnostics", *GEM, "--shift-max", "0", "--n-max", "5", "--x-max", "10"], 1,
         "error: shift_max must be a whole number >= 1, got 0"),
        # every trial would stop before the change: the delays would be negative
        (["estimate-add", *GEM, "--alpha", "1e-2", "--nu", "1000", "--max-steps", "10",
          "--trials", "5"], 1, "error: max_steps=10 ends before the change at nu=1000"),
        (["simulate-oc", *GEM, "--alphas", "1e-2", "--nu", "1000", "--max-steps", "10",
          "--trials", "5"], 1, "error: max_steps=10 ends before the change at nu=1000"),
        (["estimate-add", "--model", "decay", "--mu1", "inf", "--sigma-sq", "4", "--theta",
          "0.2", "--alpha", "1e-3", "--nu", "1"], 1, "error: mu1 must lie in (0, inf), got inf"),
        (["fit-epi", *EPI_FLAGS, "--theta-box", "0.1:inf,1:20,0.1:5"], 1,
         "error: theta0 must lie in [0, inf), got inf"),
        *[([command, *GEM, *nu, "--detector", "full-cusum", "--window", "5"], 1,
           "error: full-cusum reads every hypothesis, got window 5")
          for command, nu in [("estimate-add", ["--nu", "1", "--alpha", "1e-2"]),
                              ("estimate-mtfa", ["--alpha", "1e-2"]),
                              ("simulate-qq", ["--alpha", "1e-2"]),
                              ("simulate-oc", ["--nu", "1", "--alphas", "1e-2"])]],
    ], ids=["glr-without-box", "box-dimension", "no-threshold", "qq-too-few-alarms",
            "too-few-prechange-days", "end-before-start", "bad-iso-date", "fit-epi-negative-seed",
            "fit-epi-zero-tol", "diagnostics-zero-shift-max", "estimate-add-cap-before-change",
            "simulate-oc-cap-before-change", "estimate-add-infinite-parameter",
            "fit-epi-infinite-box-end", "estimate-add-full-cusum-window",
            "estimate-mtfa-full-cusum-window", "simulate-qq-full-cusum-window",
            "simulate-oc-full-cusum-window"])
    def test_refusal_exit_code_and_message(self, argv, code, message, tmp_path, capsys):
        seedless = argv[0].endswith("-epi") or argv[0] == "diagnostics"
        seed = [] if seedless else ["--seed", "1", "--workers", "1"]
        out = tmp_path / "out"
        try:
            got = main([*argv, *seed, "--out", str(out)])
        except SystemExit as exc:
            got = exc.code
        assert got == code
        assert message in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("model, message", [
        (["--model", "decay", "--mu1", "inf", "--sigma-sq", "4", "--theta", "0.2"],
         "error: mu1 must lie in (0, inf), got inf"),
        (["--model", "gem", "--mu0", "0.1", "--sigma0-sq", "1e4", "--theta", "nan"],
         "error: theta must lie in (0, inf), got nan"),
    ], ids=["decay-infinite-mu1", "gem-nan-theta"])
    def test_calibrate_refuses_a_parameter_out_of_range(self, model, message, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = _run(capsys, ["calibrate", *model, "--alpha", "1e-3", "--out", str(out)])
        assert code == 1 and message in err
        assert list(out.iterdir()) == []

    def test_failed_run_removes_its_partial_outputs(self, tmp_path, capsys):
        # the trials table is written first; the summary cannot be, as a directory holds its name
        out = tmp_path / "out"
        (out / "add_summary.json").mkdir(parents=True)
        code, _, err = _run(capsys, ["estimate-add", *GEM, "--nu", "1", "--alpha", "1e-2",
                                     "--window", "5", "--trials", "4", "--seed", "1",
                                     "--workers", "1", "--out", str(out)])
        assert code == 1
        assert err.startswith("error: ") and "add_summary.json" in err
        assert [p.name for p in out.iterdir()] == ["add_summary.json"]



@pytest.fixture
def fresh_parser():
    """main's cached parser cleared before and after, so a patched build stays in the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


@pytest.mark.usefixtures("fresh_parser")
class TestParserReuse:
    def test_one_build_serves_every_call(self, tmp_path, capsys, monkeypatch):
        builds, build = [], cli.build_parser

        def counting_build():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        code, _, _ = _run(capsys, ["calibrate", *GEM, "--alpha", "1e-3",
                                   "--out", str(tmp_path / "out")])
        assert code == 0
        code, _, err = _run(capsys, ["estimate-mtfa", *GEM, "--alpha", "1e-5", "--window", "25",
                                     "--trials", "5", "--seed", "1",
                                     "--out", str(tmp_path / "mtfa")])
        assert code == 1 and "--force" in err
        with pytest.raises(SystemExit) as exc:
            main(["simulate-oc", *GEM, "--alphas", "1e-2", "--nu", "1"])
        assert exc.value.code == 2
        assert len(builds) == 1

    def test_a_usage_error_leaves_no_state(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["calibrate", *GEM, "--alpha", "1e-3", "--theta-box", "0:0.5",
                "--epsilon", "5.5", "--out", str(out)]
        assert main(argv) == 0  # on a fresh parser
        want = capsys.readouterr().out, json.loads((out / "run_manifest.json").read_text())
        cli._parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", *GEM, "--alpha", "1e-3", "--theta-box", "5:0.1"])
        assert exc.value.code == 2
        capsys.readouterr()
        (out / "run_manifest.json").unlink()
        assert main(argv) == 0  # on the parser that just refused a box
        got = capsys.readouterr().out, json.loads((out / "run_manifest.json").read_text())
        assert got[0] == want[0]
        assert got[1]["config"] == want[1]["config"]

    def test_workers_default_reads_the_core_count(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        out = tmp_path / "out"
        code, _, err = _run(capsys, ["estimate-mtfa", *GEM, "--alpha", "1e-2", "--window", "25",
                                     "--trials", "2", "--seed", "1", "--out", str(out)])
        assert code == 0, err
        assert json.loads((out / "run_manifest.json").read_text())["config"]["workers"] == 2


class TestEstimateMtfa:
    def test_small_alpha_needs_force(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["estimate-mtfa", *GEM, "--alpha", "1e-5", "--window", "25",
                     "--trials", "5", "--seed", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "--force" in err
        assert not any(out.iterdir())  # nothing half-written

    def test_threshold_sets_the_cost_over_alpha(self, tmp_path, capsys):
        # --threshold overrides --alpha: b = 20 is e^-20 = 2.06e-9 whatever --alpha says
        argv = ["estimate-mtfa", *GEM, "--alpha", "1e-2", "--window", "25", "--trials", "2",
                "--seed", "1", "--max-steps", "50"]
        code, _, err = _run(capsys, [*argv, "--threshold", "20", "--out", str(tmp_path / "a")])
        assert code == 1
        assert "alpha=2.06e-09" in err and "--force" in err
        with pytest.warns(RuntimeWarning, match="false-alarm trials hit the step cap"):
            code, payload, _ = _run(capsys, [*argv, "--threshold", "3", "--out",
                                             str(tmp_path / "b")])
        assert code == 0
        assert payload["target_lower_bound"] == math.exp(3.0)

    def test_forced_small_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="false-alarm trials hit the step cap"):
            code, payload, _ = _run(
                capsys,
                ["estimate-mtfa", *GEM, "--alpha", "1e-2", "--window", "25",
                 "--trials", "6", "--seed", "1", "--max-steps", "300",
                 "--workers", "1", "--out", str(out)],
            )
        assert code == 0
        assert payload["target_lower_bound"] == pytest.approx(100.0)
        trials = (out / "mtfa_trials.csv").read_text().splitlines()
        assert len(trials) == 7  # header + one row per trial
        assert (out / "mtfa_summary.json").exists()

    def test_threshold_past_where_e_to_the_minus_b_underflows(self, tmp_path, capsys):
        # e^-b is 0.0 past b = 745: the cost and the target come from e^b instead
        argv = ["estimate-mtfa", *GEM, "--window", "5", "--trials", "2", "--seed", "1",
                "--workers", "1"]
        for b in ("800", "inf"):
            code, _, err = _run(capsys, [*argv, "--threshold", b, "--out", str(tmp_path / b)])
            assert code == 1
            assert "alpha=0 needs on the order of inf observations" in err and "--force" in err
        with pytest.warns(RuntimeWarning, match="false-alarm trials hit the step cap"):
            code, payload, _ = _run(capsys, [*argv, "--threshold", "800", "--force",
                                             "--max-steps", "10", "--out", str(tmp_path / "f")])
        assert code == 0 and payload["target_lower_bound"] is None  # e^800 overflows
        assert payload["mtfa"]["mean"] == 10.0

    def test_writes_strict_json(self, tmp_path, capsys):
        # one trial has no standard error: +inf, which strict JSON writes as null
        out = tmp_path / "out"
        code, payload, _ = _run(capsys, ["estimate-mtfa", *GEM, "--alpha", "1e-2", "--window",
                                         "25", "--trials", "1", "--seed", "1", "--workers", "1",
                                         "--out", str(out)])
        assert code == 0 and payload["mtfa"]["stderr"] is None
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{c} in {path}"))


class TestSimulateOc:
    def test_runs_are_reproducible(self, tmp_path, capsys):
        args = ["simulate-oc", *GEM, "--alphas", "1e-1,1e-2", "--nu", "1",
                "--trials", "15", "--seed", "7", "--workers", "1"]
        code1, _, _ = _run(capsys, args + ["--out", str(tmp_path / "a")])
        code2, _, _ = _run(capsys, args + ["--out", str(tmp_path / "b")])
        assert code1 == code2 == 0
        assert (tmp_path / "a/oc.csv").read_bytes() == (tmp_path / "b/oc.csv").read_bytes()
        manifest = json.loads((tmp_path / "a/run_manifest.json").read_text())
        assert manifest["config"]["seed"] == 7

    def test_summary_tracks_alphas(self, tmp_path, capsys):
        code, payload, _ = _run(
            capsys,
            ["simulate-oc", *GEM, "--alphas", "1e-1,1e-2", "--nu", "1",
             "--trials", "10", "--seed", "3", "--workers", "1",
             "--out", str(tmp_path / "out")],
        )
        assert code == 0
        assert [row["alpha"] for row in payload["rows"]] == [1e-1, 1e-2]
        assert payload["rows"][0]["delay"]["mean"] <= payload["rows"][1]["delay"]["mean"]
        rows = _read_csv(tmp_path / "out/oc.csv")
        assert list(rows[0]) == ["alpha", "threshold", "window", "delay_mean", "delay_stderr",
                                 "num_uncensored", "censor_rate"]
        assert len(rows) == 2  # one row per alpha
        for row, want in zip(rows, payload["rows"]):
            delay = want["delay"]
            assert float(row["alpha"]) == want["alpha"]
            assert float(row["threshold"]) == want["threshold"]
            assert int(row["window"]) == want["window"]
            assert float(row["delay_mean"]) == delay["mean"]
            assert float(row["delay_stderr"]) == delay["stderr"]
            assert int(row["num_uncensored"]) == delay["num_uncensored"]
            assert float(row["censor_rate"]) == delay["censor_rate"]

    def test_glr_on_scalar_parameter_model(self, tmp_path, capsys):
        code, payload, err = _run(
            capsys,
            ["simulate-oc", *GEM, "--detector", "wl-glr", "--theta-box", "0:0.5",
             "--alphas", "1e-1,1e-2", "--nu", "1", "--trials", "6", "--seed", "3",
             "--workers", "1", "--out", str(tmp_path / "out")],
        )
        assert code == 0, err
        assert [row["alpha"] for row in payload["rows"]] == [1e-1, 1e-2]
        assert all(row["delay"]["num_uncensored"] == 6 for row in payload["rows"])

    def test_betawave_needs_explicit_window(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = _run(
            capsys,
            ["simulate-oc", "--model", "betawave", "--a0", "20.6", "--b0", "2.94e5",
             "--theta0", "0.464", "--theta1", "3.894", "--theta2", "0.445",
             "--detector", "wl-glr", "--theta-box", "0.1:5,1:20,0.1:5",
             "--alphas", "1e-1", "--nu", "1", "--trials", "4", "--seed", "3",
             "--workers", "1", "--out", str(out)],
        )
        assert code == 1
        assert "--window" in err
        assert not any(out.iterdir())


class TestEstimateAdd:
    def test_per_trial_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, payload, _ = _run(
            capsys,
            ["estimate-add", *GEM, "--alpha", "1e-2", "--nu", "1", "--window", "10",
             "--trials", "8", "--seed", "5", "--workers", "1", "--out", str(out)],
        )
        assert code == 0
        rows = (out / "add_trials.csv").read_text().splitlines()
        assert len(rows) == 9
        assert payload["add"]["mean"] > 1.0
        assert payload["add"]["num_false_starts"] == 0

    def test_glr_on_scalar_parameter_model(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, payload, err = _run(
            capsys,
            ["estimate-add", *GEM, "--detector", "wl-glr", "--theta-box", "0:0.5",
             "--alpha", "1e-2", "--nu", "1", "--trials", "6", "--seed", "3",
             "--workers", "1", "--out", str(out)],
        )
        assert code == 0, err
        assert len((out / "add_trials.csv").read_text().splitlines()) == 7
        assert payload["add"]["num_uncensored"] == 6


class TestSimulateQq:
    def test_summary_and_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, payload, _ = _run(
            capsys,
            ["simulate-qq", *GEM, "--threshold", str(math.log(20)), "--window", "25",
             "--trials", "120", "--seed", "2", "--workers", "1", "--out", str(out)],
        )
        assert code == 0
        assert payload["correlation"] > 0.9
        qq = (out / "qq.csv").read_text().splitlines()
        assert qq[0] == "prob,theoretical,empirical"
        assert len(qq) == 100  # header + 99 percentiles
        rows = _read_csv(out / "qq.csv")
        probs = [float(r["prob"]) for r in rows]
        assert probs == [k / 100.0 for k in range(1, 100)]
        theoretical = [float(r["theoretical"]) for r in rows]
        empirical = [float(r["empirical"]) for r in rows]
        assert theoretical == list(stats.geom.ppf(probs, payload["p_hat"]))
        assert np.corrcoef(theoretical, empirical)[0, 1] == payload["correlation"]


class TestDiagnostics:
    def test_reports_written(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, payload, _ = _run(
            capsys, ["diagnostics", *GEM, "--x-max", "50", "--n-max", "20",
                     "--out", str(out)]
        )
        assert code == 0
        assert payload["growth_condition"]["satisfied"] is True
        assert (out / "growth_condition.csv").exists()
        assert (out / "lemma1.csv").exists()
        lemma = (out / "lemma1.csv").read_text().splitlines()
        assert len(lemma) == 20  # header + n = 2..20

    def test_overflowing_rows_dropped_and_counted(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, payload, err = _run(
            capsys, ["diagnostics", *GEM, "--x-max", "1e3", "--n-max", "1000",
                     "--out", str(out)]
        )
        assert code == 0, err
        summary = json.loads((out / "diagnostics.json").read_text(),
                             parse_constant=lambda c: pytest.fail(f"{c} in diagnostics.json"))
        assert summary["variance_ratio_rows_dropped"] == 1000 - 462
        assert summary["time_shift_pinned_lags"] == 112
        assert 0.0 < summary["variance_ratio_range"][0] <= summary["variance_ratio_range"][1]
        rows = (out / "lemma1.csv").read_text().splitlines()
        assert len(rows) == 462  # header + n = 2..462
        assert not any("nan" in r or r.endswith(",0.0") for r in rows)

    def test_betawave_reports_written(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="growth evaluated past the wave peak"):
            code, _, err = _run(
                capsys,
                ["diagnostics", "--model", "betawave", "--a0", "20.6", "--b0", "2.94e5",
                 "--theta0", "0.464", "--theta1", "3.894", "--theta2", "0.445",
                 "--x-max", "50", "--n-max", "50", "--out", str(out)],
            )
        assert code == 0, err
        assert len((out / "lemma1.csv").read_text().splitlines()) == 50  # header + 49

    def test_betawave_default_x_max_fails_fast(self, tmp_path, capsys):
        # the county wave's drift ends near 96.29, below the default --x-max of 100:
        # the grid stops before the first x past it and the condition fails
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="past the wave peak"):
            code, payload, err = _run(
                capsys,
                ["diagnostics", "--model", "betawave", "--a0", "20.6", "--b0", "2.94e5",
                 "--theta0", "0.464", "--theta1", "3.894", "--theta2", "0.445",
                 "--out", str(out)],
            )
        assert code == 0, err
        assert payload["growth_condition"] == {"satisfied": False, "x_max": 100.0}
        rows = _read_csv(out / "growth_condition.csv")
        assert len(rows) == 20
        assert float(rows[-1]["x"]) == pytest.approx(79.43, abs=0.005)


class TestMonitorEpi:
    def test_detects_wave_and_reruns_identically(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _case_csv(tmp_path / "cases.csv")
        args = ["monitor-epi", "--input", "cases.csv", "--population", "1e6",
                "--start-date", ONSET_DATE, "--theta-box", "0.1:5,1:20,0.1:5"]
        code, payload, _ = _run(capsys, args + ["--out", "out_a"])
        assert code == 0
        assert payload["first_alarm_index"] is not None
        assert payload["first_alarm_index"] <= 10  # alarm within ten days of onset
        alarm = date.fromisoformat(payload["first_alarm_date"])
        assert date.fromisoformat(ONSET_DATE) <= alarm
        traj = (tmp_path / "out_a/trajectory.csv").read_text().splitlines()
        assert traj[0] == "date,statistic,threshold,alarm,k_star,theta0,theta1,theta2"
        assert traj[1].startswith(ONSET_DATE)
        rows = _read_csv(tmp_path / "out_a/trajectory.csv")
        assert len(rows) == payload["num_days"]  # one row per monitored day
        assert all(float(r["threshold"]) == payload["threshold"] for r in rows)
        alarms = [i for i, r in enumerate(rows) if r["alarm"] == "1"]
        assert {r["alarm"] for r in rows} == {"0", "1"}
        assert alarms[0] == payload["first_alarm_index"]
        assert rows[alarms[0]]["date"] == payload["first_alarm_date"]
        assert all(float(r["statistic"]) >= payload["threshold"] for r in
                   (rows[i] for i in alarms))
        for r in rows:  # an estimate is three floats, or three blanks before any
            theta = [r[f"theta{i}"] for i in range(3)]
            assert theta == ["", "", ""] or all(math.isfinite(float(v)) for v in theta)

        code2, _, _ = _run(capsys, args + ["--out", "out_b"])
        assert code2 == 0
        assert (tmp_path / "out_a/trajectory.csv").read_bytes() == \
               (tmp_path / "out_b/trajectory.csv").read_bytes()
        # nothing written outside the chosen output directories
        assert {p.name for p in tmp_path.iterdir()} == {"cases.csv", "out_a", "out_b"}

    def test_one_grid_count_is_used_for_every_dimension(self, tmp_path, capsys):
        def trajectory(counts):
            out = tmp_path / counts.replace(",", "-")
            code, _, err = _run(capsys, ["monitor-epi", *SYNTHETIC_COUNTY,
                                         "--grid-counts", counts, "--out", str(out)])
            assert code == 0, err
            return (out / "trajectory.csv").read_bytes()

        assert trajectory("2") == trajectory("2,2,2")

    def test_grid_counts_of_the_wrong_length_fail(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = _run(capsys, ["monitor-epi", *SYNTHETIC_COUNTY,
                                     "--grid-counts", "2,2", "--out", str(out)])
        assert code == 1
        assert "--grid-counts needs 1 or 3 entries, got 2" in err
        assert not any(out.iterdir())

    def test_start_date_outside_series_fails_cleanly(self, tmp_path, capsys):
        _case_csv(tmp_path / "cases.csv")
        out = tmp_path / "out"
        code = main(["monitor-epi", "--input", str(tmp_path / "cases.csv"),
                     "--population", "1e6", "--start-date", "2021-01-01",
                     "--theta-box", "0.1:5,1:20,0.1:5", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert not any(out.iterdir())


class TestFitEpi:
    def test_recovers_wave_parameters(self, tmp_path, capsys):
        _case_csv(tmp_path / "cases.csv", noiseless_post=True)
        code, payload, _ = _run(
            capsys,
            ["fit-epi", "--input", str(tmp_path / "cases.csv"), "--population", "1e6",
             "--start-date", ONSET_DATE, "--ma-window", "1",
             "--theta-box", "0.1:5,1:20,0.1:5", "--restarts", "8",
             "--out", str(tmp_path / "out")],
        )
        assert code == 0
        fit = payload["wave_fit"]
        # theta0 absorbs the Beta-fit's amplitude noise; shape comes back tight
        assert fit["theta0"] == pytest.approx(COUNTY_THETA[0], rel=0.10)
        assert fit["theta1"] == pytest.approx(COUNTY_THETA[1], rel=0.05)
        assert fit["theta2"] == pytest.approx(COUNTY_THETA[2], rel=0.05)
        assert (tmp_path / "out/fit_summary.json").exists()


def _readme_commands():
    """The `wlcusum ...` command lines of the README's sh blocks, continuations joined."""
    readme = (REPO / "README.md").read_text()
    blocks = readme.split("```sh\n")[1:]
    text = "\n".join(block.split("```")[0] for block in blocks).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("wlcusum ")]


README_SUMMARIES = {"calibrate": "calibrate.json", "monitor-epi": "monitor_summary.json"}


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    commands = _readme_commands()
    assert [argv[0] for argv in commands] == list(README_SUMMARIES)
    monkeypatch.chdir(REPO)  # the README's input paths are relative to the repository
    for argv in commands:
        out = tmp_path / argv[0]
        argv[argv.index("--out") + 1] = str(out)
        code, payload, err = _run(capsys, argv)
        assert code == 0, err
        assert json.loads((out / README_SUMMARIES[argv[0]]).read_text()) == payload
