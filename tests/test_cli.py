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

from wlcusum.cli import main
from wlcusum.models import wave_multiplier

REPO = Path(__file__).resolve().parents[1]
COUNTY_THETA = (0.464, 3.894, 0.445)
GEM = ["--model", "gem", "--mu0", "0.1", "--sigma0-sq", "1e4", "--theta", "0.4"]


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


class TestEstimateMtfa:
    def test_small_alpha_needs_force(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["estimate-mtfa", *GEM, "--alpha", "1e-5", "--window", "25",
                     "--trials", "5", "--seed", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "--force" in err
        assert not any(out.iterdir())  # nothing half-written

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
        # the county wave's drift ends near 96.29, below the default --x-max of 100
        out = tmp_path / "out"
        code, _, err = _run(
            capsys,
            ["diagnostics", "--model", "betawave", "--a0", "20.6", "--b0", "2.94e5",
             "--theta0", "0.464", "--theta1", "3.894", "--theta2", "0.445",
             "--out", str(out)],
        )
        assert code == 1
        assert "at n=128 with g=96.28531887763782; the target exceeds the total drift" in err
        assert not any(out.iterdir())


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
