"""Case-count ingestion, Beta moment fits, wave-shape fitting, monitoring."""

import math
import re
from datetime import date, timedelta

import numpy as np
import pytest

from wlcusum import cli
from wlcusum.epidata import (
    BetaFit,
    CaseSeries,
    FractionSeries,
    fit_beta_prechange,
    fit_wave_shape,
    load_case_csv,
    monitor,
    to_fraction_series,
)
from wlcusum.models import wave_multiplier

COUNTY_THETA = (0.464, 3.894, 0.445)
COUNTY_BOX = ((0.1, 5.0), (1.0, 20.0), (0.1, 5.0))


def _write_csv(tmp_path, rows, header="date,cases"):
    path = tmp_path / "cases.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def _dates(n, start=date(2020, 6, 1)):
    return tuple(start + timedelta(days=i) for i in range(n))


def _fraction_series(values, start=date(2020, 6, 1)):
    values = np.asarray(values, dtype=float)
    return FractionSeries(
        dates=_dates(len(values), start), fractions=values, population=1e6
    )


def _wave_series(beta, theta, days):
    lags = np.arange(days, dtype=float)
    a1 = beta.a0 * wave_multiplier(theta, lags)
    return _fraction_series(a1 / (a1 + beta.b0))


def _beta(a0=20.6, b0=2.94e5):
    m = a0 / (a0 + b0)
    v = a0 * b0 / ((a0 + b0) ** 2 * (a0 + b0 + 1.0))
    return BetaFit(a0=a0, b0=b0, mean=m, variance=v,
                   start_date=date(2020, 6, 1), num_days=20)


class TestLoadCaseCsv:
    def test_daily_counts(self, tmp_path):
        path = _write_csv(tmp_path, ["2020-06-01,10", "2020-06-02,20", "2020-06-03,30"])
        series = load_case_csv(path, population=1000)
        np.testing.assert_allclose(series.counts, [10, 20, 30])
        assert series.dates[0] == date(2020, 6, 1)
        fr = to_fraction_series(series, window=1)
        np.testing.assert_allclose(fr.fractions, [0.01, 0.02, 0.03])

    def test_cumulative_counts_differenced(self, tmp_path):
        path = _write_csv(tmp_path, ["2020-06-01,10", "2020-06-02,30", "2020-06-03,60"])
        series = load_case_csv(path, population=1000, cumulative=True)
        np.testing.assert_allclose(series.counts, [10, 20, 30])

    def test_cumulative_dips_clamped_to_zero(self, tmp_path):
        # reporting corrections make cumulative counts dip; treat as no cases
        rows = ["2020-06-01,10", "2020-06-02,30", "2020-06-03,25", "2020-06-04,40"]
        series = load_case_csv(_write_csv(tmp_path, rows), population=1000, cumulative=True)
        np.testing.assert_allclose(series.counts, [10, 20, 0, 15])

    def test_blank_lines_skipped(self, tmp_path):
        path = _write_csv(tmp_path, ["2020-06-01,10", "", "2020-06-02,20", ""])
        series = load_case_csv(path, population=1000)
        assert len(series.counts) == 2

    def test_malformed_rows_reported_together(self, tmp_path):
        rows = ["2020-06-01,10", "not-a-date,5", "2020-06-03,many"]
        with pytest.raises(ValueError) as exc:
            load_case_csv(_write_csv(tmp_path, rows), population=1000)
        msg = str(exc.value)
        assert "line 3" in msg and "line 4" in msg

    def test_header_required(self, tmp_path):
        path = _write_csv(tmp_path, ["2020-06-01,10"], header="day,count")
        with pytest.raises(ValueError, match="header"):
            load_case_csv(path, population=1000)

    def test_header_case_insensitive(self, tmp_path):
        path = _write_csv(tmp_path, ["2020-06-01,10", "2020-06-02,4"], header="Date, Cases")
        series = load_case_csv(path, population=1000)
        assert len(series.counts) == 2

    def test_byte_order_mark_skipped(self, tmp_path):
        path = _write_csv(tmp_path, ["2020-06-01,10", "2020-06-02,4", "2020-06-03,7"])
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        plain = load_case_csv(path, population=1000, region="r")
        marked = load_case_csv(bom, population=1000, region="r")
        assert marked.dates == plain.dates
        assert marked.counts.tobytes() == plain.counts.tobytes()
        assert (marked.population, marked.region) == (plain.population, plain.region)

    # A well-formed file is read in one pass; any other file is read again row by
    # row, and these messages are that second reading's.

    def test_only_the_last_row_bad(self, tmp_path):
        path = _write_csv(tmp_path, ["2020-06-01,10", "2020-06-02,20", "2020-06-03,x"])
        with pytest.raises(ValueError) as exc:
            load_case_csv(path, population=1000)
        assert str(exc.value) == f"{path}: malformed rows: line 4: bad count 'x'"

    @pytest.mark.parametrize("row, fields", [("2020-06-02,5,6", 3), ("2020-06-02", 1)])
    def test_only_one_row_of_the_wrong_width(self, tmp_path, row, fields):
        path = _write_csv(tmp_path, ["2020-06-01,10", row, "2020-06-03,7"])
        with pytest.raises(ValueError) as exc:
            load_case_csv(path, population=1000)
        assert str(exc.value) == (f"{path}: malformed rows: "
                                  f"line 3: expected 2 fields, got {fields}")

    def test_bad_rows_after_blank_lines_keep_their_line_numbers(self, tmp_path):
        rows = ["2020-06-01,10", "", "   ", "2020-06-02,oops", " , ", "2020-06-03,5,6",
                "bad,1", "2020-06-05,-1", "2020-06-06,nan"]
        path = _write_csv(tmp_path, rows)
        with pytest.raises(ValueError) as exc:
            load_case_csv(path, population=1000)
        assert str(exc.value) == (
            f"{path}: malformed rows: line 5: bad count 'oops'; "
            "line 7: expected 2 fields, got 3; line 8: bad date 'bad'; "
            "line 9: count must be finite and >= 0, got '-1'; "
            "line 10: count must be finite and >= 0, got 'nan'")

    def test_one_pass_and_row_by_row_readings_agree(self, tmp_path):
        rows = ["2020-06-01, 10", "2020-06-02,2.5e1", " 2020-06-03,0", "2020-06-04,-0.0"]
        clean = load_case_csv(_write_csv(tmp_path, rows), population=1000, cumulative=True)
        blank = load_case_csv(_write_csv(tmp_path, [*rows, ""]), population=1000,
                              cumulative=True)  # a blank line: read row by row
        assert blank.dates == clean.dates
        assert blank.counts.tobytes() == clean.counts.tobytes()

    def test_a_late_date_out_of_order(self, tmp_path):
        rows = [f"2020-06-{d:02d},{d}" for d in range(1, 28)] + ["2020-06-26,3"]
        path = _write_csv(tmp_path, rows)
        with pytest.raises(ValueError) as exc:
            load_case_csv(path, population=1000)
        assert str(exc.value) == (f"{path}: dates must be strictly increasing "
                                  "(2020-06-27 then 2020-06-26)")

    def test_byte_order_mark_with_spaced_header_and_fields(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf Date , Cases \n2020-06-01, 10\n 2020-06-02 ,4\n")
        series = load_case_csv(path, population=1000)
        assert series.dates == (date(2020, 6, 1), date(2020, 6, 2))
        assert series.counts.tolist() == [10.0, 4.0]

    def test_dates_must_increase(self, tmp_path):
        rows = ["2020-06-02,10", "2020-06-01,20"]
        with pytest.raises(ValueError, match="increas"):
            load_case_csv(_write_csv(tmp_path, rows), population=1000)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError):
            load_case_csv(_write_csv(tmp_path, []), population=1000)

    def test_negative_daily_counts(self, tmp_path):
        with pytest.raises(ValueError):
            load_case_csv(_write_csv(tmp_path, ["2020-06-01,-3"]), population=1000)

    def test_population_positive(self, tmp_path):
        path = _write_csv(tmp_path, ["2020-06-01,10"])
        with pytest.raises(ValueError):
            load_case_csv(path, population=0)

    def test_region_carried(self, tmp_path):
        path = _write_csv(tmp_path, ["2020-06-01,10"])
        series = load_case_csv(path, population=1000, region="county-17")
        assert series.region == "county-17"


class TestFractionSeries:
    def test_moving_average(self):
        series = CaseSeries(dates=_dates(4), counts=np.array([10.0, 20.0, 30.0, 40.0]),
                            population=1e4)
        fr = to_fraction_series(series, window=4)
        np.testing.assert_allclose(fr.fractions, [0.0025])
        assert fr.dates == (date(2020, 6, 4),)

    def test_window_longer_than_series(self):
        series = CaseSeries(dates=_dates(3), counts=np.zeros(3), population=100)
        with pytest.raises(ValueError):
            to_fraction_series(series, window=4)

    def test_fraction_above_one_rejected(self):
        series = CaseSeries(dates=_dates(2), counts=np.array([250.0, 250.0]),
                            population=100)
        with pytest.raises(ValueError):
            to_fraction_series(series, window=1)

    def test_index_and_slice(self):
        fr = _fraction_series([0.1, 0.2, 0.3, 0.4])
        assert fr.index(date(2020, 6, 3)) == 2
        sub = fr.slice(1, 3)
        np.testing.assert_allclose(sub.fractions, [0.2, 0.3])
        assert sub.dates == (date(2020, 6, 2), date(2020, 6, 3))
        with pytest.raises(ValueError, match="2020-06-01"):
            fr.index(date(2019, 1, 1))


class TestFitBetaPrechange:
    def test_moment_formulas(self):
        y = [0.2, 0.25, 0.3, 0.35, 0.4]
        fit = fit_beta_prechange(_fraction_series(y), window_days=5)
        m = np.mean(y)
        v = np.var(y, ddof=1)
        c = m * (1 - m) / v - 1.0
        assert fit.a0 == pytest.approx(m * c, rel=1e-12)
        assert fit.b0 == pytest.approx((1 - m) * c, rel=1e-12)
        assert fit.mean == pytest.approx(m, rel=1e-15)
        assert fit.variance == pytest.approx(v, rel=1e-15)
        assert fit.num_days == 5
        assert fit.start_date == date(2020, 6, 1)

    def test_fitted_law_reproduces_moments(self):
        fit = fit_beta_prechange(_fraction_series([0.01, 0.013, 0.011, 0.012]),
                                 window_days=4)
        a, b = fit.a0, fit.b0
        assert a / (a + b) == pytest.approx(fit.mean, rel=1e-12)
        assert a * b / ((a + b) ** 2 * (a + b + 1)) == pytest.approx(fit.variance, rel=1e-12)

    def test_uses_last_window_only(self):
        y = [0.5, 0.9, 0.2, 0.25, 0.3, 0.35, 0.4]
        full = fit_beta_prechange(_fraction_series(y), window_days=5)
        tail = fit_beta_prechange(_fraction_series(y[-5:]), window_days=5)
        assert full.a0 == tail.a0 and full.b0 == tail.b0

    def test_symmetric_window_gives_equal_shapes(self):
        fit = fit_beta_prechange(_fraction_series([0.45, 0.55, 0.4, 0.6]), window_days=4)
        assert fit.a0 == pytest.approx(fit.b0, rel=1e-12)

    def test_recovers_simulated_parameters(self):
        rng = np.random.default_rng(42)
        y = rng.beta(20.6, 2.94e5, 2000)
        fit = fit_beta_prechange(_fraction_series(y), window_days=2000)
        assert fit.a0 == pytest.approx(20.6, rel=0.15)
        assert fit.b0 == pytest.approx(2.94e5, rel=0.15)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            fit_beta_prechange(_fraction_series([0.1, 0.1, 0.1]), window_days=3)

    def test_overdispersed_window_rejected(self):
        wild = [0.01, 0.99, 0.01, 0.99, 0.01, 0.99]
        with pytest.raises(ValueError):
            fit_beta_prechange(_fraction_series(wild), window_days=6)

    def test_window_days_validation(self):
        series = _fraction_series([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            fit_beta_prechange(series, window_days=1)
        with pytest.raises(ValueError):
            fit_beta_prechange(series, window_days=4)


class TestHFunction:
    def test_peak_value(self):
        peak = wave_multiplier(COUNTY_THETA, COUNTY_THETA[1])
        assert peak == pytest.approx(1.0 + 10 ** 0.464 / 0.445, rel=1e-12)
        assert peak == pytest.approx(7.540937343969899, rel=1e-12)

    def test_tails_approach_one(self):
        assert wave_multiplier(COUNTY_THETA, 1000.0) == pytest.approx(1.0, abs=1e-12)
        assert float(wave_multiplier(COUNTY_THETA, 0.0)) > 1.0

    def test_vectorized(self):
        vals = wave_multiplier(COUNTY_THETA, np.arange(5.0))
        assert vals.shape == (5,)
        assert np.argmax(vals) == 4  # peak day 3.894 rounds up on this grid

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            wave_multiplier((0.5, 3.0, 0.0), 1.0)


class TestFitWaveShape:
    def test_recovers_planted_parameters(self):
        beta = _beta()
        # 16 days: enough of the wave's tail to pin the width parameter down
        series = _wave_series(beta, COUNTY_THETA, days=16)
        fit = fit_wave_shape(series, beta, COUNTY_BOX, restarts=8)
        for got, want in zip(fit.theta, COUNTY_THETA):
            assert got == pytest.approx(want, rel=0.05)
        assert fit.residual < 1e-12
        assert fit.restarts == 8

    def test_constant_series_pins_amplitude_to_box_floor(self):
        beta = _beta()
        flat = _fraction_series(np.full(10, beta.mean))
        fit = fit_wave_shape(flat, beta, COUNTY_BOX, restarts=4)
        assert fit.theta[0] <= 0.11  # driven into the lower bound

    def test_more_restarts_never_hurt(self):
        beta = _beta()
        rng = np.random.default_rng(7)
        noisy = _wave_series(beta, COUNTY_THETA, days=12)
        y = noisy.fractions * (1.0 + 0.02 * rng.standard_normal(12))
        series = _fraction_series(y)
        residuals = [
            fit_wave_shape(series, beta, COUNTY_BOX, restarts=r, seed=5).residual
            for r in (1, 3, 6)
        ]
        assert residuals[0] >= residuals[1] >= residuals[2]

    def test_deterministic_for_fixed_seed(self):
        beta = _beta()
        series = _wave_series(beta, COUNTY_THETA, days=10)
        a = fit_wave_shape(series, beta, COUNTY_BOX, restarts=3, seed=9)
        b = fit_wave_shape(series, beta, COUNTY_BOX, restarts=3, seed=9)
        assert a.theta == b.theta and a.residual == b.residual

    def test_non_convergence_carries_best_attempt(self):
        beta = _beta()
        series = _wave_series(beta, COUNTY_THETA, days=12)
        with pytest.raises(RuntimeError) as exc:
            fit_wave_shape(series, beta, COUNTY_BOX, restarts=2, max_iter=0)
        assert hasattr(exc.value, "best")
        assert exc.value.best.residual < math.inf

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
    def test_tol_must_be_positive(self, tol):
        # a sweep never grows the sum, so previous - current < tol would never hold
        beta = _beta()
        series = _wave_series(beta, COUNTY_THETA, days=12)
        with pytest.raises(ValueError, match=re.escape(f"tol must lie in (0, inf), got {tol}")):
            fit_wave_shape(series, beta, COUNTY_BOX, restarts=1, tol=tol, max_iter=50)

    def test_box_validation(self):
        beta = _beta()
        series = _wave_series(beta, COUNTY_THETA, days=12)
        with pytest.raises(ValueError):
            fit_wave_shape(series, beta, ((0.1, 5.0), (1.0, 20.0)))  # not 3-d
        with pytest.raises(ValueError):
            fit_wave_shape(series, beta, ((5.0, 0.1), (1.0, 20.0), (0.1, 5.0)))
        with pytest.raises(ValueError):
            fit_wave_shape(series, beta, COUNTY_BOX, restarts=0)

    def test_short_series_rejected(self):
        beta = _beta()
        with pytest.raises(ValueError):
            fit_wave_shape(_fraction_series([0.1, 0.2]), beta, COUNTY_BOX)


class TestMonitor:
    def test_negative_threshold_alarms_immediately(self):
        beta = _beta()
        rng = np.random.default_rng(1)
        series = _fraction_series(rng.beta(beta.a0, beta.b0, 30))
        result = monitor(series, beta, COUNTY_BOX, threshold=-1.0)
        assert result.first_alarm_index == 0
        assert result.first_alarm_date == series.dates[0]

    def test_default_threshold_from_box_volume(self):
        beta = _beta()
        rng = np.random.default_rng(2)
        series = _fraction_series(rng.beta(beta.a0, beta.b0, 25))
        result = monitor(series, beta, COUNTY_BOX, alpha=1e-3)
        assert result.threshold == pytest.approx(16.833290461207017, rel=1e-12)

    def test_quiet_series_stays_below_threshold(self):
        beta = _beta()
        rng = np.random.default_rng(3)
        series = _fraction_series(rng.beta(beta.a0, beta.b0, 200))
        result = monitor(series, beta, COUNTY_BOX)
        stats = np.array([o.statistic for o in result.outputs])
        assert result.first_alarm_index is None
        assert result.first_alarm_date is None
        assert np.median(stats) < result.threshold / 10.0

    def test_wave_onset_detected_within_days(self):
        beta = _beta()
        rng = np.random.default_rng(4)
        pre = rng.beta(beta.a0, beta.b0, 50)
        lags = np.arange(30, dtype=float)
        post = rng.beta(beta.a0 * wave_multiplier(COUNTY_THETA, lags), beta.b0)
        series = _fraction_series(np.r_[pre, post])
        result = monitor(series, beta, COUNTY_BOX)
        assert result.first_alarm_index is not None
        assert 50 <= result.first_alarm_index <= 57

    def test_zero_fractions_clamped_to_half_minimum(self):
        beta = _beta()
        rng = np.random.default_rng(5)
        y = rng.beta(beta.a0, beta.b0, 40)
        y[7] = 0.0
        y[20] = 0.0
        auto = monitor(_fraction_series(y), beta, COUNTY_BOX)
        manual = y.copy()
        manual[manual == 0.0] = y[y > 0].min() / 2.0
        byhand = monitor(_fraction_series(manual), beta, COUNTY_BOX)
        got = [o.statistic for o in auto.outputs]
        want = [o.statistic for o in byhand.outputs]
        np.testing.assert_array_equal(got, want)

    def test_invalid_fractions_rejected(self):
        beta = _beta()
        with pytest.raises(ValueError, match="clean the series"):
            monitor(_fraction_series([0.1, 1.0, 0.1]), beta, COUNTY_BOX)

    def test_all_zero_series_rejected(self):
        beta = _beta()
        with pytest.raises(ValueError, match="identically zero"):
            monitor(_fraction_series(np.zeros(10)), beta, COUNTY_BOX)

    def test_csv_format_and_determinism(self, tmp_path):
        beta = _beta()
        rng = np.random.default_rng(6)
        series = _fraction_series(rng.beta(beta.a0, beta.b0, 15))
        result = monitor(series, beta, COUNTY_BOX, window=5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli._write_csv(p1, *cli._trajectory_table(result), [])
        cli._write_csv(p2, *cli._trajectory_table(result), [])
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "date,statistic,threshold,alarm,k_star,theta0,theta1,theta2"
        assert len(lines) == 16
        assert lines[1].startswith("2020-06-01,")
