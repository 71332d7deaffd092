"""End-to-end epidemic monitoring on the bundled synthetic county.

Loads daily case counts, smooths them into infected fractions, fits a Beta
law to a quiet window, then watches for the onset of a wave with the
window-limited GLR detector. Once the alarm fires, the wave-shape fitter
recovers the bell parameters from the post-onset data.

The fixture in data/synthetic_county.csv was generated by
make_synthetic_county.py with a wave starting on 2020-07-21 and shape
parameters (0.464, 3.894, 0.445); a good run should alarm within a few days
of the onset and land near those numbers.
"""

from datetime import date
from pathlib import Path

from wlcusum import fit_beta_prechange, fit_wave_shape, load_case_csv, monitor, to_fraction_series

DATA = Path(__file__).parent / "data" / "synthetic_county.csv"
POPULATION = 1_000_000
MONITOR_FROM = date(2020, 7, 1)
TRUE_ONSET = date(2020, 7, 21)
TRUE_THETA = (0.464, 3.894, 0.445)
THETA_BOX = ((0.1, 5.0), (1.0, 20.0), (0.1, 5.0))
PRECHANGE_DAYS = 20
RESTARTS = 8  # of the wave-shape fit


def main():
    series = load_case_csv(DATA, population=POPULATION, region="synthetic county")
    fractions = to_fraction_series(series, window=4)
    print(f"loaded {len(series.counts)} days of counts "
          f"({series.dates[0]} .. {series.dates[-1]})")

    start = fractions.index(MONITOR_FROM)
    beta = fit_beta_prechange(fractions.slice(start - PRECHANGE_DAYS, start), PRECHANGE_DAYS)
    print(f"quiet-window Beta fit: a0={beta.a0:.1f} b0={beta.b0:.3e} "
          f"(mean {beta.mean:.2e})")

    segment = fractions.slice(start, len(fractions.fractions))
    result = monitor(segment, beta, THETA_BOX, alpha=1e-3, window=20)
    print(f"monitoring from {MONITOR_FROM} at threshold {result.threshold:.2f}")

    alarm = result.first_alarm_date
    if alarm is None:
        print("no alarm raised over the monitored stretch")
        return
    print(f"ALARM on {alarm} ({(alarm - TRUE_ONSET).days} days after the true onset)")
    out = result.outputs[result.first_alarm_index]
    est_onset = segment.dates[out.k_star - 1]
    print(f"most likely change day per the detector: {est_onset}")

    # Fit the wave on unsmoothed fractions: the moving average is good for
    # stable detection but it smears the bell, dragging the fitted peak day
    # and width upward.
    raw = to_fraction_series(series, window=1)
    onset = raw.index(TRUE_ONSET)
    beta_raw = fit_beta_prechange(raw.slice(onset - PRECHANGE_DAYS, onset), PRECHANGE_DAYS)
    post = raw.slice(onset, len(raw.fractions))
    fit = fit_wave_shape(post, beta_raw, THETA_BOX, restarts=RESTARTS, seed=3)
    print("\nwave-shape fit on the post-onset days:")
    for name, truth, got in zip(("height", "peak day", "width"), TRUE_THETA, fit.theta):
        print(f"  {name:>8}: fitted {got:.3f} vs true {truth:.3f}")
    print(f"  residual: {fit.residual:.3e}")
    # height and width trade off against each other; the peak multiplier
    # 1 + 10^height / width is what the data pins down
    peak = 1.0 + 10.0 ** fit.theta[0] / fit.theta[2]
    true_peak = 1.0 + 10.0 ** TRUE_THETA[0] / TRUE_THETA[2]
    print(f"  implied peak multiplier: {peak:.2f} vs true {true_peak:.2f}")


if __name__ == "__main__":
    main()
