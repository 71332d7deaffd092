"""Command-line front end for calibration, simulation, diagnostics, and monitoring.

The only module that writes files. Every subcommand writes its tables as CSV
(a float as repr(float(v)), a flag as 0/1, None as a blank) and its summaries
as JSON under --out (default ./out), plus a run manifest (config echo,
library versions, wall time, output list). Stochastic subcommands require
--seed and reproduce byte-identically on rerun. Exit codes: 0 success,
1 runtime failure (partial outputs are removed), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import platform
import re
import sys
import time
from dataclasses import asdict, replace
from datetime import date
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    GlrThresholdInputs,
    cusum_threshold,
    glr_threshold_residual,
    window_size,
)
from .detectors import theta_grid
from .epidata import (
    fit_beta_prechange,
    fit_wave_shape,
    load_case_csv,
    monitor,
    to_fraction_series,
)
from .growth import GrowthCurve, check_growth_condition, lemma1_diagnostics
from .models import _MODEL_KINDS, build_model
from .montecarlo import (
    _DETECTOR_KINDS,
    TrialPlan,
    estimate_add,
    estimate_mtfa,
    geometric_qq,
    operating_characteristic,
    run_trials,
)

_MTFA_ALPHA_FLOOR = 1e-4


# ---------------------------------------------------------------------------
# argparse value parsers (failures become exit-2 usage errors)


def _comma_list(item, expected: str):
    """argparse type: a comma-separated list, each part through item (ValueError if bad)."""
    def parse(text: str):
        try:
            return tuple(item(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {expected}, got {text!r}") from None
    return parse


def _interval(part: str):
    lo, hi = map(float, part.split(":"))
    if not lo < hi:
        raise ValueError
    return lo, hi


def _positive_int(part: str):
    count = int(part)
    if count < 1:
        raise ValueError
    return count


_box_type = _comma_list(_interval, "lo:hi pairs (lo < hi) like '0.1:5,1:20,0.1:5'")
_counts_type = _comma_list(_positive_int, "positive integers like '10,10,10'")
_floats_type = _comma_list(float, "numbers like '1e-2,1e-3'")


def _date_type(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an ISO date like 2020-06-01, got {text!r}") from None


# ---------------------------------------------------------------------------
# shared plumbing


def _build_model_from_args(args):
    _, names = _MODEL_KINDS[args.model]
    params = {}
    for name in names:
        value = getattr(args, name, None)
        if value is None:
            raise ValueError(f"model '{args.model}' requires --{name.replace('_', '-')}")
        params[name] = value
    return build_model(args.model, **params)


def _grid_counts(args, dim: int):
    counts = args.grid_counts
    if counts is None:
        counts = (10,) * dim
    elif len(counts) == 1:
        counts = counts * dim
    elif len(counts) != dim:
        raise ValueError(f"--grid-counts needs 1 or {dim} entries, got {len(counts)}")
    return counts


def _glr_inputs(args, model, alpha) -> GlrThresholdInputs:
    """Inputs of the GLR threshold equation over --theta-box."""
    if args.theta_box is None:
        raise ValueError(f"detector '{args.detector}' requires --theta-box")
    box = np.asarray(args.theta_box, dtype=float)
    if box.shape != (model.theta_dim, 2):
        raise ValueError(
            f"--theta-box must give {model.theta_dim} lo:hi pairs for model "
            f"'{args.model}', got {box.shape[0]}"
        )
    return GlrThresholdInputs(
        alpha=alpha,
        theta_volume=float(np.prod(box[:, 1] - box[:, 0])),
        dim=len(box),
        epsilon=args.epsilon,
    )


def _threshold(args, alpha, glr_inputs) -> float:
    """Explicit --threshold, else the GLR equation when glr_inputs is given, else |ln alpha|."""
    if getattr(args, "threshold", None) is not None:  # calibrate and simulate-oc have none
        return float(args.threshold)
    if alpha is None:
        raise ValueError("need --threshold or --alpha to set the detection threshold")
    return glr_inputs.solve() if glr_inputs is not None else cusum_threshold(alpha)


def _window(args, model, alpha) -> int | None:
    """Explicit --window, else g^{-1}(|ln alpha|) padded by --safety."""
    if args.window is not None:
        return args.window
    if model.peak_lag is not None:
        raise ValueError("the Beta wave model has no usable growth inverse for window "
                         "sizing; pass --window explicitly")
    return window_size(GrowthCurve(model), alpha, args.safety)


def _trial_plan(args, model, nu, alpha):
    """The TrialPlan of a simulate/estimate run, calibrated at alpha, and its GLR inputs.

    The GLR inputs are None unless the detector is wl-glr. With --threshold
    alone the window is sized at e^-b.
    """
    grid = glr_inputs = None
    if args.detector == "wl-glr":
        glr_inputs = _glr_inputs(args, model, alpha)
        box = args.theta_box
        # a one-row box is a scalar parameter: its grid points must be floats, not 1-tuples
        grid = theta_grid(box[0] if len(box) == 1 else box, _grid_counts(args, len(box)))
    b = _threshold(args, alpha, glr_inputs)
    # built before the window, so a NaN b is refused before e^-b sizes one; it takes
    # --window as given, so full-cusum refuses one
    plan = TrialPlan(
        model=model,
        detector=args.detector,
        threshold=b,
        window=args.window,
        grid=grid,
        nu=nu,
        num_trials=args.trials,
        seed=args.seed,
        max_steps=args.max_steps,
        workers=args.workers,
    )
    if args.detector != "full-cusum":
        plan = replace(plan, window=_window(args, model, math.exp(-b) if alpha is None else alpha))
    return plan, glr_inputs


def _write_json(path: Path, payload, written: list) -> None:
    path.write_text(_json(payload) + "\n")
    written.append(path)


def _json(payload) -> str:
    """Strict JSON: a non-finite float (an inf stderr or bound) is written as null."""
    return json.dumps(_finite(payload), indent=2, sort_keys=True, default=_json_default,
                      allow_nan=False)


def _finite(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _json_default(obj):
    if isinstance(obj, date):
        return obj.isoformat()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _flag(v) -> str:
    return "1" if v else "0"


# The CSV cell rule, looked up by exact type: a float as repr(float(v)), a flag
# as 0/1, None as a blank and anything else (ints, strings, dates) as str(v),
# as csv.writer would write it.
_CELL = {float: float.__repr__, np.float64: float.__repr__, bool: _flag, np.bool_: _flag,
         type(None): lambda v: "", date: date.isoformat}
# a cell holding one of these needs csv's quoting
_QUOTED = re.compile('[,"\r\n]')


def _cell(v) -> str:
    return _CELL.get(type(v), str)(v)


def _column_text(values) -> list[str]:
    """One table column as CSV cell text under the cell rule.

    A column of one type is formatted by one map, and a column that holds the
    same object more than once formats it once. Repeats are found by identity,
    never by value: 0.0 == -0.0 and 1 == 1.0 == True, yet their cells differ.
    """
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    ids = list(map(id, values))
    distinct = dict(zip(ids, values))  # the column holds every value, so no id is reused
    kinds = set(map(type, distinct.values()))
    f = _CELL.get(kinds.pop(), str) if len(kinds) == 1 else _cell
    if len(distinct) == len(ids):
        return list(map(f, values))
    text = dict(zip(distinct, map(f, distinct.values())))
    return list(map(text.__getitem__, ids))


def _write_csv(path: Path, header, columns, written: list) -> None:
    """Write a table given column by column (each a sequence or array, all one length).

    The bytes are csv.writer's. Unless a cell needs quoting, or the table has
    one column (csv quotes an empty row), the lines are joined directly.
    """
    texts = [_column_text(c) for c in columns]
    lines = [header, *zip(*texts)]
    with open(path, "w", newline="") as fh:
        if len(texts) > 1 and not any(_QUOTED.search("".join(t)) for t in [header, *texts]):
            fh.write("\r\n".join(map(",".join, lines)) + "\r\n")
        else:
            csv.writer(fh).writerows(lines)
    written.append(path)


def _write_trials(path: Path, times, censored, written: list) -> None:
    _write_csv(path, ["trial", "time", "censored"], [range(len(times)), times, censored],
               written)


# The tables behind oc.csv, qq.csv and trajectory.csv, as (header, columns).
def _oc_table(rows):
    return (["alpha", "threshold", "window", "delay_mean", "delay_stderr", "num_uncensored",
             "censor_rate"],
            list(zip(*[(r.alpha, r.threshold, r.window, r.delay.mean, r.delay.stderr,
                        r.delay.num_uncensored, r.delay.censor_rate) for r in rows])))


def _qq_table(report):
    return ["prob", "theoretical", "empirical"], [report.probs, report.theoretical,
                                                  report.empirical]


def _trajectory_table(result):
    outputs = result.outputs
    no_theta = (None, None, None)
    thetas = [no_theta if t is None else t for t in map(attrgetter("theta_hat"), outputs)]
    return (["date", "statistic", "threshold", "alarm", "k_star", "theta0", "theta1", "theta2"],
            [result.dates, list(map(attrgetter("statistic"), outputs)),
             [result.threshold] * len(outputs), list(map(attrgetter("alarm"), outputs)),
             list(map(attrgetter("k_star"), outputs)), *zip(*thetas)])


def _delay_dict(est) -> dict:
    return {**asdict(est), "lower_bound_only": est.lower_bound_only}


# ---------------------------------------------------------------------------
# subcommand handlers: (args, out_dir, written) -> payload printed as JSON


def _cmd_calibrate(args, out_dir, written):
    model = _build_model_from_args(args)
    glr = _glr_inputs(args, model, args.alpha) if args.theta_box is not None else None
    b = _threshold(args, args.alpha, glr)
    m = _window(args, model, args.alpha)
    payload = {"b": b, "m": m, "epsilon": None, "residual": 0.0}
    if glr is not None:
        residual = glr_threshold_residual(b, glr.alpha, glr.theta_volume, glr.dim, glr.epsilon)
        payload.update(epsilon=glr.epsilon, residual=residual)
    _write_json(out_dir / "calibrate.json", payload, written)
    return payload


def _cmd_simulate_oc(args, out_dir, written):
    model = _build_model_from_args(args)
    plan, glr_inputs = _trial_plan(args, model, args.nu, args.alphas[0])
    if plan.window is not None:  # drop a window sized at alphas[0]: it is sized per alpha
        plan = replace(plan, window=args.window)
    rows = operating_characteristic(plan, args.alphas, safety=args.safety,
                                    glr_inputs=glr_inputs)
    _write_csv(out_dir / "oc.csv", *_oc_table(rows), written)
    payload = {"rows": [{**asdict(r), "delay": _delay_dict(r.delay)} for r in rows]}
    _write_json(out_dir / "oc_summary.json", payload, written)
    return payload


def _cmd_simulate_qq(args, out_dir, written):
    model = _build_model_from_args(args)
    plan, _ = _trial_plan(args, model, math.inf, args.alpha)
    times, censored = run_trials(plan)
    kept = times[~censored]
    if len(kept) < 100:
        raise ValueError(
            f"only {len(kept)} of {len(times)} trials alarmed before the step cap; "
            "need at least 100 stopping times for a quantile fit "
            "(raise --trials or --max-steps, or lower the threshold)"
        )
    report = geometric_qq(kept)
    _write_csv(out_dir / "qq.csv", *_qq_table(report), written)
    payload = {
        "p_hat": report.p_hat,
        "correlation": report.correlation,
        "num_samples": report.num_samples,
        "threshold": plan.threshold,
        "window": plan.window,
        "num_censored": int(censored.sum()),
    }
    _write_json(out_dir / "qq_summary.json", payload, written)
    return payload


def _cmd_estimate_mtfa(args, out_dir, written):
    model = _build_model_from_args(args)
    plan, _ = _trial_plan(args, model, math.inf, args.alpha)
    # --threshold overrides --alpha, so the cost follows e^b (+inf where it overflows,
    # not 1 / e^-b, which divides by 0 there); --alpha alone keeps 1/alpha as given,
    # since e^|ln alpha| can differ from it in the last bit
    if args.threshold is None:
        target = 1.0 / args.alpha
    else:
        try:
            target = math.exp(plan.threshold)
        except OverflowError:
            target = math.inf
    if target > 1.0 / _MTFA_ALPHA_FLOOR and not args.force:
        raise ValueError(
            f"MTFA estimation at alpha={1.0 / target:.3g} needs on the order of "
            f"{target:.0f} observations per trial; pass --force to run anyway"
        )
    times, censored = run_trials(plan)
    est = estimate_mtfa(plan, results=(times, censored))
    _write_trials(out_dir / "mtfa_trials.csv", times, censored, written)
    payload = {"mtfa": _delay_dict(est), "threshold": plan.threshold, "window": plan.window,
               "target_lower_bound": target}
    _write_json(out_dir / "mtfa_summary.json", payload, written)
    return payload


def _cmd_estimate_add(args, out_dir, written):
    model = _build_model_from_args(args)
    plan, _ = _trial_plan(args, model, args.nu, args.alpha)
    times, censored = run_trials(plan)
    est = estimate_add(plan, results=(times, censored))
    _write_trials(out_dir / "add_trials.csv", times, censored, written)
    payload = {"add": _delay_dict(est), "threshold": plan.threshold, "window": plan.window,
               "nu": args.nu}
    _write_json(out_dir / "add_summary.json", payload, written)
    return payload


def _cmd_diagnostics(args, out_dir, written):
    model = _build_model_from_args(args)
    growth = check_growth_condition(
        GrowthCurve(model), args.x_max, points_per_decade=args.points_per_decade
    )
    lemma1 = lemma1_diagnostics(model, args.n_max, shift_max=args.shift_max)
    _write_csv(out_dir / "growth_condition.csv", ["x", "log_inverse_over_x"],
               [growth.x, growth.ratio], written)
    _write_csv(out_dir / "lemma1.csv", ["n", "variance_ratio"],
               [lemma1.ns, lemma1.variance_ratio], written)
    payload = {
        "growth_condition": {"satisfied": growth.satisfied, "x_max": growth.x_max},
        "variance_ratio_range": [float(np.min(lemma1.variance_ratio)),
                                 float(np.max(lemma1.variance_ratio))],
        "variance_ratio_rows_dropped": args.n_max - 1 - len(lemma1.ns),
        "time_shift_min": lemma1.time_shift_min,
        "time_shift_pinned_lags": lemma1.pinned_lags,
    }
    _write_json(out_dir / "diagnostics.json", payload, written)
    return payload


def _load_fractions(args):
    series = load_case_csv(args.input, args.population, cumulative=args.cumulative)
    return to_fraction_series(series, window=args.ma_window)


def _prechange_fit(fractions, start_index: int, days: int):
    if start_index < days:
        raise ValueError(
            f"--start-date needs {days} smoothed days before it for the "
            f"pre-change fit, have {start_index}"
        )
    return fit_beta_prechange(fractions.slice(start_index - days, start_index), days)


def _cmd_monitor_epi(args, out_dir, written):
    fractions = _load_fractions(args)
    start = fractions.index(args.start_date)
    beta = _prechange_fit(fractions, start, args.prechange_days)
    segment = fractions.slice(start, len(fractions.fractions))
    result = monitor(
        segment,
        beta,
        args.theta_box,
        alpha=args.alpha,
        window=args.window,
        grid_counts=_grid_counts(args, 3),
        epsilon=args.epsilon,
        threshold=args.threshold,
    )
    _write_csv(out_dir / "trajectory.csv", *_trajectory_table(result), written)
    payload = {
        "region": segment.region,
        "population": segment.population,
        "beta_fit": asdict(beta),
        "threshold": result.threshold,
        "num_days": len(segment.fractions),
        "first_alarm_date": result.first_alarm_date,
        "first_alarm_index": result.first_alarm_index,
    }
    _write_json(out_dir / "monitor_summary.json", payload, written)
    return payload


def _cmd_fit_epi(args, out_dir, written):
    fractions = _load_fractions(args)
    start = fractions.index(args.start_date)
    stop = fractions.index(args.end_date) + 1 if args.end_date is not None else len(fractions.fractions)
    if stop <= start:
        raise ValueError("--end-date must not precede --start-date")
    beta = _prechange_fit(fractions, start, args.prechange_days)
    fit = fit_wave_shape(
        fractions.slice(start, stop),
        beta,
        args.theta_box,
        restarts=args.restarts,
        tol=args.tol,
        seed=args.seed,
    )
    wave = {f"theta{i}": v for i, v in enumerate(fit.theta)}
    payload = {"beta_fit": asdict(beta), "num_days": stop - start,
               "wave_fit": {**wave, "residual": fit.residual, "restarts": fit.restarts}}
    _write_json(out_dir / "fit_summary.json", payload, written)
    return payload


# ---------------------------------------------------------------------------
# parser assembly


def _add_output_flag(parser):
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")


def _add_model_flags(parser):
    group = parser.add_argument_group("model")
    group.add_argument("--model", required=True, choices=sorted(_MODEL_KINDS))
    takers = {}  # parameter name -> the model kinds that take it, in table order
    for kind, (_, names) in _MODEL_KINDS.items():
        for name in names:
            takers.setdefault(name, []).append(kind)
    for name, kinds in takers.items():
        group.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float,
                           help=f"parameter of model {'/'.join(kinds)}")


def _add_detector_flags(parser, *, include_alpha=True):
    group = parser.add_argument_group("detector")
    group.add_argument("--detector", default="wl-cusum", choices=_DETECTOR_KINDS)
    group.add_argument("--window", type=int,
                       help="window size m (default: sized from the growth curve)")
    if include_alpha:
        group.add_argument("--alpha", type=float,
                           help="false-alarm rate used to set the threshold")
        group.add_argument("--threshold", type=float,
                           help="detection threshold b (overrides --alpha)")
    group.add_argument("--theta-box", type=_box_type,
                       help="post-change parameter box, e.g. '0.1:5,1:20,0.1:5'")
    group.add_argument("--grid-counts", type=_counts_type,
                       help="GLR grid points per dimension, e.g. '10,10,10' (default 10)")
    group.add_argument("--epsilon", type=float, default=1.0,
                       help="GLR threshold-equation drift bound (default 1.0)")
    group.add_argument("--safety", type=float, default=1.1,
                       help="window safety factor (default 1.1)")


def _add_trial_flags(parser, *, default_trials):
    group = parser.add_argument_group("simulation")
    group.add_argument("--trials", type=int, default=default_trials)
    group.add_argument("--seed", type=int, required=True,
                       help="master seed; reruns with the same seed are byte-identical")
    group.add_argument("--max-steps", type=int,
                       help="per-trial step cap (default: sized from the threshold)")
    group.add_argument("--workers", type=int, default=os.cpu_count() or 1)


def _add_epi_input_flags(parser):
    group = parser.add_argument_group("input")
    group.add_argument("--input", required=True, help="CSV with header date,cases")
    group.add_argument("--population", type=float, required=True)
    group.add_argument("--cumulative", action="store_true",
                       help="treat the cases column as cumulative totals")
    group.add_argument("--ma-window", type=int, default=4,
                       help="moving-average width in days (default 4)")
    group.add_argument("--start-date", type=_date_type, required=True,
                       help="first day of monitoring / wave fitting (ISO)")
    group.add_argument("--prechange-days", type=int, default=20,
                       help="days before start-date used for the Beta fit (default 20)")
    group.add_argument("--theta-box", type=_box_type, required=True,
                       help="wave parameter box, e.g. '0.1:5,1:20,0.1:5'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlcusum",
        description="Window-limited CuSum/GLR change detection: calibration, "
                    "simulation, diagnostics, and epidemic monitoring.",
    )
    parser.add_argument("--version", action="version", version=f"wlcusum {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("calibrate", help="threshold and window for a target false-alarm rate")
    _add_output_flag(p)
    _add_model_flags(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--window", type=int, help="override the computed window")
    p.add_argument("--theta-box", type=_box_type,
                   help="calibrate the GLR threshold over this box instead of plain CuSum")
    p.add_argument("--epsilon", type=float, default=1.0, help="GLR drift bound (default 1.0)")
    p.add_argument("--safety", type=float, default=1.1)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("simulate-oc", help="delay vs alpha operating characteristic")
    _add_output_flag(p)
    _add_model_flags(p)
    _add_detector_flags(p, include_alpha=False)
    p.add_argument("--alphas", type=_floats_type, required=True,
                   help="comma-separated false-alarm rates, e.g. '1e-2,1e-3,1e-4'")
    p.add_argument("--nu", type=int, required=True, help="true change point (1-based)")
    _add_trial_flags(p, default_trials=1000)
    p.set_defaults(func=_cmd_simulate_oc)

    p = sub.add_parser("simulate-qq", help="geometric QQ fit of pre-change stopping times")
    _add_output_flag(p)
    _add_model_flags(p)
    _add_detector_flags(p)
    _add_trial_flags(p, default_trials=1000)
    p.set_defaults(func=_cmd_simulate_qq)

    p = sub.add_parser("estimate-mtfa", help="mean time to false alarm")
    _add_output_flag(p)
    _add_model_flags(p)
    _add_detector_flags(p)
    _add_trial_flags(p, default_trials=2000)
    p.add_argument("--force", action="store_true",
                   help=f"allow alpha below {_MTFA_ALPHA_FLOOR} despite the cost")
    p.set_defaults(func=_cmd_estimate_mtfa)

    p = sub.add_parser("estimate-add", help="average detection delay at a known change point")
    _add_output_flag(p)
    _add_model_flags(p)
    _add_detector_flags(p)
    p.add_argument("--nu", type=int, required=True, help="true change point (1-based)")
    _add_trial_flags(p, default_trials=2000)
    p.set_defaults(func=_cmd_estimate_add)

    p = sub.add_parser("diagnostics", help="growth-condition and LLR-regularity reports")
    _add_output_flag(p)
    _add_model_flags(p)
    p.add_argument("--x-max", type=float, default=100.0)
    p.add_argument("--points-per-decade", type=int, default=10)
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--shift-max", type=int, default=10)
    p.set_defaults(func=_cmd_diagnostics)

    p = sub.add_parser("monitor-epi", help="run the GLR monitor over a case-count CSV")
    _add_output_flag(p)
    _add_epi_input_flags(p)
    p.add_argument("--alpha", type=float, default=1e-3)
    p.add_argument("--window", type=int, default=20)
    p.add_argument("--grid-counts", type=_counts_type,
                   help="GLR grid points per dimension (default 10,10,10)")
    p.add_argument("--epsilon", type=float, default=1.0, help="GLR drift bound (default 1.0)")
    p.add_argument("--threshold", type=float, help="override the calibrated threshold")
    p.set_defaults(func=_cmd_monitor_epi)

    p = sub.add_parser("fit-epi", help="fit Beta pre-change law and wave shape to a CSV")
    _add_output_flag(p)
    _add_epi_input_flags(p)
    p.add_argument("--end-date", type=_date_type,
                   help="last day of the wave segment (default: end of series)")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the optimizer's restart draws (default 0)")
    p.set_defaults(func=_cmd_fit_epi)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on first use and kept for the process.

    Parsing leaves no state on it: no flag appends or has a mutable default.
    --workers reads os.cpu_count once, when it is built.
    """
    return build_parser()


def _write_manifest(out_dir: Path, args, written: list, wall_time: float) -> None:
    import scipy  # for its version alone: the import of this module loads no scipy

    config = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "command": args.subcommand,
        "config": config,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "wlcusum": __version__,
        },
        "wall_time_s": wall_time,
        "outputs": [p.name for p in written],
    }
    _write_json(out_dir / "run_manifest.json", manifest, written)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    started = time.perf_counter()
    try:
        payload = args.func(args, out_dir, written)
    except Exception as exc:
        for path in written:
            path.unlink(missing_ok=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_manifest(out_dir, args, written, time.perf_counter() - started)
    print(_json(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
