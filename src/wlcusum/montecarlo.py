"""Monte-Carlo evaluation: false-alarm and delay estimation for detectors.

The trials of a chunk run in lockstep on one (lags, trials[, grid]) bank of
all live trials, laid out as a detector's own (lags, 1[, grid]) bank. A
window-limited bank with no grid and at most _SCAN_CAP lags (a full-history
one too, once its cap stops at a dead lag that small) advances through up to
B = _SCAN_STEPS already drawn steps per ``_LagBank._scan`` call, with no
Python loop per step; on GEM with m = 23 that runs about 3x the trials per
second of one step per call. Every other bank takes ``_advance``, the update
a detector's own step applies, once per step: a block with a grid axis was
0.29-0.65x as fast on the oc-glr-gem plans (G = 50, trials of about 22
steps), and a block's cap * (cap + B) work gained nothing at m = 200 and
lost at m = 255. Both advances share one block loop for draws, support
checks, NaN naming, alarms and censoring. An alarmed trial leaves the batch
at the end of the advance, and the ones still live at the step cap are
censored there. Worker processes only split the trial range into chunks.

An operating characteristic is one such run for the whole curve. An entry
lambda_{n,k} depends on neither the window nor the threshold, so the bank of
the widest window holds, bit for bit, every narrower window's entries in its
newest m + 1 lags. Each alpha is an operating point, a row of a table built
once per batch: its threshold, step cap and maxima column. Every advance
takes one max per column over the column's newest span lags, the whole bank
last, and each point reads its own column. A trial stays in the batch until
every point has alarmed on it or reached its cap, and a point leaves once
no live trial waits on it. ``run_trials`` is the one-point case of the same
run.

Trial i draws its observations from a dedicated RNG substream keyed by
(master seed, i), in 512-step blocks, exactly as it would running alone, and
each trial's column of the bank gets exactly the operations of a detector's
own step. Results are therefore bit-for-bit reproducible for any worker
count, chunk, batch or block size, and reduced in trial-index order.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .calibration import GlrThresholdInputs, cusum_threshold, window_size
from .detectors import FullCusum, WlCusum, WlGlr
from .growth import GrowthCurve
from .models import ObservationModel

__all__ = [
    "TrialPlan",
    "DelayEstimate",
    "OcRow",
    "QqReport",
    "run_trials",
    "estimate_mtfa",
    "estimate_add",
    "operating_characteristic",
    "geometric_qq",
]

_STREAM_BLOCK = 512
# A lockstep batch holds at most this many trials (its blocks: 1024 x 512 floats)
# and this many bank entries: one step allocates a few arrays of the bank's
# size, and on big banks (a 1000-point GLR grid) fresh multi-MB arrays every
# step cost more in page faults than batching saves.
_BATCH_TRIALS = 1024
_BATCH_ENTRIES = 2**15
# A scan advances up to B = _SCAN_STEPS steps per call, on banks of at most
# _SCAN_CAP lags (its block then does at most 1.5x the arithmetic of B single
# steps), and its (cap, cap + B, T) block holds at most _SCAN_ENTRIES entries.
_SCAN_STEPS = 256
_SCAN_CAP = 128
_SCAN_ENTRIES = 2**21
_MAX_DEFAULT_STEPS = 10_000_000

_DETECTOR_KINDS = ("wl-cusum", "full-cusum", "wl-glr")


@dataclass(frozen=True, eq=False)
class TrialPlan:
    """Everything one batch of trials needs, picklable for worker dispatch.

    nu is the true change point (1-based); math.inf means no change ever
    happens (false-alarm runs). max_steps=None picks a default: 50 * e^b for
    false-alarm runs, nu - 1 + 100 * g^{-1}(b) for delay runs.
    """

    model: ObservationModel
    detector: str
    threshold: float
    window: int | None = None
    grid: object = None
    nu: float = math.inf
    num_trials: int = 1000
    seed: int = 0
    max_steps: int | None = None
    workers: int = 1

    def __post_init__(self):
        if self.detector not in _DETECTOR_KINDS:
            raise ValueError(f"detector must be one of {_DETECTOR_KINDS}, got {self.detector!r}")
        if self.detector == "wl-glr" and self.grid is None:
            raise ValueError("wl-glr needs a theta grid")
        if math.isnan(self.threshold):  # a NaN b never alarms; +-inf are valid
            raise ValueError(f"threshold must be a number or +-inf, got {self.threshold}")
        if not math.isinf(self.nu):
            if float(self.nu) != int(self.nu) or int(self.nu) < 1:
                raise ValueError(f"nu must be an integer >= 1 or math.inf, got {self.nu}")
        if self.detector == "full-cusum" and self.window is not None:
            raise ValueError(f"full-cusum reads every hypothesis, got window {self.window}")
        if int(self.num_trials) < 1:
            raise ValueError(f"num_trials must be >= 1, got {self.num_trials}")
        if int(self.workers) < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def resolved_max_steps(self) -> int:
        return _step_cap(self)


def _step_cap(plan: TrialPlan, curve: GrowthCurve | None = None) -> int:
    """plan.resolved_max_steps(), reading g^{-1}(b) off curve, a GrowthCurve of
    plan.model, when one is given instead of building a new one."""
    if plan.max_steps is not None:
        steps = int(plan.max_steps)
        if steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {steps}")
        return steps
    b = float(plan.threshold)
    if math.isinf(plan.nu):
        budget = 50.0 * math.exp(min(b, 30.0))
        return int(min(max(budget, 50.0), _MAX_DEFAULT_STEPS))
    horizon = 0.0
    if b > 0.0:
        horizon = (curve if curve is not None else GrowthCurve(plan.model)).growth_inverse(b)
    return int(plan.nu) - 1 + int(min(max(100.0 * horizon, 50.0), _MAX_DEFAULT_STEPS))


def _build_detector(plan: TrialPlan):
    if plan.detector == "wl-cusum":
        return WlCusum(plan.model, plan.threshold, plan.window)
    if plan.detector == "full-cusum":
        return FullCusum(plan.model, plan.threshold)
    return WlGlr(plan.model, plan.threshold, plan.window, plan.grid)


def _scans(detector, trials: int) -> bool:
    """Whether a batch of this many trials advances by ``_LagBank._scan``.

    Only a bank with no grid and a fixed cap of at most _SCAN_CAP lags, and
    only while one sub-block fits _SCAN_ENTRIES. A full-history bank joins
    once its cap stops at a dead lag that small.
    """
    cap = detector._cap
    return (not detector._shape and not detector._grows and cap <= _SCAN_CAP
            and cap * (cap + _SCAN_STEPS) * trials <= _SCAN_ENTRIES)


def _lockstep(detector, plans: list[TrialPlan], start: int, stop: int, caps: list[int]):
    """Trials start .. stop - 1 run together for every plan, a sub-block or a step at a time.

    The plans are operating points: they differ only in threshold, window and
    step cap (caps), and detector is built from the widest window. Column r
    of the (L, T[, G]) bank and entry r of the RNG list belong to trial
    live[r]. A point table, built once, holds each point's floor, cap and
    maxima column: the columns are the points' spans min(window + 1, cap)
    below cap, ascending, then the whole bank, and a span's newest lags hold
    bit for bit the bank of its window. Each advance, a ``_scan`` of up to
    _SCAN_STEPS steps or one ``_advance``, gives every live trial one max per
    column after each of its steps. A trial alarms for a point at its first
    step, up to the point's cap, with max(0, that max) >= b; a point still
    waiting at its cap is censored there. A trial leaves the batch when the
    advance ends in which its last point alarmed or reached its cap, and a
    point leaves when no live trial waits on it (ids drops its table row),
    so a strict point's long trials pay for no finished point's checks.
    Blocks are drawn only at block boundaries and only for live trials,
    exactly as one trial running alone draws them, so every trial sees the
    observations it would see alone. A sub-block ends before any row with a
    non-finite statistic, which one step feeds through the model's scalar
    hook: only a trial that consumes an off-support draw, at a step some
    point still needs, raises SupportError. Grid banks, full-history banks
    that still grow and caps above _SCAN_CAP take one ``_advance`` per step.
    """
    model, cap = plans[0].model, detector._cap
    # a statistic is 0 when every hypothesis is negative, so max(0, max) >= b is
    # max >= floor: only the max can stop a trial when b > 0, and all but a NaN does when b <= 0
    floors = np.array([[-math.inf if p.threshold <= 0.0 else float(p.threshold)] for p in plans])
    spans = [cap if p.window is None else min(p.window + 1, cap) for p in plans]
    narrow = sorted({s for s in spans if s < cap})
    columns = np.array([len(narrow) if s == cap else narrow.index(s) for s in spans])
    max_steps, caps = max(caps), np.array(caps)
    times = np.empty((len(plans), stop - start), dtype=np.int64)
    times[:] = caps[:, None]
    censored = np.ones(times.shape, dtype=bool)
    ids = np.arange(len(plans))  # the points some live trial waits on
    # (point of ids, live trial): neither alarmed nor at its cap; None while one
    # point is left, as then every live trial waits on it
    pending = None if len(plans) == 1 else censored.copy()
    # the table rows of ids; which is None while the points are the columns
    point_floors, point_caps = floors, caps
    floor, next_cap = point_floors.min(), point_caps.min()
    which = None if columns.tolist() == [*range(len(narrow) + 1)] else columns
    live = np.arange(stop - start)
    rngs = [np.random.default_rng([plans[0].seed, i]) for i in range(start, stop)]
    lams = np.empty((0, len(live), *detector._shape))
    grid = bool(detector._shape)  # then one statistic per trial is broadcast over it
    hot = False  # as in _LagBank.step, against the block's largest |s|

    def advance(j: int):
        """Steps j .. e - 1 of the block: (e, the top bank max, each step's (e - j, C, T)
        maxima, one per column), the maxima None for one step whose top is below the floor."""
        nonlocal lams
        if _scans(detector, len(live)) and checked[j]:
            e = min(j + _SCAN_STEPS, len(checked))
            if not checked[j:e].all():
                e = j + int(checked[j:e].argmin())
            maxima, lams = detector._scan(lams, stats[j:e, rows], narrow)
            return e, maxima.max(), maxima
        s = stats[j][rows]
        if not checked[j]:
            # off the support or a genuine infinity: the scalar hook decides, as a step would
            s = np.array([v if math.isfinite(v) else model.sufficient_stat(x)
                          for x, v in zip(block[j][rows], s)])
        lams = detector._advance(lams, s[:, None] if grid else s)
        top = lams.max()
        if top < floor:
            return j + 1, top, None
        bank = lams.max(axis=2) if grid else lams
        maxima = np.empty((len(narrow) + 1, len(live)))
        # the whole bank is the last column: a full-history bank outgrows its first cap
        bank.max(axis=0, out=maxima[-1])
        for span, column in zip(narrow, maxima):
            bank[-span:].max(axis=0, out=column)
        return j + 1, top, maxima[None]

    for n in range(0, max_steps, _STREAM_BLOCK):  # n steps done before the block
        k = min(_STREAM_BLOCK, max_steps - n)
        # (k, T): row j holds step n + 1 + j of every trial live at the boundary;
        # the old block goes first, so at most one is held at a time
        block = stats = None
        block = np.empty((k, len(rngs)))
        for r, rng in enumerate(rngs):
            block[:, r] = model.sample_segment(rng, plans[0].nu, n + 1, k)
        stats = model.sufficient_stats(block.ravel()).reshape(block.shape)
        finite = np.isfinite(stats)
        if finite.all():  # as a rule: then no masked copy of the block
            checked = np.ones(k, dtype=bool)
            s_top = max(stats.max(), -stats.min())
        else:
            checked = finite.all(axis=1)
            s_top = np.abs(stats[finite]).max(initial=0.0)  # only a finite s can overflow
        rows = np.arange(len(live))  # block column of each live trial
        j = 0
        while j < k:
            # the bound falls when a full-history bank grows mid-block, so compare every advance
            hot = hot or not s_top <= detector._s_safe
            if hot:
                # invalid too: a trial that alarmed in a scan steps on to the block's end,
                # where inf - inf may meet; a live trial's NaN still raises below
                with np.errstate(over="ignore", invalid="ignore"):
                    e, top, maxima = advance(j)
            else:
                e, top, maxima = advance(j)
            j, before = e, n + j  # steps done before the advance
            left = False  # whether a trial or a point may have finished
            if not top < floor:  # a NaN top goes on
                if which is not None:
                    maxima = maxima[:, which]  # (rows, points, T)
                raised, in_cap = maxima >= point_floors, True
                if next_cap < n + j:  # rows past a point's cap do not count for it
                    in_cap = np.arange(len(maxima))[:, None, None] < (point_caps - before)[:, None]
                    raised &= in_cap
                alarm = raised[0] if len(raised) == 1 else np.logical_or.reduce(raised)
                if pending is not None:
                    alarm = alarm & pending
                if math.isnan(top):
                    # a NaN counts for a point up to its alarm: past it that point is done
                    before_alarm = np.arange(len(maxima))[:, None, None] < raised.argmax(axis=0)
                    nan = np.isnan(maxima) & in_cap & (~alarm | before_alarm)
                    if pending is not None:
                        nan &= pending
                    if nan.any():
                        r = int(nan.any(axis=(1, 2)).argmax())
                        bad = int(live[nan[r].any(axis=0)][0]) + start
                        raise FloatingPointError(
                            f"NaN in the hypothesis bank of trial {bad} at step {before + r + 1}")
                point, col = alarm.nonzero()
                if len(col):
                    # one step's row is its alarm row; a scan's point alarms at its first raised row
                    ends = before + 1
                    if len(raised) > 1:
                        ends = ends + raised.argmax(axis=0)[point, col]
                    if pending is not None:
                        pending ^= alarm  # alarm holds only pending points
                    if len(ids) < len(plans):
                        point = ids[point]
                    hit = live[col]
                    times[point, hit], censored[point, hit] = ends, False
                    left = True
            if n + j >= next_cap:
                if pending is None:  # the last point's cap: its live trials are censored
                    return times, censored
                pending &= (point_caps > n + j)[:, None]
                left = True
            if left:
                stay = ~alarm[0] if pending is None else np.logical_or.reduce(pending)
                kept = np.count_nonzero(stay)
                if not kept:
                    return times, censored
                if kept < len(stay):
                    live, lams, rows = live[stay], lams[:, stay], rows[stay]
                    rngs = [rng for rng, on in zip(rngs, stay) if on]
                    if pending is not None:
                        pending = pending[:, stay]
                if pending is not None:
                    waits = np.logical_or.reduce(pending, axis=1)
                    if not waits.all():
                        ids, pending = ids[waits], pending[waits]
                        if len(ids) == 1:
                            pending = None
                        point_floors, point_caps, which = floors[ids], caps[ids], columns[ids]
                        floor, next_cap = point_floors.min(), point_caps.min()
    return times, censored


def _run_chunk(plans: list[TrialPlan], start: int, stop: int, caps: list[int]):
    times = np.empty((len(plans), stop - start), dtype=np.int64)
    censored = np.empty((len(plans), stop - start), dtype=bool)
    # one detector for every point, its coefficient tables for every batch: the
    # widest window's bank holds each narrower one's entries, bit for bit
    detector = _build_detector(max(plans, key=lambda p: p.window or 0))
    cap = detector._cap
    if _scans(detector, 1):
        size = _SCAN_ENTRIES // (cap * (cap + _SCAN_STEPS))
    else:
        # entries per trial at the start; full-history banks grow on
        size = _BATCH_ENTRIES // (cap * math.prod(detector._shape))
    size = max(1, min(_BATCH_TRIALS, size))
    for lo in range(start, stop, size):
        hi = min(lo + size, stop)
        times[:, lo - start : hi - start], censored[:, lo - start : hi - start] = _lockstep(
            detector, plans, lo, hi, caps)
    return times, censored


def _run(plans: list[TrialPlan], curve: GrowthCurve | None = None):
    """(P, N) stopping times and censoring flags of P plans that differ only in
    threshold, window and max_steps, from one run of the trials they share.

    Row p equals run_trials(plans[p]) bit for bit. curve, a GrowthCurve of
    the plans' model, serves every default step cap when given.
    """
    for plan in plans:
        if plan.detector != "full-cusum" and plan.window is None:
            raise ValueError(
                f"{plan.detector} needs a window before trials can run; "
                "window=None is only a placeholder for per-alpha sizing"
            )
    caps = [_step_cap(plan, curve) for plan in plans]
    n, workers = int(plans[0].num_trials), plans[0].workers
    if workers == 1:
        return _run_chunk(plans, 0, n, caps)
    # one chunk per worker: a lockstep batch pays its per-step cost until its
    # longest trial ends, so fewer, larger batches do less work in total
    chunk = max(1, math.ceil(n / workers))
    bounds = [(a, min(a + chunk, n)) for a in range(0, n, chunk)]
    times = np.empty((len(plans), n), dtype=np.int64)
    censored = np.empty((len(plans), n), dtype=bool)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_chunk, plans, a, b, caps) for a, b in bounds]
        for (a, b), fut in zip(bounds, futures):
            times[:, a:b], censored[:, a:b] = fut.result()
    return times, censored


def run_trials(plan: TrialPlan) -> tuple[np.ndarray, np.ndarray]:
    """Stopping times and censoring flags for every trial, in trial order."""
    times, censored = _run([plan])
    return times[0], censored[0]


@dataclass
class DelayEstimate:
    """Mean stopping-time summary with censoring bookkeeping.

    Censored trials (no alarm before the step cap) enter the mean at the cap,
    so a nonzero censor_rate means the reported mean is a lower bound.
    """

    mean: float
    stderr: float
    num_uncensored: int
    censor_rate: float
    num_false_starts: int = 0

    @property
    def lower_bound_only(self) -> bool:
        return self.censor_rate > 0.0


def _summarize(values: np.ndarray, num_uncensored: int, censor_rate: float, false_starts=0):
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else math.inf
    return DelayEstimate(
        mean=mean,
        stderr=stderr,
        num_uncensored=int(num_uncensored),
        censor_rate=float(censor_rate),
        num_false_starts=int(false_starts),
    )


def estimate_mtfa(plan: TrialPlan, results=None) -> DelayEstimate:
    """Mean time to false alarm under the pre-change law (plan.nu must be inf).

    Pass results=(times, censored) from an earlier run_trials(plan) to reuse
    simulations already on hand; otherwise the trials run here.
    """
    if not math.isinf(plan.nu):
        raise ValueError("MTFA estimation requires nu = math.inf (no change)")
    times, censored = results if results is not None else run_trials(plan)
    est = _summarize(times, (~censored).sum(), censored.mean())
    if est.censor_rate > 0:
        warnings.warn(
            f"{censored.sum()} of {len(times)} false-alarm trials hit the step cap; "
            "the MTFA estimate is a lower bound",
            RuntimeWarning,
            stacklevel=2,
        )
    return est


def estimate_add(plan: TrialPlan, results=None) -> DelayEstimate:
    """Average detection delay (tau - nu + 1) conditioned on tau >= nu.

    Trials that alarm before the change (false starts) are excluded from the
    average and counted in num_false_starts. Censored trials contribute the
    cap as a lower bound; a censor rate above 5% triggers a warning. As with
    estimate_mtfa, results=(times, censored) reuses existing simulations.
    """
    if math.isinf(plan.nu):
        raise ValueError("delay estimation requires a finite change point nu")
    nu = int(plan.nu)
    times, censored = results if results is not None else run_trials(plan)
    ok = censored | (times >= nu)  # censored streams never alarmed at all
    false_starts = int((~ok).sum())
    if not ok.any():
        raise ValueError("every trial alarmed before the change point; raise the threshold")
    delays = times[ok] - nu + 1
    cens = censored[ok]
    est = _summarize(delays, (~cens).sum(), cens.mean(), false_starts)
    if est.censor_rate > 0.05:
        warnings.warn(
            f"censor rate {est.censor_rate:.1%} exceeds 5%; "
            "the delay estimate is badly truncated, raise max_steps",
            RuntimeWarning,
            stacklevel=2,
        )
    return est


@dataclass
class OcRow:
    """One operating-characteristic point: calibration plus measured delay."""

    alpha: float
    threshold: float
    window: int | None
    delay: DelayEstimate


def operating_characteristic(
    template: TrialPlan,
    alphas,
    *,
    safety: float = 1.1,
    glr_inputs: GlrThresholdInputs | None = None,
) -> list[OcRow]:
    """Delay-vs-alpha curve with per-alpha calibrated threshold and window.

    The same master seed (hence the same observation paths) is reused across
    alphas, which smooths the curve the way common random numbers do. For
    wl-glr templates, pass glr_inputs (its alpha field is overridden per row);
    wl-cusum rows use b = |ln alpha|. A window fixed in the template is kept;
    window=None sizes it per alpha from the growth curve. Every alpha is
    calibrated first and then all of them run as one set of trials on one
    bank, each row bit for bit the estimate_add of its plan run alone.
    """
    if math.isinf(template.nu):
        raise ValueError("operating characteristics are delay curves; set a finite nu")
    curve = GrowthCurve(template.model)
    alphas = [float(alpha) for alpha in alphas]
    plans = []
    for alpha in alphas:
        if template.detector == "wl-glr":
            if glr_inputs is None:
                raise ValueError("wl-glr operating characteristic needs glr_inputs")
            b = replace(glr_inputs, alpha=alpha).solve()
        else:
            b = cusum_threshold(alpha)
        m = template.window
        if m is None and template.detector != "full-cusum":
            m = window_size(curve, alpha, safety)
        plans.append(replace(template, threshold=b, window=m))
    if not plans:
        return []
    times, censored = _run(plans, curve)
    return [OcRow(alpha=alpha, threshold=plan.threshold, window=plan.window,
                  delay=estimate_add(plan, results=results))
            for alpha, plan, *results in zip(alphas, plans, times, censored)]


@dataclass
class QqReport:
    """Quantile-quantile comparison of stopping times against a geometric law.

    p_hat = 1 / mean is the moment fit on {1, 2, ...}; correlation is the
    Pearson correlation of (theoretical, empirical) quantile pairs. Values
    near 1 say the false-alarm mechanism behaves like a memoryless clock.
    """

    p_hat: float
    probs: np.ndarray
    empirical: np.ndarray
    theoretical: np.ndarray
    correlation: float
    num_samples: int


def _geom_ppf(q: np.ndarray, p: float) -> np.ndarray:
    """Least k >= 1 with 1 - (1 - p)^k >= q, for q and p in (0, 1).

    scipy's geom ``_ppf``: the same bits as ``scipy.stats.geom.ppf`` without
    importing scipy.stats.
    """
    vals = np.ceil(np.log1p(-q) / np.log1p(-p))
    return np.where((-np.expm1(np.log1p(-p) * (vals - 1)) >= q) & (vals > 0), vals - 1, vals)


def geometric_qq(times) -> QqReport:
    """Compare uncensored stopping times against the fitted geometric law.

    The quantiles are taken at the fixed grid of probabilities 0.01, 0.02,
    ..., 0.99. Requires at least 100 uncensored samples; constant samples
    have no quantile spread and raise ValueError.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 100:
        raise ValueError(f"need at least 100 uncensored stopping times, got {times.shape}")
    if np.any(times < 1):
        raise ValueError("stopping times must be >= 1")
    if times.min() == times.max():
        raise ValueError("stopping times are constant; a QQ comparison is undefined")
    probs = np.arange(1, 100) / 100.0
    p_hat = 1.0 / times.mean()
    empirical = np.quantile(times, probs)
    theoretical = _geom_ppf(probs, p_hat)
    if theoretical.min() == theoretical.max():
        raise ValueError("fitted geometric quantiles are constant; p_hat is degenerate")
    corr = float(np.corrcoef(theoretical, empirical)[0, 1])
    return QqReport(
        p_hat=float(p_hat),
        probs=probs,
        empirical=empirical,
        theoretical=theoretical,
        correlation=corr,
        num_samples=len(times),
    )
