"""Monte-Carlo evaluation: false-alarm and delay estimation for detectors.

The trials of a chunk run in lockstep batches. A ``_Batch`` walks one
(lags, trials[, grid]) bank of its live trials, laid out as a detector's own
(lags, 1[, grid]) bank: it draws blocks and advances through them. A
false-alarm run draws 512 steps a block; a delay run (finite nu) first draws
the least power of two of at least nu - 1 + 32 steps, then doubles each block
up to 512, so a trial that alarms soon after the change draws little past it.
A block is trial-major, one contiguous row of draws per trial. A
window-limited bank with no grid and at most _SCAN_CAP lags (a full-history
one too, once its cap stops at a dead lag that small) advances through up to
B = _SCAN_STEPS drawn steps per ``_LagBank._scan`` call (2B, the rest of a
512-step block, once fewer than _SCAN_THIN trials are live), with no Python
loop per step; on GEM with m = 23 that runs about 3x the trials per second of
one step per call. Every other bank takes ``_advance``, the
update a detector's own step applies, once per step: a block with a grid
axis was 0.29-0.65x as fast on the oc-glr-gem plans (G = 50, trials of about
22 steps), and a block's cap * (cap + B) work gained nothing at m = 200 and
lost at m = 255. Worker processes only split the trial range into chunks.

An operating characteristic is one such run for the whole curve. An entry
lambda_{n,k} depends on neither the window nor the threshold, so the bank of
the widest window holds, bit for bit, every narrower window's entries in its
newest m + 1 lags. Each alpha is an operating point, a row of a table built
once per batch: its threshold, step cap and maxima column. Every advance
takes one max per column over the column's newest span lags (a grid bank's
lags first, then its grid), the whole bank last, and each point reads its own
column. ``_lockstep`` keeps the point books: one floor per (point, live
trial), which turns NaN once the point has alarmed on that trial or reached
its cap, and which no max meets. It names NaN maxima, records alarms and
censoring, drops a trial once all its floors are NaN, and a point once no
live trial waits on it.
``run_trials`` is the one-point case of the same run. A walk runs under one
numpy error scope that ignores overflow and invalid values (a +-inf entry is
a valid statistic, and the books name every NaN a point reads); the model's
draws and statistics keep the caller's settings, so its own warnings show.

Trial i draws its observations from a dedicated RNG substream keyed by
(master seed, i), in order, exactly as it would running alone in 512-step
blocks (a model's sample_segment must give the same values in any cut of a
trial's sequence, as the built-in models do), and each trial's column of the
bank gets exactly the operations of a detector's own step. A batch seeds all
its generators in one pass of numpy's SeedSequence hash (``_trial_rngs``),
state for state np.random.default_rng([seed, i]). Results are therefore
bit-for-bit reproducible for any worker count, chunk, batch or block size,
and reduced in trial-index order.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .calibration import GlrThresholdInputs, cusum_threshold, window_size
from .detectors import FullCusum, WlCusum, WlGlr
from .growth import GrowthCurve
from .models import ObservationModel, _count

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
# Below this many live trials a scan runs up to 2 * _SCAN_STEPS steps: a thin batch cannot
# amortise a scan's fixed numpy calls (about 100 us), and 16 * 128 * 640 < _SCAN_ENTRIES.
_SCAN_THIN = 16
_MAX_DEFAULT_STEPS = 10_000_000

_DETECTOR_KINDS = ("wl-cusum", "full-cusum", "wl-glr")


@dataclass(frozen=True, eq=False)
class TrialPlan:
    """Everything one batch of trials needs, picklable for worker dispatch.

    nu is the true change point (1-based); math.inf means no change ever
    happens (false-alarm runs). max_steps=None picks a default: 50 * e^b for
    false-alarm runs, nu - 1 + 100 * g^{-1}(b) for delay runs, each budget
    kept within [50, _MAX_DEFAULT_STEPS]. max_steps is checked as a count when
    resolved; a delay plan's cap must reach nu.
    Counts are whole numbers (4.0 is one), stored as ints.
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
        if self.detector == "full-cusum" and self.window is not None:
            raise ValueError(f"full-cusum reads every hypothesis, got window {self.window}")
        # refused here, the window too, not at the first detector build
        for name, least in {"num_trials": 1, "workers": 1, "window": 0, "nu": 1}.items():
            value = getattr(self, name)
            if not ((name == "window" and value is None) or (name == "nu" and value == math.inf)):
                object.__setattr__(self, name, _count(name, value, least))
        # a cap below 1 is not a count: resolved_max_steps names it
        if self.max_steps is not None and 1 <= self.max_steps < self.nu < math.inf:
            raise ValueError(f"max_steps={self.max_steps} ends before the change at nu={self.nu}; "
                             "a delay run needs max_steps >= nu")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed}")

    def resolved_max_steps(self, curve: GrowthCurve | None = None) -> int:
        """The step cap; curve, a GrowthCurve of the model, serves g^{-1}(b) when given."""
        if self.max_steps is not None:
            return _count("max_steps", self.max_steps, 1)
        b = float(self.threshold)
        if math.isinf(self.nu):
            budget = 50.0 * math.exp(min(b, 30.0))
            return int(min(max(budget, 50.0), _MAX_DEFAULT_STEPS))
        horizon = 0.0
        if b == math.inf:  # g^{-1}(+inf) = +inf: no drift reaches it
            horizon = math.inf
        elif b > 0.0:
            horizon = (curve if curve is not None else GrowthCurve(self.model)).growth_inverse(b)
        return self.nu - 1 + int(min(max(100.0 * horizon, 50.0), _MAX_DEFAULT_STEPS))


def _build_detector(plan: TrialPlan):
    if plan.detector == "wl-cusum":
        return WlCusum(plan.model, plan.threshold, plan.window)
    if plan.detector == "full-cusum":
        return FullCusum(plan.model, plan.threshold)
    return WlGlr(plan.model, plan.threshold, plan.window, plan.grid)


# numpy's SeedSequence (numpy/random/bit_generator.pyx), its published hash: a pool of
# four uint32 words, hashmix and mix, and generate_state's output hash
_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(values, xor, mult):
    values = values ^ xor
    values *= mult
    values ^= values >> 16
    return values


def _mix(x, y):
    x = x * _MIX_L
    x -= y * _MIX_R
    x ^= x >> 16
    return x


@functools.cache
def _hash_rounds(words: int) -> list:
    """Each round's (xor, multiply) columns of hashmix constants, for `words` words of
    entropy: call c xors INIT * MULT^c and multiplies by INIT * MULT^(c + 1). Rounds:
    the first four words into the pool; pool word src into each other (its own row a
    placeholder), for src = 0 .. 3; one per word past four; generate_state's 8 words."""
    def powers(init, mult, calls):
        out = [init]
        for _ in range(calls):
            out.append(out[-1] * mult & _MASK32)
        return np.array(out, dtype=np.uint32)

    a = powers(0x43B0D7E5, 0x931E8875, 16 + 4 * max(words - 4, 0))
    calls = [np.arange(4)] + [4 + 3 * src + np.arange(4) - (np.arange(4) >= src)
                              for src in range(4)]
    calls += [np.arange(16 + 4 * w, 20 + 4 * w) for w in range(words - 4)]
    b = powers(0x8B51F9DD, 0x58F38DED, 8)
    return [(a[c][:, None], a[c + 1][:, None]) for c in calls] + [(b[:-1, None], b[1:, None])]


class _SeedWords:
    """A trial's PCG64 seed words, hashed ahead: PCG64 asks a seed sequence for
    generate_state(4, np.uint64) once, and gets them."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _trial_rngs(seed: int, start: int, stop: int) -> list:
    """np.random.default_rng([seed, i]) for i in start .. stop - 1, state for state,
    from one vectorized pass of SeedSequence's hash over the trials."""
    if stop > 2**32:  # an index of two words: numpy's own seeding
        return [np.random.default_rng([seed, i]) for i in range(start, stop)]
    from numpy.random.bit_generator import ISeedSequence  # numpy.random loads with a run

    # public: "BitGenerator implementations should treat any object that adheres
    # to this interface as a seed sequence"
    ISeedSequence.register(_SeedWords)
    seed = int(seed)
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    # the entropy, one column per trial: the seed's words, i's word, then zeros up to
    # four words, as SeedSequence hashes 0 into the pool words past its entropy
    entropy = np.zeros((max(len(words) + 1, 4), stop - start), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(start, stop)
    rounds = _hash_rounds(len(words) + 1)
    pool = _hashmix(entropy[:4], *rounds[0])
    for src in range(4):  # each other pool word mixes in its own hash of word src
        mixed = _mix(pool, _hashmix(pool[src], *rounds[1 + src]))
        mixed[src] = pool[src]
        pool = mixed
    for word, consts in zip(entropy[4:], rounds[5:-1]):  # each word past four into all four
        pool = _mix(pool, _hashmix(word, *consts))
    state = _hashmix(np.concatenate((pool, pool)), *rounds[-1])  # 8 words, read as 4 uint64
    seeds = np.ascontiguousarray(state.T).view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_SeedWords(s))) for s in seeds]


class _Batch:
    """Trials walking one (L, T[, G]) bank together, a sub-block or a step per advance.

    Column r of the bank, entry r of rngs (seeded in one ``_trial_rngs``
    pass) and row rows[r] of the (T, k) block belong to trial live[r] (0 is
    the batch's first trial). Blocks of size steps are drawn only when the
    last one is used up and only for live trials, with the values one trial
    running alone draws: size is _STREAM_BLOCK for a false-alarm run, and a
    delay run's grows from its first block, which covers nu - 1 + 32 steps,
    by doubling. A grid bank's maxima reduce over lags before the grid: the
    (T, G) rows are contiguous. An advance scans while the live trials' scan
    block fits _SCAN_ENTRIES, up to _SCAN_STEPS steps (2 * _SCAN_STEPS, the
    rest of a 512-step block, once fewer than _SCAN_THIN trials are live),
    and steps otherwise. A sub-block ends before any row with a non-finite
    statistic, which one step feeds through the model's scalar hook: only a
    trial that consumes an off-support draw raises SupportError. It advances
    in ``_lockstep``'s error scope; the model runs under saved, the caller's.
    """

    def __init__(self, detector, plan: TrialPlan, start: int, stop: int, max_steps: int, narrow):
        self.detector, self.model, self.nu = detector, plan.model, plan.nu
        self.max_steps, self.narrow = max_steps, narrow  # narrow: the spans below cap
        self.live = np.arange(stop - start)
        self.rngs = _trial_rngs(plan.seed, start, stop)
        self.lams = np.empty((0, stop - start, *detector._shape))
        # the next block's steps: a delay run's first covers nu - 1 + 32 steps
        self.size = _STREAM_BLOCK if math.isinf(self.nu) else min(
            _STREAM_BLOCK, 1 << (self.nu + 30).bit_length())
        self.done = self.j = 0  # steps done; row j of the block is the next step
        self.checked = ()  # rows whose statistics are all finite: no block drawn yet
        self.saved = np.geterr()  # the caller's settings, under which the model runs

    @staticmethod
    def scan_entries(detector) -> int:
        """Entries per trial of a scan block, 0 for a bank that steps: one with a
        grid, or a cap above _SCAN_CAP or still growing (a full-history bank
        joins once its cap stops at a dead lag that small)."""
        cap = detector._cap
        if detector._shape or detector._grows or cap > _SCAN_CAP:
            return 0
        return cap * (cap + _SCAN_STEPS)

    def _draw(self):
        model, n = self.model, self.done
        k, self.size = min(self.size, self.max_steps - n), min(2 * self.size, _STREAM_BLOCK)
        # (T, k): column j holds step n + 1 + j; the old block goes first, so one is held at a time
        self.block = self.stats = None
        self.block = block = np.empty((len(self.rngs), k))
        with np.errstate(**self.saved):
            for rng, row in zip(self.rngs, block):
                row[:] = model.sample_segment(rng, self.nu, n + 1, k)
            self.stats = stats = model.sufficient_stats(block.ravel()).reshape(block.shape)
        self.checked = np.isfinite(stats).all(axis=0)
        self.rows, self.j = np.arange(len(self.live)), 0

    def advance(self, floor: float):
        """Advance every live trial by one scan or one step: (the top bank max, the
        (R, C, T) maxima of its R steps, one per column), the maxima None for one
        step whose top is below floor."""
        if self.j == len(self.checked):
            self._draw()
        detector, j, checked = self.detector, self.j, self.checked
        entries = self.scan_entries(detector)
        if 0 < entries * len(self.live) <= _SCAN_ENTRIES and checked[j]:
            steps = _SCAN_STEPS if len(self.live) >= _SCAN_THIN else 2 * _SCAN_STEPS
            e = min(j + steps, len(checked))
            if not checked[j:e].all():
                e = j + int(checked[j:e].argmin())
            maxima, self.lams = detector._scan(self.lams, self.stats[self.rows, j:e].T,
                                               self.narrow)
            top = maxima.max()
        else:
            e, s = j + 1, self.stats[self.rows, j]
            if not checked[j]:
                # off the support or a true infinity: the scalar hook decides, as a step would
                with np.errstate(**self.saved):
                    s = np.array([v if math.isfinite(v) else self.model.sufficient_stat(x)
                                  for x, v in zip(self.block[self.rows, j], s)])
            grid = bool(detector._shape)  # then one statistic per trial is broadcast over it
            self.lams = lams = detector._advance(self.lams, s[:, None] if grid else s)
            top, maxima = lams.max(), None
            if not top < floor:
                maxima = np.empty((1, len(self.narrow) + 1, len(self.live)))
                # the whole bank is the last column: a full-history bank outgrows its first
                # cap; a grid's lags reduce first, over contiguous (T, G) rows
                for span, column in zip((*self.narrow, len(lams)), maxima[0]):
                    if grid:
                        lams[-span:].max(axis=0).max(axis=1, out=column)
                    else:
                        lams[-span:].max(axis=0, out=column)
        self.j, self.done = e, self.done + e - j
        return top, maxima

    def keep(self, stay: np.ndarray):
        """Drop the live trials where stay is False."""
        self.live, self.lams, self.rows = self.live[stay], self.lams[:, stay], self.rows[stay]
        self.rngs = [rng for rng, on in zip(self.rngs, stay) if on]


def _lockstep(detector, plans: list[TrialPlan], caps: list[int], start: int, times, censored):
    """Trials start .. start + T - 1 run together for every plan; row p of the (P, T)
    times and censored, which hold the caps and True, gets plans[p]'s alarms.

    The plans are operating points: they differ only in threshold, window and
    step cap (caps), and detector is built from the widest window. A point
    table, built once, holds each point's floor, cap and maxima column: the
    columns are the points' spans min(window + 1, cap) below cap, ascending,
    then the whole bank, and a span's newest lags hold bit for bit the bank
    of its window. A trial alarms for a point at its first step, up to the
    point's cap, with max(0, that max) >= b; a point still waiting at its
    cap is censored there. The books hold one floor per (point, live trial),
    NaN once the point has alarmed on that trial or reached its cap, so no
    max meets it. A trial leaves the batch when the advance ends in which its
    last floor turned NaN, and a point leaves once every floor of it has
    (ids drops its table row), so a strict point's long trials pay for no
    finished point's checks.
    """
    cap = detector._cap
    # a statistic is 0 when every hypothesis is negative, so max(0, max) >= b is
    # max >= floor: only the max can stop a trial when b > 0, and all but a NaN does when b <= 0
    table = np.array([-math.inf if p.threshold <= 0.0 else float(p.threshold) for p in plans])
    spans = [cap if p.window is None else min(p.window + 1, cap) for p in plans]
    narrow = sorted({s for s in spans if s < cap})
    columns = np.array([len(narrow) if s == cap else narrow.index(s) for s in spans])
    caps = np.array(caps)
    batch = _Batch(detector, plans[0], start, start + times.shape[1], int(caps.max()), narrow)
    ids = np.arange(len(plans))  # the points some live trial waits on
    floors = np.repeat(table[:, None], times.shape[1], axis=1)  # (point of ids, live trial)
    # caps and floor of the table rows of ids; which is None while the points are the columns
    point_caps, floor, next_cap = caps, table.min(), caps.min()
    which = None if columns.tolist() == [*range(len(narrow) + 1)] else columns
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN a point reads raises below
        while True:
            before = batch.done
            top, maxima = batch.advance(floor)
            left = False  # whether a floor turned NaN
            if not top < floor:  # a NaN top goes on
                if which is not None:
                    maxima = maxima[:, which]  # (rows, points, T)
                # one point: every live trial waits on it, and one floor compares fastest
                raised, in_cap = maxima >= (floors if len(ids) > 1 else floors[:, :1]), True
                if next_cap < batch.done:  # rows past a point's cap do not count for it
                    in_cap = np.arange(len(maxima))[:, None, None] < (point_caps - before)[:, None]
                    raised &= in_cap
                alarm = raised[0] if len(raised) == 1 else np.logical_or.reduce(raised)
                if math.isnan(top):
                    # a NaN counts for a point that waits on the trial, up to its alarm
                    before_alarm = np.arange(len(maxima))[:, None, None] < raised.argmax(axis=0)
                    nan = np.isnan(maxima) & in_cap & (~alarm | before_alarm) & (floors == floors)
                    if nan.any():
                        r = int(nan.any(axis=(1, 2)).argmax())
                        bad = int(batch.live[nan[r].any(axis=0)][0]) + start
                        raise FloatingPointError(
                            f"NaN in the hypothesis bank of trial {bad} at step {before + r + 1}")
                point, col = alarm.nonzero()
                if len(col):
                    # one step's row is its alarm row; a scan's point alarms at its first raised row
                    ends = before + 1
                    if len(raised) > 1:
                        ends = ends + raised.argmax(axis=0)[point, col]
                    floors[alarm] = math.nan
                    if len(ids) < len(plans):
                        point = ids[point]
                    hit = batch.live[col]
                    times[point, hit], censored[point, hit] = ends, False
                    left = True
            if batch.done >= next_cap:  # a point still waiting at its cap is censored there
                floors[point_caps <= batch.done] = math.nan
                left = True
            if left:
                waits = floors == floors  # not NaN: the point waits on the trial
                stay = waits[0] if len(ids) == 1 else np.logical_or.reduce(waits)
                kept = np.count_nonzero(stay)
                if not kept:
                    return
                if kept < len(stay):
                    batch.keep(stay)
                    floors = floors[:, stay]
                if len(ids) > 1:
                    waits = np.logical_or.reduce(waits, axis=1)  # a trial that left waits on none
                    if not waits.all():
                        ids, floors = ids[waits], floors[waits]
                        point_caps, which = caps[ids], columns[ids]
                        floor, next_cap = table[ids].min(), point_caps.min()


def _run_chunk(plans: list[TrialPlan], start: int, stop: int, caps: list[int]):
    times = np.empty((len(plans), stop - start), dtype=np.int64)
    times.T[:] = caps
    censored = np.ones(times.shape, dtype=bool)
    # one detector for every point, its coefficient tables for every batch: the
    # widest window's bank holds each narrower one's entries, bit for bit
    detector = _build_detector(max(plans, key=lambda p: p.window or 0))
    entries, room = _Batch.scan_entries(detector), _SCAN_ENTRIES
    if not 0 < entries <= room:
        # it steps: its entries per trial at the start; full-history banks grow on
        entries, room = detector._cap * math.prod(detector._shape), _BATCH_ENTRIES
    size = max(1, min(_BATCH_TRIALS, room // entries))
    for lo in range(0, stop - start, size):
        hi = min(lo + size, stop - start)
        _lockstep(detector, plans, caps, start + lo, times[:, lo:hi], censored[:, lo:hi])
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
    caps = [plan.resolved_max_steps(curve) for plan in plans]
    n = plans[0].num_trials
    # one chunk per worker: a lockstep batch pays its per-step cost until its
    # longest trial ends, so fewer, larger batches do less work in total
    chunk = max(1, math.ceil(n / plans[0].workers))
    bounds = [(a, min(a + chunk, n)) for a in range(0, n, chunk)]
    if len(bounds) <= 1:  # one worker, or too few trials for more than one chunk
        return _run_chunk(plans, 0, n, caps)
    from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

    times = np.empty((len(plans), n), dtype=np.int64)
    censored = np.empty((len(plans), n), dtype=bool)
    with ProcessPoolExecutor(max_workers=len(bounds)) as pool:
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
    times, censored = results if results is not None else run_trials(plan)
    ok = censored | (times >= plan.nu)  # censored streams never alarmed at all
    false_starts = int((~ok).sum())
    if not ok.any():
        raise ValueError("every trial alarmed before the change point; raise the threshold")
    delays = times[ok] - plan.nu + 1
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
