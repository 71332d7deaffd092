"""Span recorder for the traced benchmark run.

Wraps public functions and methods of the library from outside: the class
attribute for methods, and for module-level functions every ``wlcusum``
module attribute bound to the function, so calls through names imported
elsewhere (``montecarlo.run_until_alarm``, ``cli.run_trials``) are caught
too. Spans are aggregated in memory per (name, parent) as count, total time
and self time (total minus the time covered by child spans); ``restore``
puts the original callables back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, time covered by child spans]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(args, result, self_s)`` runs on return."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1][0] if stack else None
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(args, result, elapsed - frame[1])
            return result

        return traced

    def patch_method(self, cls, attr: str, name: str, after=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, after))

    def patch_function(self, fn, name: str, after=None):
        traced = self.wrap(name, fn, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wlcusum" or mod_name.startswith("wlcusum.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, traced)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of span ``name`` summed over its parents."""
        calls, self_s = 0, 0.0
        for (span, _), (count, _, own) in self.spans.items():
            if span == name:
                calls += count
                self_s += own
        return calls, self_s

    def as_rows(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "count": count, "total_s": total, "self_s": own}
            for (name, parent), (count, total, own) in sorted(
                self.spans.items(), key=lambda kv: -kv[1][1])
        ]


# FullCusum.step self time is bucketed by the bank size n it worked on
FULL_BUCKETS = ((0, 1_000, "n0-1k"), (1_000, 4_000, "n1k-4k"),
                (4_000, 16_000, "n4k-16k"), (16_000, None, "n16k-up"))
LIVE_SAMPLE_EVERY = 1024  # FullCusum steps between finite-entry counts


def instrument(tracer: Tracer):
    """Patch every span and counter the per-layer metrics need."""
    import numpy as np

    from wlcusum import calibration, cli, detectors, epidata, growth, models, montecarlo

    c = tracer.counters

    def after_segment(args, result, _):
        c["draws"] += len(result)

    def after_run_trials(args, result, _):
        times, censored = result
        c["trials"] += len(times)
        c["trial_steps"] += int(np.sum(times))
        c["censored"] += int(np.sum(censored))

    def after_full_step(args, result, self_s):
        det = args[0]
        n = det.time  # a full-history bank holds one entry per step seen
        c["full_entries"] += n
        for lo, hi, label in FULL_BUCKETS:
            if n >= lo and (hi is None or n < hi):
                c[f"full_self_s.{label}"] += self_s
                break
        if n % LIVE_SAMPLE_EVERY == 0:
            values = np.array([v for _, v in det.hypotheses()])
            c["full_sampled"] += len(values)
            c["full_finite"] += int(np.isfinite(values).sum())

    def after_glr_step(args, result, _):
        det = args[0]
        c["glr_entries"] += len(det.grid) * min(det.time, det.window + 1)

    tracer.patch_method(models.ObservationModel, "sample_segment", "models.sample_segment",
                        after_segment)
    for cls in (models.GemModel, models.DecayModel, models.BetaWaveModel):
        for attr in ("llr_terms", "with_theta", "sufficient_stat"):
            tracer.patch_method(cls, attr, f"models.{attr}")
    tracer.patch_method(growth.GrowthCurve, "growth_inverse", "growth.growth_inverse")
    tracer.patch_function(calibration.window_size, "calibration.window_size")
    tracer.patch_function(calibration.glr_threshold, "calibration.glr_threshold")
    tracer.patch_method(detectors.WlCusum, "step", "detectors.WlCusum.step")
    tracer.patch_method(detectors.FullCusum, "step", "detectors.FullCusum.step", after_full_step)
    tracer.patch_method(detectors.WlGlr, "__init__", "detectors.WlGlr.init")
    tracer.patch_method(detectors.WlGlr, "step", "detectors.WlGlr.step", after_glr_step)
    tracer.patch_function(detectors.run_until_alarm, "detectors.run_until_alarm")
    tracer.patch_function(montecarlo.run_trials, "montecarlo.run_trials", after_run_trials)
    for fn in (epidata.load_case_csv, epidata.to_fraction_series,
               epidata.fit_beta_prechange, epidata.monitor):
        tracer.patch_function(fn, f"epidata.{fn.__name__}")
    tracer.patch_function(cli.main, "cli.main")
