"""The benchmark tracer (perfbench/tracing.py) still finds every method and function it patches."""

import importlib.util
import inspect
from pathlib import Path

import wlcusum
from wlcusum import calibration, cli, detectors, epidata, growth, models, montecarlo

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (wlcusum, calibration, cli, detectors, epidata, growth, models, montecarlo)
# methods the tracer takes from the class's own __dict__
CLASS_PATCHES = {
    ("ObservationModel", "sample_segment"),
    *((cls, attr) for cls in ("GemModel", "DecayModel", "BetaWaveModel")
      for attr in ("llr_terms", "with_theta", "sufficient_stat")),
    ("GrowthCurve", "growth_inverse"),
    ("WlCusum", "step"),
    ("FullCusum", "step"),
    ("WlGlr", "__init__"),
    ("WlGlr", "step"),
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot() -> dict:
    """Every attribute of the wlcusum modules and of the classes they define."""
    snap = {}
    for mod in MODULES:
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    snap[(value.__name__, attr)] = member
    return snap


def test_instrument_patches_and_restore_puts_the_originals_back():
    tracing = _load_tracing()
    before = _snapshot()
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        during = _snapshot()
    finally:
        tracer.restore()
    after = _snapshot()
    patched = {key for key, value in during.items() if value is not before[key]}
    assert CLASS_PATCHES <= patched
    assert {("wlcusum.calibration", "window_size"), ("wlcusum.cli", "main")} <= patched
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
