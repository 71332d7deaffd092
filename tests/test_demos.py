"""The read-only demos run from any working directory, with their trial counts lowered."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name, lowered, printed", [
    ("epidemic_monitoring", dict(RESTARTS=2), "ALARM on"),
    ("geometric_qq", dict(TRIALS=120), "false-alarm runs: 120"),
    ("growth_diagnostics", {}, "=== exponential"),
    ("operating_characteristic", dict(TRIALS=20), "20 trials per point"),
], ids=["epidemic_monitoring", "geometric_qq", "growth_diagnostics", "operating_characteristic"])
def test_demo_runs_from_another_directory(name, lowered, printed, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    for constant, value in lowered.items():
        setattr(demo, constant, value)
    monkeypatch.chdir(tmp_path)
    demo.main()
    assert printed in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []  # it writes nothing
