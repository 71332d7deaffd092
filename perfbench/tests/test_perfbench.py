"""Tests of the benchmark itself: reference check, metric output, seeding."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from speed import REFERENCE_S, Speedometer
from workloads import WORKLOADS, MtfaWlGem

HERE = Path(__file__).resolve().parents[1]
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_reference_rejects_perturbed_stopping_times(tmp_path):
    wl = MtfaWlGem(5, tmp_path)
    rounds = [wl.run_round(0)]
    assert wl.check(rounds).mismatches == []
    rounds[0].record["times"] = [t + 1 for t in rounds[0].record["times"]]
    mismatches = wl.check(rounds).mismatches
    assert len(mismatches) == 3  # one per sampled trial
    assert all("reference" in m for m in mismatches)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_speed_factor_uses_the_samples_in_and_next_to_an_interval():
    meter = Speedometer()
    assert meter.factor(0.0, 1.0) == 1.0  # nothing sampled: CPU time as measured
    ref = REFERENCE_S
    meter.at = [0.0, 0.5, 1.0, 10.0]
    meter.cost = [ref, 2 * ref, 4 * ref, 8 * ref]
    assert meter.factor(0.6, 0.9) == pytest.approx(1 / 3)  # one sample on each side
    assert meter.factor(0.4, 0.6) == pytest.approx(3 / 7)  # one inside, one on each side
    assert meter.factor(0.1, 1.5) == pytest.approx(4 / 15)
    assert meter.factor(11.0, 12.0) == 1 / 8  # after the last sample
    assert meter.scaled(0.6, 0.9) == pytest.approx(0.1)


def test_sampling_time_is_left_out_of_the_clock():
    meter = Speedometer()
    with meter:
        start, deadline = meter.clock(), time.thread_time() + 0.5
        while time.thread_time() < deadline:
            pass
        end = meter.clock()
    assert len(meter.cost) >= 5 and meter.overhead > 0
    assert end - start == pytest.approx(0.5 - meter.overhead, abs=0.02)


@pytest.fixture(scope="module")
def outputs():
    """stdout of a short untraced and a short traced run of every workload, seed 3."""
    result = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "0.5", "--trace", str(trace)],
                capture_output=True, text=True, cwd=HERE.parent, timeout=170, check=False)
            assert proc.returncode == 0, proc.stderr
            result[name, trace] = proc.stdout
    return result


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_printed_with_unit(outputs, name, trace):
    stdout = outputs[name, trace]
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in spec:
        line = re.search(rf"^metric {re.escape(m['name'])} = (\S+) (\S+)$", stdout, re.M)
        assert line and line.group(2) == m["unit"]
        if not trace:
            assert float(line.group(1)) > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_digest(outputs, name):
    digests = [re.search(r"^digest: (\w+)$", outputs[name, trace], re.M).group(1)
               for trace in (0, 1)]
    assert digests[0] == digests[1]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_different_seed_different_inputs(tmp_path, name):
    cls = WORKLOADS[name]
    first, again, other = (cls(seed, tmp_path / str(i)).inputs_digest()
                           for i, seed in enumerate((1, 1, 2)))
    assert first == again != other


def test_refuses_to_run_without_the_library(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for path in HERE.glob("*.py"):
        (bare / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(bare / "run.py"), "--workload", "stream-gem",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
