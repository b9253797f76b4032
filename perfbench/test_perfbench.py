"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import layers
import run
from spans import Span, self_times
from speed import INTERVAL, REFERENCE_KERNEL_S, Speed
from workloads import PASS, PERIODIC, WORKLOADS, Case, generate

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = generate(workload, 7)
    assert first == generate(workload, 7)
    other = generate(workload, 8)
    assert [c.config for c in other] != [c.config for c in first]
    # the seed picks numbers, never sizes
    assert [c.name for c in other] == [c.name for c in first]
    assert [c.config.get("n_max") for c in other] == [c.config.get("n_max") for c in first]


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        Span(0, -1, "t", "outer", 0, 100),
        Span(1, 0, "t", "child", 10, 30),
        Span(2, 1, "t", "grandchild", 12, 20),
        Span(3, 0, "t", "child", 50, 80),
    ]
    times = self_times(spans)
    assert times["outer"] == pytest.approx(50e-9)
    assert times["child"] == pytest.approx((20 - 8 + 30) * 1e-9)
    assert times["grandchild"] == pytest.approx(8e-9)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, -1, "t", "outer", 0, 100),
        Span(1, 0, "t", "a", 10, 40),
        Span(2, 0, "t", "b", 30, 60),
    ]
    assert self_times(spans)["outer"] == pytest.approx(50e-9)


def test_speed_factor_scales_to_the_reference_kernel():
    speed = Speed()
    speed.samples = [REFERENCE_KERNEL_S * 2, REFERENCE_KERNEL_S * 4, REFERENCE_KERNEL_S * 3]
    assert speed.factor() == pytest.approx(1 / 3)
    speed._last -= 3.5 * INTERVAL
    speed.catch_up()  # owes one timing per whole INTERVAL since the last
    assert len(speed.samples) == 6
    speed.catch_up()  # owes none
    assert len(speed.samples) == 6


@pytest.fixture(scope="module")
def cyclic_outcome():
    ss = run._import_program()
    case = next(c for c in generate("config_batch", 3) if "cyclic" in c.name)
    return case, ss.run_experiment(ss.ExperimentConfig.from_dict(case.config))


def test_gate_accepts_the_pinned_outcome(cyclic_outcome):
    case, outcome = cyclic_outcome
    assert case.verdicts == PERIODIC
    assert run.judge(case, outcome) is None


def test_gate_catches_a_wrong_pinned_verdict(cyclic_outcome):
    case, outcome = cyclic_outcome
    assert run.judge(Case(case.config, case.exit_code, PASS), outcome) is not None
    assert run.judge(Case(case.config, 0, case.verdicts), outcome) is not None
    assert run.judge(case, ValueError("boom")) is not None


def test_gate_catches_a_verdict_that_contradicts_the_oracle():
    outcome = SimpleNamespace(
        passed=True,
        sweep=SimpleNamespace(verdicts=PASS),
        classification=SimpleNamespace(verdicts=(True, False, False)),
    )
    assert "contradicts the oracle" in run.judge(Case({}, 0, PASS), outcome)


def _result_line(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.units()


def test_traced_run_reports_every_per_layer_metric():
    line = _result_line("--workload", "config_batch", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert line["correct"] and line["failed"] == 0
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert sorted(line["metrics"]) == sorted(names)
    assert line["metrics"]["classical.gap_steps"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "config_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
