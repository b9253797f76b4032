"""The report comparison script: exact fields must match, floats are measured."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "compare_reports.py"

REPORT = {
    "checks": {"consistency": {"passed": True, "worst_deviation": 1e-16, "worst_pair": [1, 2]}},
    "failures": [{"kind": "test", "name": "weak_mixing", "pair": "proj_0", "final_deviation": 0.5}],
    "passed": False,
    "sweep": {"verdicts": {"ergodic_mean": "pass"}, "decay": {"points_used": 75, "rate": 0.7}},
}
CSV = "pair,i,corr_real\r\nproj_0,1,0.5\r\nproj_0,2,0.25\r\n"


def _write(directory: Path, report: dict, csv_text: str = CSV) -> Path:
    directory.mkdir()
    (directory / "run.report.json").write_text(json.dumps(report))
    (directory / "run.decay.csv").write_text(csv_text, newline="")
    return directory


def _compare(a: Path, b: Path):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(a), str(b)], capture_output=True, text=True, timeout=60
    )


def test_float_differences_are_measured(tmp_path):
    moved = json.loads(json.dumps(REPORT))
    moved["sweep"]["decay"]["rate"] = 0.7 + 3e-16
    moved["checks"]["consistency"]["worst_pair"] = [2, 1]
    a = _write(tmp_path / "a", REPORT)
    b = _write(tmp_path / "b", moved, CSV.replace("0.25", repr(0.25 + 2**-54)))
    result = _compare(a, b)
    assert result.returncode == 0, result.stdout
    assert "rate\t3.331e-16" in result.stdout
    assert "corr_real\t5.551e-17" in result.stdout
    assert "worst_pair moved in 2 places" in result.stdout


@pytest.mark.parametrize(
    "path, value",
    [
        (("sweep", "verdicts", "ergodic_mean"), "fail"),
        (("passed",), True),
        (("sweep", "decay", "points_used"), 74),
        (("failures", 0, "name"), "strong_mixing"),
    ],
)
def test_exact_fields_must_match(tmp_path, path, value):
    changed = json.loads(json.dumps(REPORT))
    target = changed
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    result = _compare(_write(tmp_path / "a", REPORT), _write(tmp_path / "b", changed))
    assert result.returncode == 1
    assert "exact-field mismatches: 1" in result.stdout


def test_missing_file_and_csv_rows_mismatch(tmp_path):
    a = _write(tmp_path / "a", REPORT)
    b = _write(tmp_path / "b", REPORT, CSV + "proj_0,3,0.125\r\n")
    (a / "extra.report.json").write_text(json.dumps(REPORT))
    result = _compare(a, b)
    assert result.returncode == 1
    assert "only in A" in result.stdout and "run.decay.csv rows" in result.stdout


def _bench_pairs():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT_WALL = [0.23, 0.22, 0.24, 0.23, 0.25, 0.22, 0.23, 0.24, 0.23, 0.22]


def test_claim_holds_for_a_clear_gain():
    verdict = _bench_pairs().judge_pairs(PARENT_WALL, [p / 2 for p in PARENT_WALL], "lower")
    assert verdict["wins"] == 10 and verdict["claim_holds"]
    assert verdict["parent"] == pytest.approx((0.2225, 0.23, 0.2375))
    assert verdict["parent_iqr"] == pytest.approx(0.015)


@pytest.mark.parametrize(
    "change, why",
    [
        ([p - 0.02 for p in PARENT_WALL[:9]] + [0.26], "wins"),  # 9 of 10 wins, median gain > IQR: holds
        ([p - 0.02 for p in PARENT_WALL[:8]] + [0.26, 0.26], "8 wins"),
        ([p - 0.01 for p in PARENT_WALL], "gain within the parent's IQR"),
        ([p / 2 for p in PARENT_WALL[:9]], "9 pairs"),
    ],
)
def test_claim_rule_edges(change, why):
    verdict = _bench_pairs().judge_pairs(PARENT_WALL[: len(change)], change, "lower")
    assert verdict["claim_holds"] == (why == "wins")


def test_higher_is_better_and_ties_are_no_win():
    bench = _bench_pairs()
    verdict = bench.judge_pairs([1.0] * 10, [2.0] * 9 + [1.0], "higher")
    assert verdict["wins"] == 9 and verdict["claim_holds"]
    assert not bench.judge_pairs([1.0] * 10, [2.0] * 10, "lower")["claim_holds"]
    with pytest.raises(ValueError):
        bench.judge_pairs([1.0], [1.0, 2.0], "lower")
