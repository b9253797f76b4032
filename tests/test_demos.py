"""Every demo script runs from a foreign directory, and the committed report pairs reproduce."""

import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinsource.runner import CSV_HEADER, run_config_file

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert not list(tmp_path.glob("spinsource-demo-*"))


def _compare_reports():
    """tools/compare_reports.py, the one statement of which report fields are exact."""
    spec = importlib.util.spec_from_file_location("compare_reports", ROOT / "tools" / "compare_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# the measured numbers' tolerance: every CSV column, and every final_deviation, which for a
# failure is its pair's last abs_deviation cell
NUMBER_ATOL = 1e-12


def _check_committed_pair(name, tmp_path):
    """demos/reports/NAME.* is what the runner writes for demos/configs/NAME.json today."""
    committed = ROOT / "demos" / "reports"
    config = ROOT / "demos" / "configs" / f"{name}.json"
    _, (json_path, csv_path) = run_config_file(config, {"output_dir": str(tmp_path)})

    old_csv = (committed / f"{name}.decay.csv").read_bytes()
    assert old_csv.count(b"\n") == old_csv.count(b"\r\n") > 1
    old_rows, new_rows = _csv_rows(committed / csv_path.name), _csv_rows(csv_path)
    assert old_rows[0] == new_rows[0] == list(CSV_HEADER)
    old_payload = json.loads((committed / json_path.name).read_text())
    new_payload = json.loads(json_path.read_text())

    comparison = _compare_reports().Comparison()
    comparison.csv_file(csv_path.name, old_rows, new_rows)
    comparison.json_file(json_path.name, old_payload, new_payload)
    assert comparison.mismatches == []
    # the argmax the comparator lets move is exact in a check failure
    assert [m for m in comparison.moved_argmax if m[1].startswith(".failures")] == []
    assert set(comparison.by_column) == set(CSV_HEADER[2:])
    assert max(comparison.by_column.values()) <= NUMBER_ATOL
    # another BLAS kernel moves a final_deviation by a few 1e-18, as it moves the CSV cell;
    # a failed check's float is its worst_deviation
    assert comparison.by_key["final_deviation"] <= NUMBER_ATOL
    assert comparison.by_key["worst_deviation"] <= NUMBER_ATOL
    assert new_payload["config"] == old_payload["config"]


def test_committed_report_pair_reproduces(tmp_path):
    _check_committed_pair("markov_aperiodic", tmp_path)


def test_committed_period2_pair_reproduces(tmp_path):
    """The period-2 chain never settles, so its sweep goes through the cycle fill."""
    _check_committed_pair("markov_period2", tmp_path)
