"""Every demo script runs from a foreign directory, and the committed report pairs reproduce."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# the CSV numbers' tolerance; a failure's final_deviation is its pair's last abs_deviation cell
NUMBER_ATOL = 1e-12


def _split_failures(failures):
    """(failures without their float fields, those floats in list order)."""
    exact = [{k: v for k, v in f.items() if not isinstance(v, float)} for f in failures]
    floats = [v for f in failures for v in f.values() if isinstance(v, float)]
    return exact, floats


def _outcomes(payload):
    """What must reproduce exactly: verdicts, pass/fail, failures without their
    floats and the decay fits' point counts."""
    sweep = payload["sweep"]
    pairs = {
        p["label"]: {
            test: (entry["verdict"], (entry.get("decay") or {}).get("points_used"))
            for test, entry in p["tests"].items()
        }
        for p in sweep["pairs"]
    }
    checks = {name: c["passed"] for name, c in payload["checks"].items()}
    return payload["passed"], _split_failures(payload["failures"])[0], sweep["verdicts"], pairs, checks


def _check_committed_pair(name, tmp_path):
    """demos/reports/NAME.* is what the runner writes for demos/configs/NAME.json today."""
    committed = ROOT / "demos" / "reports"
    config = ROOT / "demos" / "configs" / f"{name}.json"
    _, (json_path, csv_path) = run_config_file(config, {"output_dir": str(tmp_path)})

    old_csv = (committed / f"{name}.decay.csv").read_bytes()
    assert old_csv.count(b"\n") == old_csv.count(b"\r\n") > 1
    old_rows, new_rows = _csv_rows(committed / csv_path.name), _csv_rows(csv_path)
    assert old_rows[0] == new_rows[0] == list(CSV_HEADER)
    assert len(old_rows) == len(new_rows)
    assert [r[:2] for r in old_rows] == [r[:2] for r in new_rows]
    old_numbers = np.array([r[2:] for r in old_rows[1:]], dtype=float)
    new_numbers = np.array([r[2:] for r in new_rows[1:]], dtype=float)
    np.testing.assert_allclose(new_numbers, old_numbers, rtol=0, atol=NUMBER_ATOL)

    old_payload = json.loads((committed / json_path.name).read_text())
    new_payload = json.loads(json_path.read_text())
    assert _outcomes(new_payload) == _outcomes(old_payload)
    # another BLAS kernel moves a final_deviation by a few 1e-18, as it moves the CSV cell
    old_floats = _split_failures(old_payload["failures"])[1]
    new_floats = _split_failures(new_payload["failures"])[1]
    assert len(new_floats) == len(old_floats)
    np.testing.assert_allclose(new_floats, old_floats, rtol=0, atol=NUMBER_ATOL)
    assert new_payload["config"] == old_payload["config"]


def test_committed_report_pair_reproduces(tmp_path):
    _check_committed_pair("markov_aperiodic", tmp_path)


def test_committed_period2_pair_reproduces(tmp_path):
    """The period-2 chain never settles, so its sweep goes through the cycle fill."""
    _check_committed_pair("markov_period2", tmp_path)
