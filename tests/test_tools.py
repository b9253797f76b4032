"""The scripts under tools/: report comparison, the benchmark harness, report regeneration."""

import csv
import io
import json
import math
import os
import statistics
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


@pytest.mark.parametrize("nan_side", ["a", "b", "both"])
def test_a_nan_on_one_side_is_an_infinite_difference(tmp_path, nan_side):
    reports, csvs = {}, {}
    for side in ("a", "b"):
        nan = nan_side in (side, "both")
        report = json.loads(json.dumps(REPORT))
        report["failures"][0]["final_deviation"] = float("nan") if nan else 0.5
        reports[side], csvs[side] = report, CSV.replace("0.25", "nan") if nan else CSV
    comparison = _load_tool("compare_reports").Comparison()
    comparison.json_file("run.report.json", reports["a"], reports["b"])
    comparison.csv_file("run.decay.csv", *(list(csv.reader(io.StringIO(csvs[s]))) for s in "ab"))
    expected = 0.0 if nan_side == "both" else math.inf
    assert comparison.by_key["final_deviation"] == comparison.by_column["corr_real"] == expected
    assert comparison.mismatches == []


def test_missing_file_and_csv_rows_mismatch(tmp_path):
    a = _write(tmp_path / "a", REPORT)
    b = _write(tmp_path / "b", REPORT, CSV + "proj_0,3,0.125\r\n")
    (a / "extra.report.json").write_text(json.dumps(REPORT))
    result = _compare(a, b)
    assert result.returncode == 1
    assert "only in A" in result.stdout and "run.decay.csv rows" in result.stdout


def test_reports_are_read_as_utf8_whatever_the_locale(tmp_path):
    labelled = CSV.replace("proj_0", "ρ⊗σ")
    dirs = []
    for name, text in (("a", labelled), ("b", labelled.replace("0.25", repr(0.25 + 2**-54)))):
        directory = _write(tmp_path / name, REPORT)
        (directory / "run.decay.csv").write_text(text, encoding="utf-8", newline="")
        dirs.append(str(directory))
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    env.pop("PYTHONIOENCODING", None)
    result = subprocess.run(
        [sys.executable, str(SCRIPT), *dirs], capture_output=True, text=True, timeout=60, env=env
    )
    assert result.returncode == 0, result.stderr
    assert "corr_real\t5.551e-17" in result.stdout


def _load_tool(name: str):
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT_WALL = [0.23, 0.22, 0.24, 0.23, 0.25, 0.22, 0.23, 0.24, 0.23, 0.22]


def test_claim_holds_for_a_clear_gain():
    verdict = _load_tool("bench_record").judge_pairs(PARENT_WALL, [p / 2 for p in PARENT_WALL], "lower")
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
    verdict = _load_tool("bench_record").judge_pairs(PARENT_WALL[: len(change)], change, "lower")
    assert verdict["claim_holds"] == (why == "wins")


def test_higher_is_better_and_ties_are_no_win():
    bench = _load_tool("bench_record")
    verdict = bench.judge_pairs([1.0] * 10, [2.0] * 9 + [1.0], "higher")
    assert verdict["wins"] == 9 and verdict["claim_holds"]
    assert not bench.judge_pairs([1.0] * 10, [2.0] * 10, "lower")["claim_holds"]
    with pytest.raises(ValueError):
        bench.judge_pairs([1.0], [1.0, 2.0], "lower")


@pytest.mark.parametrize(
    "change, better, bound, status",
    [
        ([p * 1.2 for p in PARENT_WALL], "lower", 0.25, "within"),  # 20 % worse, inside a 25 % bound
        ([p * 1.3 for p in PARENT_WALL], "lower", 0.25, "regressed"),
        ([p * 1.02 for p in PARENT_WALL], "lower", 0.05, "unresolved"),  # the parent's IQR is 6.5 % of its median
        ([p / 2 for p in PARENT_WALL], "lower", 0.05, "within"),  # every change run beats every parent run
        ([p * 1.3 for p in PARENT_WALL], "higher", 0.1, "within"),
        ([p * 0.85 for p in PARENT_WALL], "higher", 0.1, "regressed"),
    ],
)
def test_regression_check_against_the_bound(change, better, bound, status):
    check = _load_tool("bench_record").judge_bound(PARENT_WALL, change, better, bound)
    assert check["status"] == status
    worse = (statistics.median(change) - 0.23) / 0.23 * (1 if better == "lower" else -1)
    assert check["worse"] == pytest.approx(worse)


def _trees(tmp_path, benchmark: dict, run_py: str = "") -> dict:
    """A parent and a change tree, each with a BENCHMARK.json and a perfbench/run.py."""
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for root in trees.values():
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(run_py)
        (root / "BENCHMARK.json").write_text(json.dumps(benchmark))
    return trees


WALL_S = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}


def _record_args(trees: dict, *more: str) -> list:
    return ["--tag", "new", "--root", str(trees["change"]), "--parent-root", str(trees["parent"]), *more]


def test_pairs_print_the_speed_factor_and_unscaled_medians(tmp_path, monkeypatch, capsys):
    """bench_record reads each run's results file for its speed factor and unscaled seconds."""
    bench = _load_tool("bench_record")
    benchmark = {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]}
    factors = {"parent": [0.5, 0.7, 0.6], "change": [0.8, 0.9, 1.0]}
    trees = _trees(tmp_path, benchmark)

    def fabricated_run(command, cwd=None, **kwargs):
        if command[0] == "git":
            return subprocess.CompletedProcess(command, 128, stdout="")
        seed, trace, side = int(command[command.index("--seed") + 1]), command[-1], Path(cwd).name
        factor, unscaled = factors[side][seed], {"wall_s": 2.0 + seed, "peak_rss_mb": 50.0}
        metrics = {"wall_s": unscaled["wall_s"] * factor, "peak_rss_mb": 50.0}
        out = Path(cwd) / ".perfbench" / f"w-seed{seed}-trace{trace}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"digests": {"w": "same"}, "speed": {"factor": factor},
                                   "unscaled_metrics": unscaled, "metrics": metrics, "environment": {},
                                   "digest_changes": [], "layer_self_s": {}}))
        line = {"failed": 0, "attempted": 1, "metrics": {k: {"value": v} for k, v in metrics.items()}}
        return subprocess.CompletedProcess(command, 0, stdout=json.dumps(line) + "\n")

    monkeypatch.setattr(bench.subprocess, "run", fabricated_run)
    monkeypatch.setattr(bench, "HERE", tmp_path / "tools")
    args = _record_args(trees)
    assert bench.main(args + ["--seeds", "0", "1", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "seeds whose report digests differ: none" in out
    assert out[-3:] == [
        "side\tspeed.factor median\tunscaled wall_s median",
        "parent\t0.6\t3",
        "change\t0.9\t3",
    ]


def _fabricated_run_one(calls: list, factor: dict, unscaled_gain: float = 1.0):
    """A run_one whose runs read 1 + seed/1000 unscaled seconds, times ``unscaled_gain`` on
    the change, scaled by the side's ``factor``; seed 1's reports differ between the trees."""

    def run_one(root, workload, seed, trace, seconds):
        calls.append((root.name, workload, seed, trace))
        side = root.name
        unscaled = (1.0 + seed / 1000) * (unscaled_gain if side == "change" else 1.0)
        return {"seed": seed, "trace": trace, "failed": 0, "attempted": 1,
                "digests_sha256": "other" if seed == 1 and side == "change" else "same",
                "metrics": {"wall_s": unscaled * factor[side], "peak_rss_mb": 50.0},
                "unscaled_metrics": {"wall_s": unscaled, "peak_rss_mb": 50.0},
                "speed_factor": factor[side]}, {"tree": side}

    return run_one


def test_record_alternates_parent_and_change(tmp_path, monkeypatch):
    """bench_record runs the parent first in even pairs and the change first in odd ones,
    traces only the first two seeds, and writes one BENCH file per tree, the judgement in
    the change's."""
    record = _load_tool("bench_record")
    benchmark = {"run_seconds": 1, "workloads": [{"name": "w"}, {"name": "v"}], "end_to_end": [WALL_S]}
    trees = _trees(tmp_path, benchmark)
    calls = []
    monkeypatch.setattr(record, "run_one", _fabricated_run_one(calls, {"parent": 1.0, "change": 2.0}))
    monkeypatch.setattr(record, "HERE", tmp_path / "tools")
    assert record.main(_record_args(trees, "--seeds", "0", "1", "2")) == 0
    expected = []
    for workload in ("w", "v"):
        for seed, order in ((0, ("parent", "change")), (1, ("change", "parent")), (2, ("parent", "change"))):
            traces = (0, 1) if seed < 2 else (0,)
            expected += [(side, workload, seed, trace) for trace in traces for side in order]
    assert calls == expected
    for tag, side, factor in (("new_parent", "parent", 1.0), ("new", "change", 2.0)):
        written = json.loads((tmp_path / f"BENCH_{tag}.json").read_text())
        assert written["tag"] == tag and written["environment"] == {"tree": side}
        assert ("judgement" in written) == (side == "change")
        for workload in ("w", "v"):
            runs = written["workloads"][workload]["runs"]
            assert [(r["seed"], r["trace"]) for r in runs] == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]
            assert written["workloads"][workload]["end_to_end"]["wall_s"] == pytest.approx(1.001 * factor)
            assert written["workloads"][workload]["per_layer"]["wall_s"] == pytest.approx(1.0005 * factor)
    judgement = json.loads((tmp_path / "BENCH_new.json").read_text())["judgement"]
    assert set(judgement) == {"w", "v"}
    for workload in judgement.values():
        assert workload["seeds"] == [0, 1, 2] and workload["digests_differ"] == [1]
        assert workload["failed"] == {"parent": 0, "change": 0}
        wall = workload["metrics"]["wall_s"]
        assert (wall["wins"], wall["pairs"], wall["claim"], wall["status"]) == (0, 3, "no", "regressed")
        assert wall["worse"] == pytest.approx(1.0)
        assert workload["unscaled_medians"] == {"parent": {"speed.factor": 1.0, "wall_s": pytest.approx(1.001)},
                                                "change": {"speed.factor": 2.0, "wall_s": pytest.approx(1.001)}}


def test_record_without_a_parent_has_no_judgement(tmp_path, monkeypatch, capsys):
    record = _load_tool("bench_record")
    trees = _trees(tmp_path, {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": [WALL_S]})
    calls = []
    monkeypatch.setattr(record, "run_one", _fabricated_run_one(calls, {"change": 1.0}))
    monkeypatch.setattr(record, "HERE", tmp_path / "tools")
    assert record.main(["--tag", "solo", "--root", str(trees["change"]), "--seeds", "0", "1", "2"]) == 0
    assert calls == [("change", "w", 0, 0), ("change", "w", 0, 1), ("change", "w", 1, 0), ("change", "w", 1, 1),
                     ("change", "w", 2, 0)]
    assert capsys.readouterr().out.splitlines() == [str(tmp_path / "BENCH_solo.json")]
    assert "judgement" not in json.loads((tmp_path / "BENCH_solo.json").read_text())
    assert not (tmp_path / "BENCH_solo_parent.json").exists()


@pytest.mark.parametrize("unscaled_gain, claim", [(1.0, "holds (scaled only)"), (0.8, "holds")])
def test_a_claim_on_the_speed_factor_alone_reads_scaled_only(tmp_path, monkeypatch, capsys, unscaled_gain, claim):
    """The change's speed factor is 0.8 against the parent's 1.0. With unchanged unscaled
    seconds the scaled claim holds on the factor alone; with a true 20 % gain it holds on both."""
    record = _load_tool("bench_record")
    end_to_end = [WALL_S, {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]
    trees = _trees(tmp_path, {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": end_to_end})
    monkeypatch.setattr(record, "run_one", _fabricated_run_one([], {"parent": 1.0, "change": 0.8}, unscaled_gain))
    monkeypatch.setattr(record, "HERE", tmp_path / "tools")
    assert record.main(_record_args(trees)) == 0
    out = capsys.readouterr().out.splitlines()
    wall = json.loads((tmp_path / "BENCH_new.json").read_text())["judgement"]["w"]["metrics"]["wall_s"]
    assert (wall["wins"], wall["claim_holds"], wall["claim"]) == (10, True, claim)
    assert wall["unscaled"]["wins"] == (10 if unscaled_gain < 1 else 0)
    assert any(line.startswith("wall_s\tlower\t") and f"\t10/10\t{claim}\twithin" in line for line in out)
    assert any(line.startswith("peak_rss_mb\tlower\t") and "\t0/10\tno\twithin" in line for line in out)


STUB_RUN = """
import json, sys
from pathlib import Path

args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
root = Path(__file__).resolve().parents[1]
if not (root / "wall").is_file():
    print(f"stub: no wall file under {root}", file=sys.stderr)
    sys.exit(3)
wall = float((root / "wall").read_text()) + int(args["--seed"]) / 100
tag = f"{args['--workload']}-seed{args['--seed']}-trace{args['--trace']}"
results = {"environment": {"stub": True}, "digests": {"r.json": "d"}, "digest_changes": [],
           "unscaled_metrics": {"wall_s": wall}, "speed": {"factor": 1.0}, "layer_self_s": {}}
(root / ".perfbench").mkdir(exist_ok=True)
(root / ".perfbench" / f"{tag}.json").write_text(json.dumps(results))
print(json.dumps({"failed": 0, "attempted": 1, "metrics": {"wall_s": {"value": wall}}}))
"""


def test_a_failed_run_says_why_and_writes_no_record(tmp_path, monkeypatch, capsys):
    record = _load_tool("bench_record")
    trees = _trees(tmp_path, {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": [WALL_S]}, STUB_RUN)
    (trees["parent"] / "wall").write_text("1.0")
    monkeypatch.setattr(record, "HERE", tmp_path / "tools")
    with pytest.raises(SystemExit) as exc:
        record.main(_record_args(trees))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"error: {trees['change']}: workload w seed 0 trace 0 exited 3" in err
    assert f"stub: no wall file under {trees['change']}" in err
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_record_smoke_on_real_subprocesses(tmp_path, monkeypatch, capsys):
    """The default ten seeds on two stub trees, each run a real perfbench/run.py process."""
    record = _load_tool("bench_record")
    trees = _trees(tmp_path, {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": [WALL_S]}, STUB_RUN)
    (trees["parent"] / "wall").write_text("2.0")
    (trees["change"] / "wall").write_text("1.0")
    monkeypatch.setattr(record, "HERE", tmp_path / "tools")
    assert record.main(_record_args(trees)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [str(tmp_path / "BENCH_new_parent.json"), str(tmp_path / "BENCH_new.json")]
    assert "seeds whose report digests differ: none" in out
    written = json.loads((tmp_path / "BENCH_new.json").read_text())
    assert written["seeds"] == list(range(10)) and written["environment"] == {"stub": True}
    assert [r["trace"] for r in written["workloads"]["w"]["runs"]].count(1) == 2
    wall = written["judgement"]["w"]["metrics"]["wall_s"]
    assert (wall["wins"], wall["claim"], wall["status"]) == (10, "holds", "within")
    assert written["workloads"]["w"]["end_to_end"]["wall_s"] == pytest.approx(1.045)


STUB_WORKLOADS = '''
from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    config: dict


def generate(workload, seed):
    return [Case({"name": f"{workload}_{seed}", "seed": seed, "n_max": 12, "observable_count": 1,
                  "source": {"kind": "iid", "state": [[0.6, 0.1], [0.1, 0.4]]}})]
'''


def _regen_root(tmp_path) -> Path:
    """A tree of this repository's src with one stub workload and one demo config."""
    root = tmp_path / "root"
    (root / "perfbench").mkdir(parents=True)
    (root / "demos" / "configs").mkdir(parents=True)
    (root / "src").symlink_to(ROOT / "src")
    (root / "perfbench" / "workloads.py").write_text(STUB_WORKLOADS)
    (root / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "tiny"}]}))
    demo = {"name": "demo", "seed": 1, "n_max": 10, "source": {"kind": "iid", "state": [[1, 0], [0, 0]]}}
    (root / "demos" / "configs" / "demo.json").write_text(json.dumps(demo))
    return root


def test_regen_reports_is_reproducible(tmp_path):
    root = _regen_root(tmp_path)
    regen = _load_tool("regen_reports")
    for out in ("a", "b"):
        assert regen.main(["--root", str(root), "--out", str(tmp_path / out), "--seeds", "0"]) == 0
    files = sorted(p.relative_to(tmp_path / "a").as_posix() for p in (tmp_path / "a").rglob("*.*"))
    assert files == [
        "demos/demo.decay.csv", "demos/demo.report.json",
        "tiny-0/tiny_0.decay.csv", "tiny-0/tiny_0.report.json",
    ]
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # a second run into a filled directory would hide files the tree no longer writes
    assert regen.main(["--root", str(root), "--out", str(tmp_path / "a")]) == 2


def test_regen_reports_writes_a_relative_out_where_it_checked_it(tmp_path, monkeypatch):
    # the CLI runs in --root: a relative --out is the caller's, both for the emptiness check and the reports
    root, caller = _regen_root(tmp_path), tmp_path / "caller"
    caller.mkdir()
    monkeypatch.chdir(caller)
    regen = _load_tool("regen_reports")
    assert regen.main(["--root", str(root), "--out", "reports", "--seeds", "0"]) == 0
    assert (caller / "reports" / "tiny-0" / "tiny_0.report.json").is_file()
    assert (caller / "reports" / "demos" / "demo.report.json").is_file()
    assert not (root / "reports").exists()
    assert regen.main(["--root", str(root), "--out", "reports", "--seeds", "0"]) == 2


def test_an_rss_gain_below_the_level_step_is_no_claim():
    # BENCH_pr25 ran the same program code in two checkouts; swapped, its dense_short peak_rss_mb
    # passes the pair rule (10/10 wins, a 0.256 MB gain over a 0.126 MB IQR) on the checkout alone
    bench = _load_tool("bench_record")
    runs = [json.loads((ROOT / f"BENCH_pr25{side}.json").read_text())["workloads"]["dense_short"]["runs"]
            for side in ("", "_parent")]
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rss = [[r["metrics"]["peak_rss_mb"] for r in side if r["trace"] == 0] for side in runs]
    pairs = bench.judge_pairs(*rss, "lower")
    assert pairs["claim_holds"] and pairs["wins"] == 10 and pairs["gain"] < bench.RSS_LEVEL_STEP_MB
    assert bench.RSS_LEVEL_STEP_MB >= 0.256
    verdict = bench.judge(end_to_end, *runs)["metrics"]["peak_rss_mb"]
    assert verdict["claim"] == "no" and not verdict["claim_holds"]
