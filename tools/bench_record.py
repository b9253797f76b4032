"""Record BENCH_<tag>.json from the repository's benchmark, and optionally
BENCH_<tag>_parent.json from a parent tree in the same call.

    python3 tools/bench_record.py --tag T [--root DIR] [--seeds 0 1] [--parent-root PDIR]

Runs ``DIR/perfbench/run.py`` (DIR defaults to the repository holding
this script) for every workload of ``DIR/BENCHMARK.json`` and every seed,
at its ``run_seconds``, once with ``--trace 0`` (end-to-end metrics) and
once with ``--trace 1`` (per-layer metrics), one run at a time.  With
``--parent-root``, PDIR runs the same runs, alternating with DIR: on even
seeds the parent runs first, on odd seeds DIR does, as bench_pairs.py
alternates its pairs, so a drift of the host's speed hits both records
alike.  Each run's full results file under ``.perfbench/`` of its tree
supplies the environment, the failure and attempt counts and the report
digests.  Every BENCH file is written next to this script's repository
root.

The written file holds, per workload, every run (seed, trace, failed,
attempted, digest count, digest changes, scaled and unscaled metrics,
machine-speed factor) and the medians over seeds of the end-to-end and
the per-layer metrics.  Comparing two files taken in one session on one
machine is the intended use; the host's speed drifts between sessions.
``commit`` names the tree's HEAD; ``source_diff_sha256`` is the SHA-256 of
``git diff HEAD -- src perfbench`` in that tree, so a recording of uncommitted
code can be matched to the commit that later holds it (the hash of an
empty diff means the measured code is HEAD's).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _git(root: Path, *args) -> str:
    out = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return out.stdout if out.returncode == 0 else ""


def run_one(root: Path, workload: str, seed: int, trace: int, seconds: float) -> tuple:
    """(run record, environment) of one perfbench run."""
    command = [
        sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    results = json.loads(
        (root / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    run = {
        "seed": seed,
        "trace": trace,
        "failed": line["failed"],
        "attempted": line["attempted"],
        "digests": len(results["digests"] or {}),
        "digest_changes": results["digest_changes"],
        "metrics": {name: m["value"] for name, m in line["metrics"].items()},
        "unscaled_metrics": results["unscaled_metrics"],
        "speed_factor": results["speed"]["factor"],
    }
    if trace:
        run["layer_self_s"] = results["layer_self_s"]
    return run, results["environment"]


def _medians(runs: list) -> dict:
    names = runs[0]["metrics"] if runs else {}
    return {name: statistics.median(r["metrics"][name] for r in runs) for name in names}


def _write_record(tag: str, root: Path, seeds: list, seconds: float, environment, runs: dict) -> Path:
    """BENCH_<tag>.json of one tree's runs, {workload: [run, ...]}."""
    workloads = {
        workload: {
            "failed": sum(r["failed"] for r in rows),
            "attempted": sum(r["attempted"] for r in rows),
            "end_to_end": _medians([r for r in rows if r["trace"] == 0]),
            "per_layer": _medians([r for r in rows if r["trace"] == 1]),
            "runs": rows,
        }
        for workload, rows in runs.items()
    }
    record = {
        "tag": tag,
        "commit": _git(root, "rev-parse", "HEAD").strip(),
        "source_diff_sha256": hashlib.sha256(
            _git(root, "diff", "--no-color", "--no-ext-diff", "HEAD", "--", "src", "perfbench").encode()
        ).hexdigest(),
        "worktree_clean": _git(root, "status", "--porcelain", "--untracked-files=no").strip() == "",
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seeds": seeds,
        "seconds": seconds,
        "environment": environment,
        "workloads": workloads,
    }
    path = HERE.parent / f"BENCH_{tag}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--root", type=Path, default=HERE.parent, help="repository whose benchmark runs")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--parent-root", type=Path,
                        help="parent repository, run alternately with --root and recorded as <tag>_parent")
    args = parser.parse_args(argv)
    trees = {args.tag: args.root.resolve()}
    if args.parent_root is not None:
        trees = {f"{args.tag}_parent": args.parent_root.resolve(), **trees}
    for root in trees.values():
        if not (root / "perfbench" / "run.py").is_file() or not (root / "BENCHMARK.json").is_file():
            print(f"error: no perfbench/run.py and BENCHMARK.json under {root}", file=sys.stderr)
            return 2
    benchmark = json.loads((trees[args.tag] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]

    environments = {}
    runs = {tag: {w["name"]: [] for w in benchmark["workloads"]} for tag in trees}
    for workload in runs[args.tag]:
        for seed in args.seeds:
            order = list(trees) if seed % 2 == 0 else list(trees)[::-1]  # the parent first on even seeds
            for trace in (0, 1):
                for tag in order:
                    run, environments[tag] = run_one(trees[tag], workload, seed, trace, seconds)
                    runs[tag][workload].append(run)
                    print(f"{tag} {workload} seed {seed} trace {trace}: failed {run['failed']}/{run['attempted']}",
                          file=sys.stderr)
    for tag, root in trees.items():
        print(_write_record(tag, root, args.seeds, seconds, environments[tag], runs[tag]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
