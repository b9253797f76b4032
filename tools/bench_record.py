"""Record the benchmark in BENCH_<tag>.json and, given a parent tree, judge the change.

    python3 tools/bench_record.py --tag T [--root DIR] [--parent-root PDIR] [--seeds 0 1 .. 9]

Runs DIR's ``perfbench/run.py`` (DIR defaults to this script's repository)
for every workload of ``DIR/BENCHMARK.json`` at its ``run_seconds``, one run
at a time: ``--trace 0`` on every seed, ``--trace 1`` (per-layer metrics) on
the first ``TRACED_SEEDS``.  PDIR makes the same runs paired with DIR's, the
parent first in even pairs, so a drift of the host's speed hits both alike.
The runs and their medians go to ``BENCH_<tag>.json`` (DIR) and
``BENCH_<tag>_parent.json`` (PDIR) in this script's repository.  DIR's record
also keeps the ``judgement`` of each workload's trace-0 pairs, printed as a
table: per end-to-end metric, the claim rule (``judge_pairs``; on
``peak_rss_mb`` also a gain of at least ``RSS_LEVEL_STEP_MB``), the
regression check (``judge_bound``) and, since ``speed.factor`` moves with
the program's own load, the claim on unscaled seconds ("holds (scaled only)"
when only the scaled claim holds); README's "Measuring a change" reads it.
A failing run is reported with its standard error and exits 1 writing no
record.  Compare only numbers taken in one session.
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
MIN_PAIRS = 10
WIN_SHARE = 0.9
TRACED_SEEDS = 2  # per-layer runs last as long as end-to-end ones, and no claim reads them
# in an A/A record, two checkouts of the same program code differed by up to 0.26 MB of
# peak_rss_mb, in the same direction in 10 of 10 pairs: a smaller gain may come from the checkout
RSS_LEVEL_STEP_MB = 0.5


def quartiles(values) -> tuple:
    """(q1, median, q3) of the values, inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def judge_pairs(parent, change, better: str) -> dict:
    """The claim rule for one metric over paired runs: parent[i] and change[i] ran as pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, nonzero number of parent and change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0 means the change is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    gain = sign * (p_q[1] - c_q[1])
    iqr = p_q[2] - p_q[0]
    holds = len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent) and gain > iqr
    return {"pairs": len(parent), "wins": wins, "parent": p_q, "change": c_q,
            "gain": gain, "parent_iqr": iqr, "claim_holds": holds}


def judge_bound(parent, change, better: str, bound: float) -> dict:
    """The regression check for one metric over paired runs: is the change's median
    worse than the parent's by at most ``bound``, a share of the parent's median?"""
    verdict = judge_pairs(parent, change, better)
    sign = 1 if better == "lower" else -1
    scale = abs(verdict["parent"][1]) or 1.0
    worse = -verdict["gain"] / scale  # the change's median relative to the parent's, > 0 when worse
    if max(sign * c for c in change) < min(sign * p for p in parent):
        status = "within"  # every change run beats every parent run, however wide the spread
    elif verdict["parent_iqr"] > bound * scale:
        status = "unresolved"
    else:
        status = "within" if worse <= bound else "regressed"
    return {"worse": worse, "bound": bound, "status": status}


def judge(end_to_end: list, parent: list, change: list) -> dict:
    """The judgement of one workload from both trees' runs, made in the same order."""
    sides = {"parent": [r for r in parent if r["trace"] == 0], "change": [r for r in change if r["trace"] == 0]}
    medians = {side: {"speed.factor": statistics.median(r["speed_factor"] for r in rows)}
               for side, rows in sides.items()}
    metrics = {}
    for m in end_to_end:
        name, better = m["name"], m["better"]
        runs = [[r["metrics"][name] for r in rows] for rows in sides.values()]
        verdict = {"better": better, **judge_pairs(*runs, better), **judge_bound(*runs, better, m["bound"])}
        if name == "peak_rss_mb" and verdict["gain"] < RSS_LEVEL_STEP_MB:
            verdict["claim_holds"] = False
        verdict["claim"] = "holds" if verdict["claim_holds"] else "no"
        if m["unit"] == "s":
            unscaled = [[r["unscaled_metrics"][name] for r in rows] for rows in sides.values()]
            verdict["unscaled"] = judge_pairs(*unscaled, better)
            if verdict["claim_holds"] and not verdict["unscaled"]["claim_holds"]:
                verdict["claim"] = "holds (scaled only)"
            for side, values in zip(medians, unscaled):
                medians[side][name] = statistics.median(values)
        metrics[name] = verdict
    return {
        "seeds": [r["seed"] for r in sides["parent"]],
        "failed": {"parent": sum(r["failed"] for r in parent), "change": sum(r["failed"] for r in change)},
        "digests_differ": sorted({p["seed"] for p, c in zip(parent, change)
                                  if p["digests_sha256"] != c["digests_sha256"]}),
        "metrics": metrics,
        "unscaled_medians": medians,
    }


def print_judgement(workload: str, j: dict) -> None:
    print(f"workload {workload}, {len(j['seeds'])} pairs, seeds {j['seeds']}")
    print(f"failed configs: parent {j['failed']['parent']}, change {j['failed']['change']}")
    print(f"seeds whose report digests differ: {j['digests_differ'] or 'none'}")
    print("metric\tbetter\tparent q1/median/q3\tchange q1/median/q3\twins\tclaim\tregression")
    for name, v in j["metrics"].items():
        quart = ["/".join(f"{x:.4g}" for x in v[side]) for side in ("parent", "change")]
        print(f"{name}\t{v['better']}\t{quart[0]}\t{quart[1]}\t{v['wins']}/{v['pairs']}\t{v['claim']}\t"
              f"{v['status']} ({abs(v['worse']):.1%} {'worse' if v['worse'] > 0 else 'better'}, "
              f"bound {v['bound']:.0%})")
    names = list(j["unscaled_medians"]["parent"])[1:]
    print("side\tspeed.factor median" + "".join(f"\tunscaled {name} median" for name in names))
    for side, values in j["unscaled_medians"].items():
        print(side + "\t" + "\t".join(f"{value:.4g}" for value in values.values()))


def _git(root: Path, *args) -> str:
    out = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return out.stdout if out.returncode == 0 else ""


def run_one(root: Path, workload: str, seed: int, trace: int, seconds: float) -> tuple:
    """(run record, environment) of one perfbench run; a run that exits non-zero exits 1."""
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if proc.returncode:
        print(f"error: {root}: workload {workload} seed {seed} trace {trace} exited {proc.returncode}\n"
              f"{proc.stderr}", file=sys.stderr)
        raise SystemExit(1)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    results = json.loads((root / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    digests = results["digests"] or {}
    print(f"{root}: {workload} seed {seed} trace {trace}, failed {line['failed']}/{line['attempted']}",
          file=sys.stderr)
    return {
        "seed": seed, "trace": trace, "failed": line["failed"], "attempted": line["attempted"],
        "digests": len(digests), "digest_changes": results["digest_changes"],
        "digests_sha256": hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest(),
        "metrics": {name: m["value"] for name, m in line["metrics"].items()},
        "unscaled_metrics": results["unscaled_metrics"], "speed_factor": results["speed"]["factor"],
        **({"layer_self_s": results["layer_self_s"]} if trace else {}),
    }, results["environment"]


def _medians(rows: list, trace: int) -> dict:
    runs = [r for r in rows if r["trace"] == trace]
    return {name: statistics.median(r["metrics"][name] for r in runs) for name in runs[0]["metrics"]}


def _write_record(tag: str, root: Path, seeds, seconds, environment, runs: dict, judgement) -> Path:
    """BENCH_<tag>.json of one tree's runs, {workload: [run, ...]}, and the judgement if there is one."""
    diff = _git(root, "diff", "--no-color", "--no-ext-diff", "HEAD", "--", "src", "perfbench")
    record = {
        "tag": tag, "commit": _git(root, "rev-parse", "HEAD").strip(),
        "source_diff_sha256": hashlib.sha256(diff.encode()).hexdigest(),
        "worktree_clean": _git(root, "status", "--porcelain", "--untracked-files=no").strip() == "",
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seeds": seeds, "seconds": seconds, "environment": environment,
        "workloads": {
            w: {"failed": sum(r["failed"] for r in rows), "attempted": sum(r["attempted"] for r in rows),
                "end_to_end": _medians(rows, 0), "per_layer": _medians(rows, 1), "runs": rows}
            for w, rows in runs.items()},
        **({"judgement": judgement} if judgement else {}),
    }
    path = HERE.parent / f"BENCH_{tag}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--root", type=Path, default=HERE.parent, help="repository whose benchmark runs")
    parser.add_argument("--parent-root", type=Path, help="parent repository, recorded as <tag>_parent")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(MIN_PAIRS)))
    args = parser.parse_args(argv)
    trees = {side: root.resolve() for side, root in (("parent", args.parent_root), ("change", args.root)) if root}
    for root in trees.values():
        if not (root / "perfbench" / "run.py").is_file() or not (root / "BENCHMARK.json").is_file():
            print(f"error: no perfbench/run.py and BENCHMARK.json under {root}", file=sys.stderr)
            return 2
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    environments = {}
    runs = {side: {w["name"]: [] for w in benchmark["workloads"]} for side in trees}
    for workload in runs["change"]:
        for i, seed in enumerate(args.seeds):
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]  # the parent first in even pairs
            for trace in (0, 1) if i < TRACED_SEEDS else (0,):
                for side in order:
                    run, environments[side] = run_one(trees[side], workload, seed, trace, seconds)
                    runs[side][workload].append(run)
    judgements = {w: judge(benchmark["end_to_end"], runs["parent"][w], rows)
                  for w, rows in runs["change"].items() if "parent" in runs}
    for side, root in trees.items():
        tag, judgement = (args.tag, judgements) if side == "change" else (f"{args.tag}_parent", None)
        print(_write_record(tag, root, args.seeds, seconds, environments[side], runs[side], judgement))
    for workload, judgement in judgements.items():
        print_judgement(workload, judgement)
    return 0


if __name__ == "__main__":
    sys.exit(main())
