"""Paired parent/change runs of one benchmark workload, and the claim rule.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W [--seeds 0 1 .. 9]

Runs ``perfbench/run.py --trace 0`` in both trees, one run at a time, at
the parent's ``BENCHMARK.json`` ``run_seconds``: pair i runs seed i in
both trees, the parent first in even pairs and the change first in odd
ones, so a drift of the host's speed hits both sides alike.  For every
end-to-end metric it prints each side's quartiles, how many pairs the
change wins, and whether a gain may be claimed: the change wins at least
9 in 10 pairs (and at least 10 pairs ran), and its median is better than
the parent's by more than the parent's interquartile range.  It also
prints each metric's regression check: "within" when the change's median
is worse than the parent's by no more than the metric's ``bound`` in
``BENCHMARK.json`` (a share of the parent's median), "regressed" when it
is worse by more, and "unresolved" when the parent's interquartile range
is wider than the bound, unless every run of the change is better than
every run of the parent.  Above the table it prints the failed configs
per side and the pairs whose report and CSV digests differ between the
trees.  Below the table it prints, per side, the median of the runs'
``speed.factor`` and of each seconds metric before that factor scales it,
from each run's ``.perfbench/<workload>-seed<N>-trace0.json``: the factor
is timed between configs, so it moves when the program's own work slows
the host, and scaled seconds of unchanged code move with it.  The claim
and the regression check read the scaled metrics only.  Exit code 0 after
a complete run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values) -> tuple:
    """(q1, median, q3) of the values, inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


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


def unscaled_medians(results, names) -> dict:
    """The median ``speed.factor`` of the runs' result files, and the median of each
    named metric in their ``unscaled_metrics``."""
    medians = {"speed.factor": statistics.median(r["speed"]["factor"] for r in results)}
    medians.update((name, statistics.median(r["unscaled_metrics"][name] for r in results)) for name in names)
    return medians


def run_one(root: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(last JSON line, results file) of one ``--trace 0`` run in ``root``."""
    command = [
        sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    results = json.loads((root / ".perfbench" / f"{workload}-seed{seed}-trace0.json").read_text())
    return line, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(MIN_PAIRS)))
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in trees.values():
        if not (root / "perfbench" / "run.py").is_file() or not (root / "BENCHMARK.json").is_file():
            print(f"error: no perfbench/run.py and BENCHMARK.json under {root}", file=sys.stderr)
            return 2
    benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    values = {side: {m["name"]: [] for m in benchmark["end_to_end"]} for side in trees}
    results = {side: [] for side in trees}
    failed = {side: 0 for side in trees}
    digest_mismatches = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        digests = {}
        for side in order:
            line, run = run_one(trees[side], args.workload, seed, benchmark["run_seconds"])
            results[side].append(run)
            digests[side] = run["digests"]
            failed[side] += line["failed"]
            for name in values[side]:
                values[side][name].append(line["metrics"][name]["value"])
            print(f"pair {i} seed {seed} {side}: failed {line['failed']}/{line['attempted']}", file=sys.stderr)
        if digests["parent"] != digests["change"]:
            digest_mismatches.append(seed)

    print(f"workload {args.workload}, {len(args.seeds)} pairs, seeds {args.seeds}")
    print(f"failed configs: parent {failed['parent']}, change {failed['change']}")
    print(f"seeds whose report digests differ: {digest_mismatches or 'none'}")
    print("metric\tbetter\tparent q1/median/q3\tchange q1/median/q3\twins\tclaim\tregression")
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        runs = values["parent"][name], values["change"][name]
        verdict = judge_pairs(*runs, metric["better"])
        check = judge_bound(*runs, metric["better"], metric["bound"])
        quart = {side: "/".join(f"{v:.4g}" for v in verdict[side]) for side in trees}
        print(f"{name}\t{metric['better']}\t{quart['parent']}\t{quart['change']}\t"
              f"{verdict['wins']}/{verdict['pairs']}\t{'holds' if verdict['claim_holds'] else 'no'}\t"
              f"{check['status']} ({abs(check['worse']):.1%} {'worse' if check['worse'] > 0 else 'better'}, "
              f"bound {check['bound']:.0%})")
    seconds = [m["name"] for m in benchmark["end_to_end"] if m["unit"] == "s"]
    print("side\tspeed.factor median\t" + "\t".join(f"unscaled {name} median" for name in seconds))
    for side in trees:
        medians = unscaled_medians(results[side], seconds)
        print(side + "\t" + "\t".join(f"{value:.4g}" for value in medians.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
