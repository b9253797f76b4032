"""Benchmark of the config-to-report path: end to end, and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from the ``src/`` directory next to this one;
the workload's configs are generated from the seed and written as JSON
files, and the program sees only those files.  A pass is what
``spinsource.cli.main`` does for them minus argument parsing and
printing: ``run_experiment`` and ``emit_report`` for every config, one
process, one config at a time.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer ones from a run that also makes untraced passes, to measure
the tracing overhead.  Every seconds metric is scaled to a reference
machine speed (``speed.py``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full results (environment, report digests, failures, layer split) go to
``.perfbench/`` at the repository root.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# one BLAS thread: within nproc, and free of thread contention on small boxes
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 15
MIXING = ("ergodic_mean", "weak_mixing", "strong_mixing")
AGREEMENT_TOL = 1e-9  # the backend-agreement tolerance of the test suite
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


class Gate:
    """Counts attempted and failed configs, keeping the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append({"config": name, "reason": reason})


def judge(case, outcome) -> str | None:
    """Why a config's run contradicts its pinned outcome or the oracle, or None."""
    if isinstance(outcome, Exception):
        return f"raised {type(outcome).__name__}: {outcome}"
    exit_code = 0 if outcome.passed else 1
    if exit_code != case.exit_code:
        return f"exit code {exit_code}, pinned {case.exit_code}"
    verdicts = outcome.sweep.verdicts if outcome.sweep is not None else None
    if verdicts != case.verdicts:
        return f"verdicts {verdicts}, pinned {case.verdicts}"
    if verdicts is not None and outcome.classification is not None:
        for test, verdict, holds in zip(MIXING, verdicts, outcome.classification.verdicts):
            if (verdict == "pass" and not holds) or (verdict == "fail" and holds):
                return f"{test} verdict {verdict} contradicts the oracle ({holds})"
    return None


def backend_disagreement(ss, config) -> float:
    """Largest |dense - transfer| source_correlation over the sweep's pairs.

    Gaps run up to config.check_sites total sites, in steps of the
    channel block so every dense state exists.
    """
    import numpy as np

    source, _ = ss.runner.build_source(config)
    block = (config.channel_spec or {}).get("block_sites", 1)
    m = block * -(-config.block_sites // block)
    d = config.site_dim
    pairs = ss.projector_pairs(d, m) + ss.random_pairs(d, m, config.observable_count, config.seed)
    gaps = list(range(0, config.check_sites - 2 * m + 1, block))
    worst = 0.0
    for _, a, b in pairs:
        dense = ss.source_correlation(source, a, b, gaps, "dense")
        transfer = ss.source_correlation(source, a, b, gaps, "transfer")
        worst = max(worst, float(np.max(np.abs(dense - transfer))))
    return worst


def file_facts(directory: Path, cases) -> dict:
    """{file name: (sha256, bytes, csv rows)} for every report and CSV present."""
    out = {}
    for case in cases:
        for suffix in (".report.json", ".decay.csv"):
            path = directory / f"{case.name}{suffix}"
            if path.exists():
                data = path.read_bytes()
                rows = data.count(b"\n") - 1 if suffix == ".decay.csv" else 0
                out[path.name] = (hashlib.sha256(data).hexdigest(), len(data), rows)
    return out


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def run_pass(ss, items, reports: Path, speed, recorder=None) -> tuple:
    """(seconds, outcomes): run_experiment and emit_report for every config.

    The machine-speed kernel runs between configs, outside the timed spans.
    """
    seconds, outcomes = 0.0, []
    for case, config in items:
        if recorder is not None:
            recorder.trace = f"run:{case.name}"
        start = time.perf_counter()
        try:
            report = ss.runner.run_experiment(config)
            ss.runner.emit_report(report, reports)
        except Exception as exc:  # a raising config fails alone; the pass goes on
            report = exc
        seconds += time.perf_counter() - start
        outcomes.append(report)
        speed.catch_up()
    return seconds, outcomes


class Passes:
    """Runs passes, judges every outcome and tracks the report digests."""

    def __init__(self, ss, items, reports: Path, gate: Gate, speed):
        self.ss, self.items, self.reports, self.gate, self.speed = ss, items, reports, gate, speed
        self.digests = None
        self.digest_changes = set()

    def one(self, recorder=None) -> tuple:
        """(seconds, file facts) of one pass, after judging its outcomes."""
        seconds, outcomes = run_pass(self.ss, self.items, self.reports, self.speed, recorder)
        for (case, _), outcome in zip(self.items, outcomes):
            self.gate.record(case.name, judge(case, outcome))
        del outcomes
        facts = file_facts(self.reports, [case for case, _ in self.items])
        digests = {name: f[0] for name, f in facts.items()}
        if self.digests is None:
            self.digests = digests
        else:
            self.digest_changes.update(n for n in digests if digests[n] != self.digests.get(n))
        return seconds, facts

    def for_seconds(self, budget: float) -> list:
        """Untraced passes until the next would overrun the budget (at least one)."""
        times = []
        start = time.perf_counter()
        while True:
            seconds, _ = self.one()
            times.append(seconds)
            if time.perf_counter() - start + seconds > budget:
                return times


def setup_seconds(paths) -> float:
    """A fresh interpreter's import of spinsource plus loading every config."""
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, paths)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(probe.stdout.strip().splitlines()[-1])


def traced_cycles(ss, passes: Passes, paths, budget: float) -> tuple:
    """Per-layer metrics (medians over traced passes), the untraced and the
    traced pass times, the layer split and the spans of the last cycle.

    Untraced passes and traced cycles alternate, so both see the same
    machine state and their difference is the tracing overhead.
    """
    from layers import OVERHEAD, PROBES, layer_metrics, layer_self_times
    from spans import Recorder, instrumented

    per_pass, walls, times, shares = [], [], [], []
    start = time.perf_counter()
    while True:
        walls.append(passes.one()[0])
        recorder = Recorder()
        with instrumented(ss, recorder, PROBES):
            for path in paths:
                recorder.trace = f"load:{path.stem}"
                try:
                    ss.ExperimentConfig.from_json(path)
                except Exception:  # already counted by the untraced load
                    pass
            seconds, facts = passes.one(recorder)
        recorder.counts["runner.emit_bytes"] = sum(f[1] for f in facts.values())
        recorder.counts["runner.csv_rows"] = sum(f[2] for f in facts.values())
        per_pass.append(layer_metrics(recorder.spans, recorder.counts))
        shares.append(layer_self_times(recorder.spans, "run:"))
        times.append(seconds)
        if time.perf_counter() - start + walls[-1] + seconds > budget:
            break
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics[OVERHEAD] = statistics.fmean(times) - statistics.fmean(walls)
    layers = {name: statistics.median(s.get(name, 0.0) for s in shares) for name in shares[0]}
    return metrics, walls, times, layers, recorder.spans


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def _import_program():
    sys.path.insert(0, str(SRC))
    import spinsource

    if not Path(spinsource.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"spinsource imported from {spinsource.__file__}, not {SRC}")
    return spinsource


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "spinsource" / "__init__.py").is_file():
        print(f"error: no spinsource package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    # numpy reads the BLAS thread setting once, when it is first imported
    from speed import REFERENCE_KERNEL_S, Speed
    from workloads import generate

    ss = _import_program()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    try:
        cases = generate(args.workload, args.seed)
        (work / "configs").mkdir(parents=True)
        paths = []
        for case in cases:
            path = work / "configs" / f"{case.name}.json"
            path.write_text(json.dumps(case.config, indent=2) + "\n")
            paths.append(path)
        speed = Speed()
        setup = []
        for _ in range(0 if args.trace else SETUP_REPEATS):
            setup.append(setup_seconds(paths))
            speed.catch_up()

        gate = Gate()
        items = []
        for case, path in zip(cases, paths):
            try:
                items.append((case, ss.ExperimentConfig.from_json(path)))
            except Exception as exc:  # a config that does not load fails alone
                gate.record(case.name, f"load raised {type(exc).__name__}: {exc}")
        passes = Passes(ss, items, work / "reports", gate, speed)
        if args.trace:
            measured, walls, traced, layers, spans = traced_cycles(ss, passes, paths, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            walls = passes.for_seconds(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            measured = {
                "wall_s": statistics.fmean(walls),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_rss_mb,
            }
        disagreements = {}
        for case, config in items:
            if config.backend == "dense":
                worst = backend_disagreement(ss, config)
                disagreements[case.name] = worst
                gate.record(case.name, None if worst <= AGREEMENT_TOL else (
                    f"dense and transfer correlations differ by {worst:.3e}"
                ))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        from layers import units

        unit = units()
    else:
        unit = END_TO_END_UNITS
    factor = speed.factor()
    metrics = {name: measured[name] * (factor if unit[name] == "s" else 1) for name in unit}
    failed = len(gate.failures)
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "configs": len(cases),
        "attempted": gate.attempted,
        "failed": failed,
        "failed_frac": failed / max(gate.attempted, 1),
        "failures": gate.failures[:50],
        "pass_s": walls,
        "setup_runs_s": setup,
        "peak_rss_mb": peak_rss_mb,
        "backend_disagreement": disagreements,
        "digests": passes.digests,
        "digest_changes": sorted(passes.digest_changes),
        "metrics": metrics,
        "unscaled_metrics": measured,
        "speed": {
            "factor": factor,
            "reference_kernel_s": REFERENCE_KERNEL_S,
            "kernel_mean_s": statistics.fmean(speed.samples),
            "kernel_samples": len(speed.samples),
        },
    }
    if args.trace:
        results["traced_pass_s"] = traced
        results["layer_self_s"] = layers
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    if args.trace:
        (OUT / f"{tag}.spans.json").write_text(json.dumps([s.as_dict() for s in spans]) + "\n")
    line = {
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit[name]} for name in unit},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
