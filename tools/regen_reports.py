"""Regenerate every benchmark and demo report of one source tree.

    python3 tools/regen_reports.py --root DIR --out OUT [--seeds 0 1]

Writes, through the CLI of ``DIR/src`` with one BLAS thread:

* for every workload in ``DIR/BENCHMARK.json`` and every seed, the
  configs ``DIR/perfbench/workloads.py`` generates, reported under
  ``OUT/<workload>-<seed>/``;
* ``DIR/demos/configs/*.json``, reported under ``OUT/demos/``.

Run it on two trees and compare the outputs with ``diff -r`` (byte
identity) and ``tools/compare_reports.py`` (numeric differences).  The
CLI's exit codes 0 and 1 are verdicts; any other code is an error.  Exit
code 0 when every CLI call ended in a verdict, 1 otherwise, 2 when OUT is
not empty.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
VERDICT_CODES = (0, 1)


def _workloads(root: Path):
    """The ``generate`` function of ``root``'s perfbench workloads module."""
    spec = importlib.util.spec_from_file_location("_regen_workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.generate


def run_cli(root: Path, configs: list, out: Path) -> int:
    """The exit code of ``root``'s CLI on configs, writing into out."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), **dict.fromkeys(BLAS_VARS, "1")}
    command = [sys.executable, "-m", "spinsource.cli", *map(str, configs), "--output-dir", str(out)]
    proc = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode not in VERDICT_CODES:
        print(f"{out.name}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
    return proc.returncode


def regenerate(root: Path, out: Path, seeds) -> list:
    """(output directory, CLI exit code) for every workload seed and the demos."""
    root = root.resolve()
    generate = _workloads(root)
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    codes = []
    with tempfile.TemporaryDirectory(prefix="regen-configs-") as tmp:
        for workload in (w["name"] for w in benchmark["workloads"]):
            for seed in seeds:
                target = out / f"{workload}-{seed}"
                configs = Path(tmp) / target.name
                configs.mkdir()
                paths = []
                for case in generate(workload, seed):
                    path = configs / f"{case.config['name']}.json"
                    path.write_text(json.dumps(case.config, indent=2) + "\n")
                    paths.append(path)
                codes.append((target, run_cli(root, paths, target)))
    demos = sorted((root / "demos" / "configs").glob("*.json"))
    if demos:
        codes.append((out / "demos", run_cli(root, demos, out / "demos")))
    return codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, required=True, help="source tree to run")
    parser.add_argument("--out", type=Path, required=True, help="directory for the reports")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = parser.parse_args(argv)
    out = args.out.resolve()  # the CLI runs in --root, so a relative OUT is the caller's, made absolute
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty; stale reports would pass the diff", file=sys.stderr)
        return 2
    codes = regenerate(args.root, out, args.seeds)
    for target, code in codes:
        print(f"{target}\texit {code}")
    return 0 if all(code in VERDICT_CODES for _, code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
