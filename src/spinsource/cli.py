"""Command line front end for config-driven runs.

    spinsource CONFIG.json [MORE.json ...] [--output-dir DIR]
               [--seed N] [--n-max N] [--backend B] [-v]

Each config produces a structured JSON report and a decay CSV next to
it (see runner module for the schema).  Every config is loaded before
any runs; one that would write the same files as an earlier one is a
config error and does not run.  The configs run one after another, in
this process; a long decay CSV is formatted in forked processes (see
runner.emit_report).  Exit code: 0 when every selected check and test
verdict of every config is pass, 1 when any is not, 2 on config errors, bad
arguments and an output directory or report file that cannot be made (the
configs after such a one still run), 3 when a resource cap was hit.  Any
other failure while writing, a CSV worker's say, ends in a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import CapExceededError, ConfigError
from .runner import ExperimentConfig, emit_report, run_experiment
from .sources import _BACKENDS

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_CAP_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsource",
        description="Run spin-chain source experiments from JSON configs.",
    )
    parser.add_argument("configs", nargs="+", metavar="CONFIG", help="config JSON file")
    parser.add_argument("--output-dir", help="override every config's output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--n-max", type=int, dest="n_max", help="override the shift horizon")
    parser.add_argument("--backend", choices=_BACKENDS, help="override the backend")
    parser.add_argument("-v", "--verbose", action="store_true", help="per-pair verdicts")
    return parser


def _failure(exc: Exception) -> tuple:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG_ERROR, None, [], f"config error: {exc}"
    return EXIT_CAP_ERROR, None, [], f"resource cap: {exc}"


def _run_one(config) -> tuple:
    if not isinstance(config, ExperimentConfig):
        return config  # the failure that kept it from loading
    try:
        report = run_experiment(config)
    except CapExceededError as exc:
        return _failure(exc)
    code = EXIT_PASS if report.passed else EXIT_VERDICT_FAIL
    try:
        written = emit_report(report)
    except (FileExistsError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        # the output directory or a report file cannot be made: an output_dir naming a file, say
        return EXIT_CONFIG_ERROR, None, [], f"cannot write reports: {exc}"
    return code, report, written, None


def _print_result(path: str, code: int, report, written, error, verbose: bool) -> None:
    if error is not None:
        print(f"{path}: {error}", file=sys.stderr)
        return
    status = "pass" if code == EXIT_PASS else "FAIL"
    files = ", ".join(str(p) for p in written)
    print(f"{path}: {status} ({len(report.failures)} failures) -> {files}")
    if report.failures and not verbose:
        for f in report.failures[:5]:
            print(f"  {f}")
        if len(report.failures) > 5:
            print(f"  ... {len(report.failures) - 5} more in the report")
    if verbose:
        for name, check in report.checks.items():
            print(
                f"  check {name}: {'pass' if check.passed else 'FAIL'} "
                f"(worst {check.worst_deviation:.3e} at m,i={check.worst_pair})"
            )
        if report.sweep is not None:
            for pair in report.sweep.pairs:
                verdicts = ", ".join(
                    f"{r.test}={r.verdict}" for r in pair.reports
                )
                print(f"  pair {pair.label}: {verdicts}")
        if report.classification is not None:
            print(f"  oracle verdicts: {report.classification.verdicts}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, key)
        for key in ("seed", "n_max", "backend", "output_dir")
        if getattr(args, key) is not None
    }
    loaded = []
    owners = {}
    for path in args.configs:
        try:
            config = ExperimentConfig.from_json(path, overrides)
            target = (Path(config.output_dir).resolve(), config.name)
            if target in owners:
                raise ConfigError(f"writes the same files as {owners[target]}", "name")
            owners[target] = path
            loaded.append(config)
        except (ConfigError, CapExceededError) as exc:
            loaded.append(_failure(exc))
    worst = EXIT_PASS
    for path, item in zip(args.configs, loaded):
        code, report, written, error = _run_one(item)
        _print_result(path, code, report, written, error, args.verbose)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
