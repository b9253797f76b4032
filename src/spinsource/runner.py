"""Config-driven experiment runs with deterministic structured output.

A run is described by one JSON config (schema below), executed by
run_experiment, and emitted as a structured JSON report plus a
plot-ready CSV of per-shift correlation data.  Identical configs yield
byte-identical files within one numpy/BLAS build: every random quantity
is seeded, dict keys are sorted, and wall time is kept off the serialized
payload.

Config schema (a JSON object in a UTF-8 file, whatever the locale; defaults
in parentheses):

    name              report file stem (required), in characters the file
                      system's encoding holds (only ASCII under the C locale
                      without Python's UTF-8 mode)
    site_dim          local dimension d (2)
    seed              integer, required; no wall-clock entropy
    source            {"kind": "iid", "state": MATRIX}
                      | {"kind": "classically_correlated",
                         "process": PROCESS,
                         "alphabet": "computational" | MATRIX_OF_ROWS}
    channel           optional {"kind": NAME, "params": {...},
                                "block_sites": int (1)}; the channel acts on
                      every site, and block_sites is the step of the
                      consistency and stationarity checks
    tests             "all" | list from {consistency, stationarity,
                      ergodic_mean, weak_mixing, strong_mixing} ("all")
    block_sites       observable block length m (1)
    n_max             largest shift index (2000); >= 8, and >= block_sites + 3
                      when a mixing test is selected
    observable_count  random observable pairs in the sweep (2)
    backend           auto | dense | transfer ("auto")
    tolerance         verdict tolerance override (backend default)
    check_sites       largest m + i for consistency checks (4)
    output_dir        default emission directory (".")

    PROCESS = {"kind": "iid", "probs": [...]}
            | {"kind": "markov", "transition": [[...]], "initial": [...]?}
            | {"kind": "mixture", "weights": [...], "components": [PROCESS, ...]}
              (components may be mixtures themselves)

    MATRIX entries are numbers or [re, im] pairs.

Loading decodes the source and channel once and, before any work runs, makes
the same cap checks a run makes (CapExceededError; the CLI exits 3) through
the pre-flights library callers meet too: sources._check_plan (the checks'
builds of rho, on every backend), then ergodicity._sweep_plan, which also
refuses a horizon of fewer than 4 shifts (a ConfigError at n_max).
The channel's Kraus count (KRAUS_COUNT_CAP) is checked as it is decoded.

emit_report formats a long decay CSV on every CPU the process may run on:
on Linux, with more than one such CPU, at least _FORK_MIN_ROWS rows and no
other Python thread alive (a caller's own threads keep it serial), the rows
are cut in file order into contiguous shares; forked children write theirs
into anonymous memory files (memfd_create), and this process writes the
header and the first share and appends the others in order.  The bytes do
not depend on how many processes wrote them.

Report files are UTF-8 whatever the locale.  A rerun writes each file over
the earlier run's bytes in place and cuts it at its new end, rather than
truncating it to zero first, which some filesystems (ext4) make costly;
an exception while writing still leaves only the new bytes, but a process
killed mid-write can leave the new bytes followed by the old file's tail.
"""

from __future__ import annotations

import csv
import io
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .channels import _STANDARD_CHANNELS, KrausChannel, _is_real, make_standard_channel
from .classical import (
    ClassicalProcess,
    ClassificationReport,
    IIDProcess,
    MarkovProcess,
    MixtureProcess,
    classify_process,
)
from .errors import ConfigError
from .operators import DensityOperator, density_operator
from .sources import (
    AlphabetSpec,
    ChannelTransformedSource,
    ClassicallyCorrelatedSource,
    IIDSource,
    _BACKENDS,
    _check_plan,
    check_consistency,
    check_stationarity,
    computational_alphabet,
)
from .ergodicity import SourceSweepReport, _sweep_plan, sweep_report

TEST_NAMES = ("consistency", "stationarity", "ergodic_mean", "weak_mixing", "strong_mixing")
_ALIASES = {"ergodic": "ergodic_mean", "weak": "weak_mixing", "strong": "strong_mixing"}
_CHECKS = ("consistency", "stationarity")
_MIXING = ("ergodic_mean", "weak_mixing", "strong_mixing")
_SOURCE_KEYS = {"iid": ("state",), "classically_correlated": ("process", "alphabet")}
_PROCESS_KEYS = {
    "iid": ("probs",), "markov": ("transition", "initial"), "mixture": ("weights", "components"),
}
_CHANNEL_KEYS = dict.fromkeys(_STANDARD_CHANNELS, ("params", "block_sites"))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _decode_matrix(obj, field: str) -> np.ndarray:
    """Nested lists of numbers or [re, im] pairs as a complex matrix."""
    if not isinstance(obj, list) or not obj:
        raise ConfigError("expected a nonempty list of rows", field)
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise ConfigError(f"row {r} is not a nonempty list", field)
        out = []
        for c, entry in enumerate(row):
            if _is_real(entry):
                out.append(complex(entry))
            elif isinstance(entry, list) and len(entry) == 2 and all(map(_is_real, entry)):
                out.append(complex(entry[0], entry[1]))
            else:
                raise ConfigError(
                    f"entry [{r}][{c}] must be a number or [re, im]", field
                )
        rows.append(out)
    if len({len(r) for r in rows}) != 1:
        raise ConfigError("rows have unequal lengths", field)
    return np.array(rows, dtype=complex)


def _require(mapping: dict, key: str, field: str):
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r}", field)
    return mapping[key]


@contextmanager
def _as_config_error(field: str):
    """Report a ValueError or TypeError from building field as a ConfigError there."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc), field) from exc


def _check_keys(mapping: dict, known, field: str | None = None) -> None:
    for key in mapping:
        if key not in known:
            raise ConfigError(f"unknown key {key!r}", key if field is None else f"{field}.{key}")


def _spec_kind(spec, keys_by_kind: dict, field: str) -> str:
    """The spec's kind, once the spec is an object with a known kind and only that kind's keys."""
    if not isinstance(spec, dict):
        raise ConfigError("spec must be an object", field)
    kind = _require(spec, "kind", field)
    if not isinstance(kind, str) or kind not in keys_by_kind:
        raise ConfigError(f"unknown kind {kind!r}; known: {sorted(keys_by_kind)}", f"{field}.kind")
    _check_keys(spec, ("kind", *keys_by_kind[kind]), field)
    return kind


def _is_int(value) -> bool:
    """JSON integers only: bool is an int subclass but true/false are not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_reals(value) -> bool:
    """A JSON number, or a list of such values at any depth."""
    return _is_real(value) or (isinstance(value, list) and all(map(_is_reals, value)))


def _read_json(path):
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _build_process(spec, field: str):
    kind = _spec_kind(spec, _PROCESS_KEYS, field)

    def reals(key):
        value = _require(spec, key, field)
        if not isinstance(value, list) or not _is_reals(value):
            raise ConfigError("expected a list of numbers", f"{field}.{key}")
        return np.asarray(value, dtype=float)

    with _as_config_error(field):
        if kind == "iid":
            return IIDProcess(reals("probs"))
        if kind == "markov":
            initial = None if spec.get("initial") is None else reals("initial")
            return MarkovProcess(reals("transition"), initial)
        comps = _require(spec, "components", field)
        return MixtureProcess(
            reals("weights"),
            tuple(
                _build_process(c, f"{field}.components[{j}]")
                for j, c in enumerate(comps)
            ),
        )


class _SourceParts(NamedTuple):
    """A config's source and channel, decoded and validated once at load.  No
    part spans more than one site, so a loaded config holds no density."""

    process: ClassicalProcess | None  # None for an iid source
    emitter: DensityOperator | AlphabetSpec  # the iid state, or the alphabet
    channel: KrausChannel | None  # the one-site channel on every site


def _decode_source(spec, channel_spec, site_dim: int) -> _SourceParts:
    """The specs' validated parts; a bad node raises ConfigError at its path."""
    kind = _spec_kind(spec, _SOURCE_KEYS, "source")
    process = None
    if kind == "iid":
        state = _decode_matrix(_require(spec, "state", "source.state"), "source.state")
        with _as_config_error("source.state"):
            emitter = density_operator(state, site_dim=site_dim, sites=1)
    else:
        process = _build_process(_require(spec, "process", "source.process"), "source.process")
        alph = spec.get("alphabet", "computational")
        with _as_config_error("source.alphabet"):
            if alph == "computational":
                emitter = computational_alphabet(process.alphabet_size, site_dim)
            else:
                emitter = AlphabetSpec(_decode_matrix(alph, "source.alphabet"))
    channel = None if channel_spec is None else _decode_channel(channel_spec, site_dim)
    return _SourceParts(process, emitter, channel)


def _decode_channel(spec, site_dim: int) -> KrausChannel:
    """The spec's one-site channel; block_sites is only a check step."""
    name = _spec_kind(spec, _CHANNEL_KEYS, "channel")
    blocks = spec.get("block_sites", 1)
    if not _is_int(blocks) or blocks < 1:
        raise ConfigError("block_sites must be an integer >= 1", "channel.block_sites")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object", "channel.params")
    kinds = _STANDARD_CHANNELS[name][0]
    _check_keys(params, kinds, "channel.params")
    params = dict(params)
    for key, value in params.items():
        what, ok = kinds[key]
        if not ok(value):
            raise ConfigError(f"must be {what}", f"channel.params.{key}")
    if "alphabet" in params:
        params["alphabet"] = _decode_matrix(params["alphabet"], "channel.params.alphabet")
    with _as_config_error("channel"):
        return make_standard_channel(name, params, dim=site_dim)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run description; equal configs produce equal reports.
    parts, the decoded specs, stays out of equality, repr and echo()."""

    name: str
    site_dim: int
    seed: int
    source_spec: dict
    channel_spec: dict | None
    tests: tuple
    block_sites: int
    n_max: int
    observable_count: int
    backend: str
    tolerance: float | None
    check_sites: int
    output_dir: str
    parts: _SourceParts = field(compare=False, repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        _check_keys(raw, (
            "name", "site_dim", "seed", "source", "channel", "tests",
            "block_sites", "n_max", "observable_count", "backend",
            "tolerance", "check_sites", "output_dir",
        ))
        name = _require(raw, "name", "name")
        if not isinstance(name, str) or not name or "/" in name:
            raise ConfigError("name must be a nonempty string without '/'", "name")
        try:
            os.fsencode(name)  # the report's file stem: the C locale's file names are ASCII
        except UnicodeEncodeError as exc:
            raise ConfigError(f"{name!r} is no file name in this locale's encoding ({exc.encoding})", "name") from exc
        seed = _require(raw, "seed", "seed")
        if not _is_int(seed) or seed < 0:
            raise ConfigError("seed must be an integer >= 0 (and is mandatory)", "seed")
        tests = raw.get("tests", "all")
        if tests == "all":
            tests = TEST_NAMES
        elif isinstance(tests, list):
            names = [_ALIASES.get(t, t) if isinstance(t, str) else t for t in tests]
            for t in names:
                if t not in TEST_NAMES:
                    raise ConfigError(f"unknown test {t!r}", "tests")
            if not names:
                raise ConfigError("at least one test must be selected", "tests")
            tests = tuple(t for t in TEST_NAMES if t in names)
        else:
            raise ConfigError("tests must be 'all' or a list of names", "tests")
        source = _require(raw, "source", "source")
        channel = raw.get("channel")

        def _int(key, default, minimum):
            v = raw.get(key, default)
            if not _is_int(v) or v < minimum:
                raise ConfigError(f"{key} must be an integer >= {minimum}", key)
            return v

        backend = raw.get("backend", "auto")
        if backend not in _BACKENDS:
            raise ConfigError(f"backend must be one of {', '.join(_BACKENDS)}", "backend")
        tolerance = raw.get("tolerance")
        if tolerance is not None:
            if not _is_real(tolerance) or not 0 < tolerance < 1:
                raise ConfigError("tolerance must be a number in (0, 1)", "tolerance")
            tolerance = float(tolerance)
        output_dir = raw.get("output_dir", ".")
        if not isinstance(output_dir, str):
            raise ConfigError("output_dir must be a string", "output_dir")
        site_dim = _int("site_dim", 2, 2)
        block_sites = _int("block_sites", 1, 1)
        n_max = _int("n_max", 2000, 8)
        observable_count = _int("observable_count", 2, 0)
        check_sites = _int("check_sites", 4, 2)
        config = cls(
            name=name,
            site_dim=site_dim,
            seed=seed,
            source_spec=source,
            channel_spec=channel,
            tests=tests,
            block_sites=block_sites,
            n_max=n_max,
            observable_count=observable_count,
            backend=backend,
            tolerance=tolerance,
            check_sites=check_sites,
            output_dir=output_dir,
            parts=_decode_source(source, channel, site_dim),
        )
        # every resource cap, decided before any work by the checks' and the
        # sweep's own pre-flights; the assembled source is dropped with this frame
        source = build_source(config)[0]
        if any(t in _CHECKS for t in tests):
            _check_plan(source, *_check_sites(config))  # the checks are dense on every route
        if any(t in _MIXING for t in tests):
            with _as_config_error("n_max"):  # the horizon; the plan's caps raise CapExceededError
                _sweep_plan(source, block_sites, n_max, backend, tolerance, observable_count, seed)
        return config

    @classmethod
    def from_json(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        """One config file, with overrides (raw config keys, such as the CLI's)
        merged over the file's object so they pass the same checks."""
        raw = _read_json(path)
        if overrides and isinstance(raw, dict):
            raw = {**raw, **overrides}
        return cls.from_dict(raw)

    def echo(self) -> dict:
        """Round-trippable resolved config (emission directory excluded)."""
        out = {
            "name": self.name,
            "site_dim": self.site_dim,
            "seed": self.seed,
            "source": self.source_spec,
            "tests": list(self.tests),
            "block_sites": self.block_sites,
            "n_max": self.n_max,
            "observable_count": self.observable_count,
            "backend": self.backend,
            "check_sites": self.check_sites,
        }
        if self.channel_spec is not None:
            out["channel"] = self.channel_spec
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        return out


def _check_sites(config: ExperimentConfig) -> tuple:
    """(max_sites, block) of the consistency and stationarity checks: whole
    channel blocks, at least two of them."""
    block = (config.channel_spec or {}).get("block_sites", 1)
    return max(2, config.check_sites // block) * block, block


def build_source(config: ExperimentConfig):
    """(source, base classical process or None) assembled from the config's
    decoded parts: constructor calls only, so every run gets a fresh source
    whose densities live as long as the caller keeps it."""
    process, emitter, channel = config.parts
    if process is None:
        source = IIDSource(emitter)
    else:
        with _as_config_error("source.alphabet"):
            source = ClassicallyCorrelatedSource(process, emitter)
    if channel is not None:
        with _as_config_error("channel"):
            source = ChannelTransformedSource(source, channel)
    return source, process


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    """Everything a run produced.  wall_time_s never enters the payload."""

    config: ExperimentConfig
    version: str
    checks: dict
    sweep: SourceSweepReport | None
    classification: ClassificationReport | None
    failures: tuple
    passed: bool
    wall_time_s: float

    def payload(self) -> dict:
        out = {
            "toolkit_version": self.version,
            "config": self.config.echo(),
            "checks": {k: _ser_check(v) for k, v in self.checks.items()},
            "classification_oracle": _ser_classification(self.classification),
            "sweep": _ser_sweep(self.sweep, self.config.tests),
            "failures": list(self.failures),
            "passed": self.passed,
        }
        return out


def _ser_check(report) -> dict:
    return {
        "mode": report.mode,
        "max_sites": report.max_sites,
        "worst_deviation": float(report.worst_deviation),
        "worst_pair": [int(x) for x in report.worst_pair],
        "tol": float(report.tol),
        "passed": report.passed,
    }


def _ser_classification(report) -> dict | None:
    if report is None:
        return None
    return {
        "kind": report.kind,
        "stationary": report.stationary,
        "irreducible": report.irreducible,
        "period": report.period,
        "unique_stationary": report.unique_stationary,
        "verdicts": {
            "ergodic_mean": report.ergodic_mean,
            "weak_mixing": report.weak_mixing,
            "strong_mixing": report.strong_mixing,
        },
    }


def _ser_test(report) -> dict:
    out = {
        "verdict": report.verdict,
        "final_deviation": float(report.final_deviation),
        "target": [float(report.target.real), float(report.target.imag)],
        "tol": float(report.tol),
        "n_max": int(report.n_max),
    }
    if report.test == "strong_mixing":
        decay = report.decay
        out["decay"] = None if decay is None else {
            "rate": decay.rate,
            "log_intercept": decay.log_intercept,
            "points_used": decay.points_used,
            "max_log_residual": decay.max_log_residual,
        }
    return out


def _ser_sweep(sweep, tests) -> dict | None:
    if sweep is None:
        return None
    selected = [t for t in _MIXING if t in tests]
    pairs = []
    for p in sweep.pairs:
        entry = {"label": p.label, "tests": {}}
        for t in selected:
            entry["tests"][t] = _ser_test(getattr(p, t))
        pairs.append(entry)
    out = {
        "block_sites": sweep.block_sites,
        "n_max": sweep.n_max,
        "backend": sweep.backend,
        "tol": float(sweep.tol),
        "note": sweep.note,
        "verdicts": {t: getattr(sweep, t) for t in selected},
        "pairs": pairs,
    }
    if len(selected) == 3:
        out["monotone_ok"] = sweep.monotone_ok
    return out


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Build the source, run the selected checks and tests, collect failures."""
    t0 = time.perf_counter()
    source, process = build_source(config)
    checks = {}
    max_sites, block = _check_sites(config)
    if "consistency" in config.tests:
        checks["consistency"] = check_consistency(source, max_sites, block)
    if "stationarity" in config.tests:
        checks["stationarity"] = check_stationarity(source, max_sites, block)
    sweep = None
    selected_mixing = [t for t in _MIXING if t in config.tests]
    if selected_mixing:
        sweep = sweep_report(
            source,
            block_sites=config.block_sites,
            n_max=config.n_max,
            backend=config.backend,
            tol=config.tolerance,
            random_pair_count=config.observable_count,
            seed=config.seed,
        )
    failures = []
    for name, report in checks.items():
        if not report.passed:
            failures.append(
                {
                    "kind": "check",
                    "name": name,
                    "worst_deviation": float(report.worst_deviation),
                    "worst_pair": [int(x) for x in report.worst_pair],
                }
            )
    if sweep is not None:
        for pair in sweep.pairs:
            for t in selected_mixing:
                report = getattr(pair, t)
                if report.verdict != "pass":
                    failures.append(
                        {
                            "kind": "test",
                            "name": t,
                            "pair": pair.label,
                            "verdict": report.verdict,
                            "final_deviation": float(report.final_deviation),
                        }
                    )
    classification = classify_process(process) if process is not None else None
    wall = time.perf_counter() - t0
    return RunReport(
        config, __version__, checks, sweep, classification,
        tuple(failures), not failures, wall,
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

CSV_HEADER = ("pair", "i", "corr_real", "corr_imag", "target", "abs_deviation", "cesaro_mean")


def _csv_field(value) -> str:
    """value as csv's default dialect writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow((value, ""))
    return buf.getvalue()[: -len(",\r\n")]


def _float_strings(column) -> list:
    """repr of each float64 in column, formatting each run of equal cells once.

    Runs of bitwise-equal neighbours collapse to their heads in numpy, and
    the heads' bits map to their values in one dict.  How the heads are
    formatted depends on that dict:

    * when it holds more than half as many entries as there are runs, most
      heads are distinct (a Cesaro mean creeping towards its limit), so each
      head is formatted directly: a second dict would cost more lookups than
      it saves repr calls;
    * otherwise the column cycles or settles (period-2 correlations, target
      and iid columns), and each distinct bit pattern is formatted once
      through a dict keyed on the bits.

    When every cell is its own run the head strings are the column's, and
    the np.repeat index that expands runs to rows is skipped.  Keying on the
    bits keeps -0.0 apart from 0.0 and NaN payloads exact.  A dict needs no
    sort, and the strings stay in a list: the first call into numpy's sort
    kernels (np.unique), and an object array of the strings expanded by
    np.repeat, each raise the peak RSS of a run with small CSVs.
    """
    column = np.ascontiguousarray(column, dtype=np.float64)
    bits = column.view(np.uint64)
    heads = np.ones(bits.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=heads[1:])
    starts = np.flatnonzero(heads)
    head_bits = bits[starts].tolist()
    head_values = column[starts].tolist()
    values = dict(zip(head_bits, head_values))
    if 2 * len(values) > len(head_bits):
        strings = list(map(repr, head_values))
    else:
        text = {b: repr(x) for b, x in values.items()}
        strings = list(map(text.__getitem__, head_bits))
    if len(strings) == bits.size:
        return strings
    runs = np.repeat(np.arange(starts.size), np.diff(starts, append=bits.size))
    return list(map(strings.__getitem__, runs.tolist()))


# rows per chunk of the decay CSV: one chunk's cell and row strings are alive at once, not a pair's
_CSV_CHUNK_ROWS = 8192
# fewest CSV rows worth forked formatters.  On 2 cores at 99 MB resident, two
# processes broke even with one near 8192 rows (23 against 24 ms) and saved a
# third at 16384 (36 against 52 ms); the fork, the copy-on-write faults and
# the append cost about as much as formatting a few thousand rows
_FORK_MIN_ROWS = 2 * _CSV_CHUNK_ROWS


def _decay_lines(pair, start=0, stop=None):
    """The pair's CSV rows start..stop-1, one per shift index, each ending in
    csv's "\r\n", as one string per slice of _CSV_CHUNK_ROWS rows."""
    strong = pair.strong_mixing
    head = f"{_csv_field(pair.label)},"
    tail = f",{float(strong.target.real)!r},"
    columns = (
        strong.statistics.real,
        strong.statistics.imag,
        strong.deviations,
        pair.ergodic_mean.statistics.real,
    )
    stop = strong.shifts.size if stop is None else stop
    for first in range(start, stop, _CSV_CHUNK_ROWS):
        rows = slice(first, min(first + _CSV_CHUNK_ROWS, stop))
        yield "".join([
            f"{head}{i},{re},{im}{tail}{dev},{mean}\r\n"
            for i, re, im, dev, mean in zip(
                strong.shifts[rows].tolist(), *(_float_strings(c[rows]) for c in columns)
            )
        ])


def _write_rows(fh, pairs, start, stop) -> None:
    """Write the CSV body's rows start..stop-1, counted across pairs in file order."""
    offset = 0
    for pair in pairs:
        size = pair.strong_mixing.shifts.size
        if start < offset + size and offset < stop:
            fh.writelines(_decay_lines(pair, max(start - offset, 0), min(stop - offset, size)))
        offset += size


def _csv_workers(rows: int) -> int:
    """How many processes format a decay CSV of rows rows.

    More than one only on Linux (memfd_create), with more than one CPU to
    run on, at least _FORK_MIN_ROWS rows, and no other Python thread alive:
    a fork copies only the calling thread, so a library caller that emits
    reports from its own threads keeps formatting in this process.
    """
    if rows < _FORK_MIN_ROWS or not hasattr(os, "memfd_create") or threading.active_count() != 1:
        return 1
    return min(len(os.sched_getaffinity(0)), rows // _CSV_CHUNK_ROWS)


def _fork_share(pairs, start, stop) -> tuple:
    """(pid, memfd) of a child that writes rows start..stop-1 into the memfd.

    The child leaves through os._exit, 0 on success and 1 on any exception,
    so it runs no atexit handler and flushes none of this process's buffers.
    """
    memfd = os.memfd_create("decay-csv")
    try:
        pid = os.fork()
    except BaseException:
        os.close(memfd)
        raise
    if pid == 0:
        code = 1
        try:
            with open(memfd, "w", encoding="utf-8", newline="", closefd=False) as out:
                _write_rows(out, pairs, start, stop)
            code = 0
        finally:
            os._exit(code)
    return pid, memfd


def _write_body(fh, pairs) -> None:
    """Write every pair's rows to fh, cut in file order into one contiguous
    share per _csv_workers process: this process writes the first share and
    forked children the others, each into a memfd that is appended in order
    once its child is reaped.  The bytes do not depend on the cut, and no
    child outlives the call: on any exception the children left are killed
    and reaped."""
    rows = sum(pair.strong_mixing.shifts.size for pair in pairs)
    workers = _csv_workers(rows)
    bounds = [rows * k // workers for k in range(workers + 1)]
    children = []
    try:
        for k in range(1, workers):
            children.append(_fork_share(pairs, bounds[k], bounds[k + 1]))
        _write_rows(fh, pairs, 0, bounds[1])
        while children:
            pid, memfd = children[0]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            try:
                if code != 0:
                    raise OSError(f"decay CSV worker {pid} exited with status {code}")
                fh.flush()
                sent, size = 0, os.fstat(memfd).st_size
                while sent < size:
                    sent += os.sendfile(fh.fileno(), memfd, sent, size - sent)
            finally:
                os.close(memfd)
    finally:
        if children:
            import signal  # here, not above: its enums cost every import of the package ~1.3 ms

            for pid, memfd in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(memfd)


@contextmanager
def _rewritten(path, newline=None):
    """A UTF-8 text file written over path's old bytes from the start, cut at
    the end of this write when the block ends, whether it ends or raises.

    Opening without O_TRUNC spares the filesystem a truncate to zero before
    every rerun into the same directory.  The end is read from the descriptor
    (lseek): _write_body appends with sendfile, past the text layer's writes.
    """
    # O_BINARY (Windows only, 0 elsewhere): the C runtime must not turn "\n" into "\r\n" again
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        finally:
            try:
                fh.flush()
            finally:
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def emit_report(report: RunReport, output_dir=None) -> list:
    """Write <name>.report.json, and <name>.decay.csv when a mixing test ran.

    A run without one removes a <name>.decay.csv left by an earlier run of
    the same name, so the directory never pairs a report with a stale CSV.
    Returns the written paths.  Identical reports produce byte-identical
    files, however many processes format the CSV (_write_body).

    Both files are UTF-8, written over an earlier run's bytes in place and
    cut at their new end (_rewritten); an exception while writing leaves
    only the new bytes.  A process killed mid-write (SIGKILL, power loss)
    can leave the new bytes followed by the tail of the earlier file.
    """
    directory = Path(output_dir if output_dir is not None else report.config.output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    json_path = directory / f"{report.config.name}.report.json"
    with _rewritten(json_path) as fh:
        fh.write(json.dumps(report.payload(), sort_keys=True, indent=2) + "\n")
    written.append(json_path)
    csv_path = directory / f"{report.config.name}.decay.csv"
    if report.sweep is not None and report.sweep.pairs:
        with _rewritten(csv_path, newline="") as fh:
            fh.write(",".join(CSV_HEADER) + "\r\n")
            _write_body(fh, report.sweep.pairs)
        written.append(csv_path)
    else:
        csv_path.unlink(missing_ok=True)
    return written


def run_config_file(path, overrides: dict | None = None) -> tuple:
    """(RunReport, written paths) for one config file, with CLI overrides."""
    report = run_experiment(ExperimentConfig.from_json(path, overrides))
    return report, emit_report(report)
