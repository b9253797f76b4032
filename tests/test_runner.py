"""Experiment configs, reports, emitted files, and the command line."""

import builtins
import csv
import dataclasses
import gc
import json
import os
import stat
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinsource as ss
from spinsource import cli
from spinsource.ergodicity import ErgodicityReport, PairReport
from spinsource.errors import ConfigError
from spinsource.runner import (
    CSV_HEADER,
    ExperimentConfig,
    RunReport,
    _float_strings,
    emit_report,
    run_config_file,
    run_experiment,
)

# configs travel as JSON, so matrices here are plain lists
RHO_SITE = [[0.75, 0.25], [0.25, 0.25]]
APERIODIC_T = [[0.9, 0.1], [0.2, 0.8]]
PERIOD2_T = [[0.0, 1.0], [1.0, 0.0]]


def iid_config(**overrides):
    base = {
        "name": "iid_small",
        "seed": 7,
        "source": {"kind": "iid", "state": RHO_SITE},
        "tests": "all",
        "n_max": 120,
        "observable_count": 1,
        "backend": "transfer",
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def markov_config(transition, name, **overrides):
    base = {
        "name": name,
        "seed": 11,
        "source": {
            "kind": "classically_correlated",
            "process": {"kind": "markov", "transition": transition},
            "alphabet": "computational",
        },
        "tests": "all",
        "n_max": 150,
        "observable_count": 1,
        "backend": "transfer",
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def correlated(process, alphabet="computational"):
    return {"kind": "classically_correlated", "process": process, "alphabet": alphabet}


class TestConfigParsing:
    def test_seed_is_mandatory(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict({"name": "x", "source": {"kind": "iid", "state": RHO_SITE}})

    def test_seed_must_be_int(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict(
                {"name": "x", "seed": 1.5, "source": {"kind": "iid", "state": RHO_SITE}}
            )

    @pytest.mark.parametrize("seed", [True, False, -1])
    def test_seed_must_be_nonnegative_int(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict(
                {"name": "x", "seed": seed, "source": {"kind": "iid", "state": RHO_SITE}}
            )

    @pytest.mark.parametrize("key", ["n_max", "observable_count", "check_sites", "site_dim"])
    def test_integer_fields_reject_booleans(self, key):
        with pytest.raises(ConfigError, match=key):
            iid_config(**{key: True})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_dict(
                {"name": "x", "seed": 1, "source": {"kind": "iid", "state": RHO_SITE}, "zzz": 1}
            )

    def test_bad_test_name(self):
        with pytest.raises(ConfigError, match="tests"):
            iid_config(tests=["strong", "nope"])

    def test_test_aliases(self):
        cfg = iid_config(tests=["ergodic", "weak", "strong"])
        assert cfg.tests == ("ergodic_mean", "weak_mixing", "strong_mixing")

    def test_bad_matrix_entry(self):
        with pytest.raises(ConfigError, match="source.state"):
            ExperimentConfig.from_dict(
                {"name": "x", "seed": 1, "source": {"kind": "iid", "state": [[1, "a"], [0, 0]]}}
            )

    def test_complex_entries_as_pairs(self):
        cfg = ExperimentConfig.from_dict(
            {
                "name": "x",
                "seed": 1,
                "source": {"kind": "iid", "state": [[0.5, [0, 0.1]], [[0, -0.1], 0.5]]},
            }
        )
        src, _ = ss.runner.build_source(cfg)
        assert src.density(1).entries[0, 1] == pytest.approx(0.1j)

    def test_bad_process_kind(self):
        with pytest.raises(ConfigError, match="process"):
            markov_config(APERIODIC_T, "x", source={
                "kind": "classically_correlated",
                "process": {"kind": "mystery"},
                "alphabet": "computational",
            })

    def test_name_must_be_path_safe(self):
        with pytest.raises(ConfigError, match="name"):
            iid_config(name="a/b")

    def test_n_max_floor(self):
        with pytest.raises(ConfigError, match="n_max"):
            iid_config(n_max=4)

    def test_horizon_needs_four_shifts_only_for_mixing_tests(self):
        report = run_experiment(iid_config(block_sites=5, n_max=8, tests=["strong"]))
        assert len(report.sweep.pairs[0].strong_mixing.shifts) == 4
        assert iid_config(block_sites=6, n_max=8, tests=["consistency"]).n_max == 8

    def test_tolerance_range(self):
        with pytest.raises(ConfigError, match="tolerance"):
            iid_config(tolerance=0.0)

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x",}')
        with pytest.raises(ConfigError, match="line"):
            ExperimentConfig.from_json(path)

    def test_misaligned_block_channel_loads(self):
        # the channel acts on every site, so its states exist at every site
        # count and both backends answer the same question at odd gaps
        damped = {"kind": "amplitude_damping", "params": {"gamma": 0.4}, "block_sites": 2}
        a = ss.random_observable(1, seed=41)
        b = ss.random_observable(1, seed=42)
        for cfg in (
            iid_config(channel=damped),
            iid_config(channel=damped, block_sites=2, backend="dense", tests=["weak"], n_max=8),
        ):
            src, _ = ss.runner.build_source(cfg)
            dense = ss.source_correlation(src, a, b, [0, 1, 2, 3], "dense")
            transfer = ss.source_correlation(src, a, b, [0, 1, 2, 3], "transfer")
            assert np.max(np.abs(dense - transfer)) <= 1e-12

    def test_echo_round_trips(self):
        cfg = markov_config(APERIODIC_T, "echo_me", tolerance=0.02)
        assert ExperimentConfig.from_dict(cfg.echo()) == cfg

    def test_echo_hides_output_dir(self):
        cfg = iid_config(output_dir="/tmp/somewhere")
        assert "output_dir" not in cfg.echo()


class TestRunExperiment:
    def test_iid_run_passes(self):
        report = run_experiment(iid_config())
        assert report.passed and not report.failures
        # a bare density source carries no classical process to classify
        assert report.classification is None
        assert report.sweep.verdicts == ("pass", "pass", "pass")

    def test_markov_run_carries_oracle(self):
        report = run_experiment(markov_config(APERIODIC_T, "oracle"))
        assert report.classification.verdicts == (True, True, True)
        oracle = report.payload()["classification_oracle"]
        assert oracle["verdicts"] == {
            "ergodic_mean": True,
            "weak_mixing": True,
            "strong_mixing": True,
        }

    def test_period2_run_fails_with_named_pairs(self):
        report = run_experiment(markov_config(PERIOD2_T, "flip"))
        assert not report.passed
        kinds = {f["kind"] for f in report.failures}
        assert kinds == {"test"}
        names = {f["name"] for f in report.failures}
        assert names == {"weak_mixing", "strong_mixing"}
        assert all("pair" in f and "final_deviation" in f for f in report.failures)

    def test_checks_only_selection(self):
        cfg = iid_config(tests=["consistency", "stationarity"])
        report = run_experiment(cfg)
        assert report.sweep is None
        assert set(report.payload()["checks"]) == {"consistency", "stationarity"}

    def test_channel_spec_applies(self):
        cfg = markov_config(
            APERIODIC_T,
            "dep",
            channel={"kind": "depolarizing", "params": {"p": 0.3}},
        )
        report = run_experiment(cfg)
        assert report.passed

    def test_block_channel_switches_to_block_stationarity(self):
        cfg = iid_config(
            name="blocked",
            channel={"kind": "amplitude_damping", "params": {"gamma": 0.4}, "block_sites": 2},
            tests=["consistency", "stationarity"],
        )
        report = run_experiment(cfg)
        checks = report.payload()["checks"]
        assert checks["stationarity"]["mode"].startswith("block")
        assert report.passed

    def test_wall_time_tracked_but_not_emitted(self):
        report = run_experiment(iid_config())
        assert report.wall_time_s > 0
        payload = json.dumps(report.payload())
        assert "wall" not in payload


NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
CRAFTED_COLUMN = np.array([
    -0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300, 0.1 + 0.2, 1e16,
    -0.0, -0.0, 0.0, NAN_PAYLOAD, np.nan, 1e-300, 1e-300, 1e-300, 2.5, -7.125, 1e16,
])


def _complex(real, imag):
    """real + i imag with both parts kept bit for bit (no arithmetic on -0.0, inf or NaN)."""
    out = np.empty(len(real), dtype=complex)
    out.real, out.imag = real, imag
    return out


def _crafted_pair(label, column, target):
    """A PairReport whose statistics are the given column and its rearrangements."""
    column = np.asarray(column, dtype=float)
    n = column.size
    shifts = np.arange(1, n + 1)
    devs = np.random.default_rng(n).permutation(column)

    def report(test, stats):
        return ErgodicityReport(test, n, target, shifts, stats, devs, 0.0, 0.01, "pass")

    return PairReport(
        label,
        report("ergodic_mean", _complex(np.roll(column, 3), column)),
        report("weak_mixing", devs),
        report("strong_mixing", _complex(column, column[::-1])),
    )


def _reference_csv(report, path):
    """The decay CSV as csv.writer writes it, one row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for pair in report.sweep.pairs:
            strong = pair.strong_mixing
            cesaro = pair.ergodic_mean.statistics
            for j, i in enumerate(strong.shifts):
                values = (
                    strong.statistics[j].real, strong.statistics[j].imag,
                    strong.target.real, strong.deviations[j], cesaro[j].real,
                )
                writer.writerow([pair.label, int(i)] + [repr(float(x)) for x in values])


class TestDecodeOnce:
    """Loading decodes each spec once; a run only assembles the source from the parts."""

    RAW = {
        "name": "decode_once",
        "seed": 5,
        "source": correlated(
            {"kind": "markov", "transition": APERIODIC_T}, [[1.0, 0.0], [2**-0.5, 2**-0.5]]
        ),
        "channel": {"kind": "depolarizing", "params": {"p": 0.3}},
        "n_max": 60,
        "observable_count": 1,
    }

    def test_each_decoding_step_runs_once(self, monkeypatch):
        calls = []

        def counting(module, name):
            real = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapped)

        counting(ss.classical, "stationary_distribution")
        counting(ss.sources, "validate_alphabet")
        counting(ss.runner, "make_standard_channel")
        config = ExperimentConfig.from_dict(self.RAW)
        assert run_experiment(config).passed
        assert sorted(calls) == ["make_standard_channel", "stationary_distribution", "validate_alphabet"]
        assert ExperimentConfig.from_dict(config.echo()) == config

    def test_kraus_completeness_checked_once_per_load(self, monkeypatch):
        calls = []
        real = ss.channels.validate_kraus

        def counting(channel):
            calls.append(channel)
            return real(channel)

        monkeypatch.setattr(ss.channels, "validate_kraus", counting)
        config = ExperimentConfig.from_dict(self.RAW)
        assert len(calls) == 1
        run_experiment(config)
        assert len(calls) == 1

    def test_config_keeps_no_source(self, monkeypatch):
        sources = []
        real = ss.runner.build_source

        def keeping_a_weakref(config):
            out = real(config)
            sources.append(weakref.ref(out[0]))
            return out

        monkeypatch.setattr(ss.runner, "build_source", keeping_a_weakref)
        config = ExperimentConfig.from_dict(self.RAW)
        run_experiment(config)
        # one source assembled at load, one in the run; neither outlives its call
        assert len(sources) == 2 and all(ref() is None for ref in sources)
        for parts in (config.parts, iid_config().parts):
            assert all(part.sites == 1 for part in parts if isinstance(part, ss.Operator))


class TestEmitReport:
    def test_files_and_determinism(self, tmp_path):
        cfg = markov_config(APERIODIC_T, "emit_demo", output_dir=str(tmp_path / "a"))
        paths_a = emit_report(run_experiment(cfg))
        paths_b = emit_report(run_experiment(cfg), output_dir=tmp_path / "b")
        blobs_a = [p.read_bytes() for p in paths_a]
        blobs_b = [p.read_bytes() for p in paths_b]
        assert blobs_a == blobs_b
        assert paths_a[0].name == "emit_demo.report.json"
        assert paths_a[1].name == "emit_demo.decay.csv"

    def test_csv_row_count_contract(self, tmp_path):
        cfg = markov_config(APERIODIC_T, "rows", n_max=60, output_dir=str(tmp_path))
        report = run_experiment(cfg)
        json_path, csv_path = emit_report(report)
        lines = csv_path.read_text().strip().split("\n")
        pair_count = len(report.sweep.pairs)
        # block m = 1 here, so each pair contributes n_max - m + 1 = 60 rows
        assert len(lines) == 1 + pair_count * 60
        assert lines[0] == ",".join(CSV_HEADER)

    def test_iid_csv_deviation_column_is_zero(self, tmp_path):
        cfg = iid_config(name="flat", n_max=40, output_dir=str(tmp_path))
        _, csv_path = emit_report(run_experiment(cfg))
        rows = csv_path.read_text().strip().split("\n")[1:]
        devs = {row.split(",")[5] for row in rows}
        assert devs == {"0.0"}

    def test_report_json_is_sorted_and_versioned(self, tmp_path):
        cfg = iid_config(name="meta", output_dir=str(tmp_path))
        json_path, _ = emit_report(run_experiment(cfg))
        payload = json.loads(json_path.read_text())
        assert payload["toolkit_version"] == ss.__version__
        assert list(payload) == sorted(payload)

    @staticmethod
    def crafted_report(pairs, output_dir):
        """A run's report with its sweep's pairs swapped for the given ones."""
        base = run_experiment(markov_config(APERIODIC_T, "crafted", n_max=40))
        return dataclasses.replace(
            base,
            config=dataclasses.replace(base.config, output_dir=str(output_dir)),
            sweep=dataclasses.replace(base.sweep, pairs=pairs),
        )

    def test_csv_matches_csv_writer_reference(self, tmp_path):
        pairs = tuple(
            _crafted_pair(label, column, target)
            for label, column, target in (
                ("plain", CRAFTED_COLUMN, complex(-0.0, 1.0)),
                ("a,b", CRAFTED_COLUMN[::-1], complex(0.1 + 0.2, 0.0)),
                ('say "hi"', np.full(9, 0.3), complex(np.nan, 0.0)),
                ("two\nlines", np.linspace(-1.0, 1.0, 11), complex(1e16, -5e-324)),
                ("", np.array([5e-324, 5e-324, -0.0, -0.0, 0.0]), complex(-np.inf, 0.0)),
            )
        )
        report = self.crafted_report(pairs, tmp_path / "new")
        _, csv_path = emit_report(report)
        reference = tmp_path / "reference.csv"
        _reference_csv(report, reference)
        assert csv_path.read_bytes() == reference.read_bytes()
        assert b"\r\n" in reference.read_bytes()

    @pytest.mark.parametrize("chunk", [1, 7, 10**6])
    def test_csv_bytes_do_not_depend_on_the_chunk(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(ss.runner, "_CSV_CHUNK_ROWS", chunk)
        self.test_csv_matches_csv_writer_reference(tmp_path)

    def test_long_pair_is_written_in_chunks(self, tmp_path):
        source = ss.ClassicallyCorrelatedSource(ss.MarkovProcess(APERIODIC_T), ss.computational_alphabet(2))
        a, b = ss.random_observable(1, seed=5), ss.random_observable(1, seed=6)
        pair = ss.pair_report(source, a, b, n_max=20000, backend="transfer", label="long")
        report = self.crafted_report((pair,), tmp_path)
        _, csv_path = emit_report(report)  # the first call sets up what later calls reuse
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            emit_report(report)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # a whole pair's row strings and their join alone take twice the file's bytes (3.1x
        # measured with the cells' strings); one chunk of 8192 of the 20000 rows, about 1.3x
        assert peak < 1.5 * csv_path.stat().st_size

    def test_run_without_mixing_tests_removes_the_stale_csv(self, tmp_path):
        first = emit_report(run_experiment(iid_config(name="stale", output_dir=str(tmp_path))))
        assert [p.name for p in first] == ["stale.report.json", "stale.decay.csv"]
        report = run_experiment(iid_config(name="stale", tests=["consistency"], output_dir=str(tmp_path)))
        assert report.sweep is None
        assert emit_report(report) == [first[0]]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stale.report.json"]
        assert emit_report(report) == [first[0]]  # nothing to remove is fine too

    def test_rerun_over_a_longer_report_equals_a_fresh_one(self, tmp_path):
        assert_rerun_equals_fresh(tmp_path)

    def test_failing_write_cuts_the_older_file_at_the_new_bytes(self, tmp_path, monkeypatch):
        paths = emit_report(longer_report(), tmp_path / "new")
        fresh = [p.read_bytes() for p in emit_report(self.crafted_report(_split_pairs(), tmp_path / "fresh"))]
        real = ss.runner._write_rows

        def fails_midway(fh, pairs, start, stop):
            real(fh, pairs, start, start + 10)
            raise RuntimeError("midway")
        monkeypatch.setattr(ss.runner, "_write_rows", fails_midway)
        with pytest.raises(RuntimeError, match="midway"):
            emit_report(self.crafted_report(_split_pairs(), tmp_path / "new"))
        assert paths[0].read_bytes() == fresh[0]
        assert_new_prefix_only(paths[1].read_bytes(), fresh[1], rows=10)

    def test_rerun_opens_without_truncating(self, tmp_path, monkeypatch):
        cfg = markov_config(APERIODIC_T, "spied", output_dir=str(tmp_path))
        paths = {str(p) for p in emit_report(run_experiment(cfg))}
        flags, modes = {}, []
        real_os_open, real_open = os.open, builtins.open

        def os_open(path, flag, *args, **kwargs):
            flags[str(path)] = flag
            return real_os_open(path, flag, *args, **kwargs)

        def spied_open(file, mode="r", *args, **kwargs):
            modes.append((str(file), mode))
            return real_open(file, mode, *args, **kwargs)
        monkeypatch.setattr(os, "open", os_open)
        monkeypatch.setattr(builtins, "open", spied_open)
        emit_report(run_experiment(cfg))
        monkeypatch.undo()
        assert set(flags) == paths
        assert not any(flag & os.O_TRUNC for flag in flags.values())
        assert not [(file, mode) for file, mode in modes if file in paths and "w" in mode]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_files_get_the_mode_open_gives(self, tmp_path, umask):
        cfg = markov_config(APERIODIC_T, "modes", n_max=20, output_dir=str(tmp_path))
        report = run_experiment(cfg)
        old = os.umask(umask)
        try:
            paths = emit_report(report)
            with open(tmp_path / "reference", "w"):
                pass
        finally:
            os.umask(old)
        expected = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
        assert expected == 0o666 & ~umask
        assert [stat.S_IMODE(p.stat().st_mode) for p in paths] == [expected, expected]

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        """Emitted under the C locale, a non-ASCII label is written as UTF-8, serially and forked."""
        script = textwrap.dedent(f"""
            import os, sys
            sys.path.insert(0, {os.path.dirname(os.path.dirname(ss.__file__))!r})
            sys.path.insert(0, {os.path.dirname(__file__)!r})
            import spinsource as ss
            import locale
            from test_runner import unicode_report
            assert locale.getpreferredencoding(False) != "UTF-8"
            ss.runner.emit_report(unicode_report(), {str(tmp_path / "serial")!r})
            ss.runner._FORK_MIN_ROWS = ss.runner._CSV_CHUNK_ROWS = 1
            os.sched_getaffinity = lambda pid: {{0, 1, 2}}
            forks, fork = [], os.fork
            os.fork = lambda: forks.append(None) or fork()
            ss.runner.emit_report(unicode_report(), {str(tmp_path / "forked")!r})
            assert len(forks) == 2
        """)
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        env.pop("PYTHONIOENCODING", None)
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)
        paths = emit_report(unicode_report(), tmp_path / "here")
        expected = [p.read_bytes() for p in paths]
        assert "ρ⊗σ".encode() in expected[1]
        for side in ("serial", "forked"):
            assert [(tmp_path / side / p.name).read_bytes() for p in paths] == expected

    def test_payload_echo_reruns_identically(self, tmp_path):
        cfg = markov_config(APERIODIC_T, "rerun", n_max=80)
        first = run_experiment(cfg)
        echoed = ExperimentConfig.from_dict(first.payload()["config"])
        second = run_experiment(echoed)
        assert first.payload() == second.payload()


def unicode_report():
    """A short report whose one pair is labelled with non-ASCII characters."""
    source = ss.ClassicallyCorrelatedSource(ss.MarkovProcess(APERIODIC_T), ss.computational_alphabet(2))
    a, b = ss.random_observable(1, seed=5), ss.random_observable(1, seed=6)
    pair = ss.pair_report(source, a, b, n_max=30, backend="transfer", label="ρ⊗σ")
    return TestEmitReport.crafted_report((pair,), ".")


def longer_report():
    """A report named like crafted_report's whose JSON and CSV are both longer than the split pairs'."""
    return run_experiment(markov_config(APERIODIC_T, "crafted", n_max=400, observable_count=8))


def assert_rerun_equals_fresh(tmp_path):
    """A long report, then a shorter one of the same name, over it: both files equal a fresh directory's."""
    longer = longer_report()
    shorter = TestEmitReport.crafted_report(_split_pairs(), tmp_path / "fresh")
    sizes = [p.stat().st_size for p in emit_report(longer, tmp_path / "rerun")]
    rerun = emit_report(shorter, tmp_path / "rerun")
    fresh = emit_report(shorter)
    assert all(p.stat().st_size < size for p, size in zip(rerun, sizes))
    assert [p.read_bytes() for p in rerun] == [p.read_bytes() for p in fresh]


def assert_new_prefix_only(written, fresh, rows):
    """written is the header and the first rows rows of fresh, and nothing after them."""
    lines = fresh.split(b"\r\n")
    assert written == b"\r\n".join(lines[: 1 + rows]) + b"\r\n"


@pytest.fixture
def fork_calls(monkeypatch):
    """A list that gains an entry at each os.fork call."""
    calls = []
    real = os.fork

    def counting():
        calls.append(None)
        return real()
    monkeypatch.setattr(os, "fork", counting)
    return calls


def _split_pairs():
    """Crafted pairs of 1 to 20 rows (47 in all) with every special float,
    1-row pairs among them; the pairs end after rows 1, 21, 22, 31, 42 and 47."""
    return tuple(
        _crafted_pair(label, column, target)
        for label, column, target in (
            ("one", CRAFTED_COLUMN[:1], complex(0.5, 0.0)),
            ("a,b", CRAFTED_COLUMN, complex(-0.0, 1.0)),
            ("", CRAFTED_COLUMN[7:8], complex(np.nan, 0.0)),
            ('say "hi"', np.full(9, 0.3), complex(1e16, -5e-324)),
            ("two\nlines", np.linspace(-1.0, 1.0, 11), complex(-np.inf, 0.0)),
            ("last", CRAFTED_COLUMN[::-4], complex(0.1 + 0.2, 0.0)),
        )
    )


class TestForkedCSV:
    """A long decay CSV is cut into shares that forked children format; the
    bytes do not show it, and no child outlives emit_report."""

    @pytest.fixture
    def forks(self, monkeypatch, fork_calls):
        """Every report forks from its first row, up to a worker per row; os.fork calls are counted."""
        monkeypatch.setattr(ss.runner, "_FORK_MIN_ROWS", 1)
        monkeypatch.setattr(ss.runner, "_CSV_CHUNK_ROWS", 1)
        return fork_calls

    @staticmethod
    def assert_no_children():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def emit_split(tmp_path):
        """(written CSV bytes, csv.writer's bytes) of the split pairs' report."""
        report = TestEmitReport.crafted_report(_split_pairs(), tmp_path / "new")
        _, csv_path = emit_report(report)
        _reference_csv(report, tmp_path / "reference.csv")
        return csv_path.read_bytes(), (tmp_path / "reference.csv").read_bytes()

    # cuts: 2 workers after row 23 (inside a pair), 3 after 15 and 31 (a pair's end),
    # 4 after 11, 23 and 35, 47 after every row (each 1-row pair a share of its own);
    # chunk 7 leaves 6 chunks for 3 CPUs, cut after rows 15 and 31
    @pytest.mark.parametrize("cpus, chunk", [(2, 1), (3, 1), (4, 1), (47, 1), (3, 7)])
    def test_bytes_do_not_depend_on_the_workers(self, tmp_path, monkeypatch, forks, cpus, chunk):
        monkeypatch.setattr(ss.runner, "_CSV_CHUNK_ROWS", chunk)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        written, reference = self.emit_split(tmp_path)
        assert written == reference
        assert len(forks) == min(cpus, 47 // chunk) - 1
        self.assert_no_children()

    def test_rerun_over_a_longer_report_equals_a_fresh_one(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert_rerun_equals_fresh(tmp_path)
        assert len(forks) == 3 * 2  # three emissions, each with two forked shares
        self.assert_no_children()

    def test_long_report_forks_at_the_threshold(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert ss.runner._csv_workers(2 * ss.runner._CSV_CHUNK_ROWS - 1) == 1
        assert ss.runner._csv_workers(2 * ss.runner._CSV_CHUNK_ROWS) == 2
        assert ss.runner._csv_workers(10**6) == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert ss.runner._csv_workers(10**6) == 1
        monkeypatch.delattr(os, "memfd_create")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert ss.runner._csv_workers(10**6) == 1

    def test_failing_child_raises_and_is_reaped(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        csv_path = emit_report(longer_report(), tmp_path / "new")[1]
        forks.clear()
        real = ss.runner._write_rows

        def child_fails(fh, pairs, start, stop):
            if start > 0:
                raise RuntimeError("child share")
            real(fh, pairs, start, stop)
        monkeypatch.setattr(ss.runner, "_write_rows", child_fails)
        with pytest.raises(OSError, match="exited with status 1"):
            self.emit_split(tmp_path)
        assert len(forks) == 1
        self.assert_no_children()
        _reference_csv(TestEmitReport.crafted_report(_split_pairs(), tmp_path), tmp_path / "reference.csv")
        # this process wrote the header and its share of 23 of the 47 rows before the child's status
        assert_new_prefix_only(csv_path.read_bytes(), (tmp_path / "reference.csv").read_bytes(), rows=23)

    def test_failing_parent_share_kills_and_reaps_every_child(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        real = ss.runner._write_rows

        def parent_fails(fh, pairs, start, stop):
            if start == 0:
                raise RuntimeError("parent share")
            time.sleep(60)  # a child that is not killed holds the test up a minute
            real(fh, pairs, start, stop)
        monkeypatch.setattr(ss.runner, "_write_rows", parent_fails)
        began = time.perf_counter()
        with pytest.raises(RuntimeError, match="parent share"):
            self.emit_split(tmp_path)
        assert time.perf_counter() - began < 30
        assert len(forks) == 3
        self.assert_no_children()

    def test_no_fork_while_another_thread_runs(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            written, reference = self.emit_split(tmp_path)
        finally:
            release.set()
            other.join()
        assert written == reference
        assert forks == []


# bit patterns a decay column can hold: both zeros, NaNs with three payloads, both
# infinities, two subnormals and ordinary values
FLOAT_POOL = np.array([
    0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000, 0x7FF8000000000001,
    0xFFF8000000000002, 0x7FF0000000000000, 0xFFF0000000000000, 0x0000000000000001,
    0x800FFFFFFFFFFFFF,
], dtype=np.uint64).view(np.float64).tolist() + [0.1 + 0.2, -7.125, 1e16, 0.25]
POOL_BITS = np.array(FLOAT_POOL).view(np.uint64).tolist()


class TestFloatStrings:
    """_float_strings is repr per cell, whatever the runs and repeats of the column."""

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.integers(0, len(FLOAT_POOL) - 1), st.integers(1, 40)), max_size=30))
    def test_equals_repr_per_cell(self, runs):
        column = np.array([FLOAT_POOL[i] for i, length in runs for _ in range(length)], dtype=float)
        assert _float_strings(column) == [repr(x) for x in column.tolist()]

    @pytest.mark.parametrize("values", [[], [-0.0], [NAN_PAYLOAD], [5e-324]], ids=["empty", "neg_zero", "nan", "subnormal"])
    def test_short_columns(self, values):
        column = np.array(values, dtype=float)
        assert _float_strings(column) == [repr(x) for x in column.tolist()]

    def test_strided_view(self):
        column = np.repeat(np.array(FLOAT_POOL), 3)[::2]
        assert _float_strings(column) == [repr(x) for x in column.tolist()]

    @settings(max_examples=300)
    @given(st.lists(
        st.tuples(st.one_of(st.sampled_from(POOL_BITS), st.integers(0, 2**64 - 1)), st.integers(1, 3)),
        max_size=40,
    ))
    def test_mostly_distinct_columns(self, runs):
        # arbitrary bit patterns rarely repeat, so most columns take the direct-repr branch
        column = np.array([bits for bits, length in runs for _ in range(length)], dtype=np.uint64).view(np.float64)
        assert _float_strings(column) == [repr(x) for x in column.tolist()]

    @pytest.mark.parametrize(
        "values, formatted",
        [
            ([0.1, 0.2, 0.3, 0.4], 4),  # every cell a distinct run: each head directly
            ([1.0, 1.0, 2.0, 2.0, 3.0], 3),  # distinct runs: each head directly
            ([1.0, 2.0, 1.0, 2.0, 3.0], 5),  # 3 values in 5 runs, more than half: each head
            ([1.0, 2.0, 1.0, 2.0, 3.0, 4.0], 6),  # 4 values in 6 runs: each head
            ([1.0, 2.0, 1.0, 2.0, 3.0, 4.0, 3.0, 4.0], 4),  # 4 values in 8 runs, just half: each value once
            ([1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 3.0], 3),  # 3 values in 7 runs: each value once
            ([0.5, -0.5] * 10, 2),  # a period-2 column: each value once
        ],
    )
    def test_formats_heads_or_distinct_values(self, monkeypatch, values, formatted):
        calls = []

        def counting(x):
            calls.append(x)
            return repr(x)

        monkeypatch.setattr(ss.runner, "repr", counting, raising=False)
        assert _float_strings(np.array(values)) == [repr(x) for x in values]
        assert len(calls) == formatted


class TestCLI:
    def write_config(self, tmp_path, name="cli_iid", **overrides):
        body = {
            "name": name,
            "seed": 3,
            "source": {"kind": "iid", "state": RHO_SITE},
            "tests": "all",
            "n_max": 100,
            "observable_count": 1,
            "backend": "transfer",
        }
        body.update(overrides)
        tmp_path.mkdir(parents=True, exist_ok=True)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(body))
        return path

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        code = cli.main([str(path), "--output-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "cli_iid" in out and "pass" in out

    def test_exit_one_on_verdict_failure(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path,
            name="cli_flip",
            source={
                "kind": "classically_correlated",
                "process": {"kind": "markov", "transition": PERIOD2_T},
                "alphabet": "computational",
            },
        )
        code = cli.main([str(path), "--output-dir", str(tmp_path)])
        assert code == 1
        assert "fail" in capsys.readouterr().out

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"name": "broken"}))
        code = cli.main([str(path), "--output-dir", str(tmp_path)])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_exit_two_on_a_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "café", "seed": 3}'.encode("latin-1"))
        assert cli.main([str(path), "--output-dir", str(tmp_path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_config_is_read_as_utf8_whatever_the_locale(self, tmp_path):
        """Under the C locale a UTF-8 config decodes as UTF-8, and a name that the file system's
        ASCII encoding cannot hold exits 2 at load, without a traceback."""
        path = self.write_config(tmp_path, name="cafe")
        path.write_text(path.read_text().replace('"cafe"', '"café"'), encoding="utf-8")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        env.pop("PYTHONIOENCODING", None)
        env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(os.path.dirname(ss.__file__)), env.get("PYTHONPATH", "")])
        script = "import sys; from spinsource import runner; assert runner._read_json(sys.argv[1])['name'] == 'caf\\xe9'"
        subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True, timeout=120)
        proc = subprocess.run(
            [sys.executable, "-m", "spinsource.cli", str(path), "--output-dir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr and "config error: name:" in proc.stderr
        assert cli.main([str(path), "--output-dir", str(tmp_path)]) == 0  # a UTF-8 locale writes café.*
        assert (tmp_path / "café.report.json").is_file()

    def test_exit_three_on_cap(self, tmp_path, capsys):
        path = self.write_config(tmp_path, name="cli_cap", backend="dense", n_max=40)
        code = cli.main([str(path), "--output-dir", str(tmp_path)])
        assert code == 3

    def test_overrides_apply(self, tmp_path):
        path = self.write_config(tmp_path, name="cli_over")
        code = cli.main(
            [
                str(path),
                "--output-dir",
                str(tmp_path),
                "--seed",
                "9",
                "--n-max",
                "64",
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "cli_over.report.json").read_text())
        assert payload["config"]["seed"] == 9
        assert payload["config"]["n_max"] == 64

    @pytest.mark.parametrize("flag,value", [("--n-max", "3"), ("--seed", "-5")])
    def test_bad_override_is_config_error(self, tmp_path, capsys, flag, value):
        path = self.write_config(tmp_path, name="cli_bad_override")
        code = cli.main([str(path), "--output-dir", str(tmp_path), flag, value])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "cli_bad_override.report.json").exists()

    @pytest.mark.parametrize("n_max, override", [(8, []), (100, ["--n-max", "8"])])
    def test_short_horizon_is_config_error(self, tmp_path, capsys, n_max, override):
        # block_sites 6 leaves shifts 6..8: three, one short of a verdict
        path = self.write_config(
            tmp_path, name="short", source={"kind": "iid", "state": [[0.5, 0], [0, 0.5]]},
            block_sites=6, n_max=n_max, tests=["strong"],
        )
        code = cli.main([str(path), "--output-dir", str(tmp_path), *override])
        err = capsys.readouterr().err
        assert code == 2
        assert "n_max" in err and "block_sites=6" in err and "Traceback" not in err

    def test_unwritable_output_dir_is_reported_and_the_next_config_runs(self, tmp_path, capsys):
        blocked = tmp_path / "in_the_way"
        blocked.write_text("a file, not a directory")
        first = self.write_config(tmp_path / "a", name="cli_blocked", output_dir=str(blocked))
        second = self.write_config(tmp_path / "b", name="cli_after", output_dir=str(tmp_path / "out"))
        code = cli.main([str(first), str(second)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"{first}: cannot write reports: " in captured.err and "Traceback" not in captured.err
        assert blocked.read_text() == "a file, not a directory"
        assert f"{second}: pass" in captured.out
        assert (tmp_path / "out" / "cli_after.report.json").exists()
        assert (tmp_path / "out" / "cli_after.decay.csv").exists()

    def test_failed_csv_worker_is_not_reported_as_unwritable(self, tmp_path, monkeypatch):
        # only a directory or file that cannot be made is a config error; a worker's failure raises
        def failed_worker(report):
            raise OSError("decay CSV worker 1 exited with status 1")

        monkeypatch.setattr(cli, "emit_report", failed_worker)
        path = self.write_config(tmp_path, name="cli_worker")
        with pytest.raises(OSError, match="decay CSV worker 1 exited"):
            cli.main([str(path)])

    def test_threaded_emit_byte_identical(self, tmp_path, monkeypatch, fork_calls):
        p1 = self.write_config(tmp_path, name="par_a")
        p2 = self.write_config(
            tmp_path,
            name="par_b",
            source={
                "kind": "classically_correlated",
                "process": {"kind": "markov", "transition": APERIODIC_T},
                "alphabet": "computational",
            },
        )
        # 3 pairs (proj_0, proj_1, rand_0) of 6000 shifts: past the rows at which a
        # lone thread forks to format its CSV
        p3 = self.write_config(tmp_path, name="par_long", n_max=6000)
        assert 3 * 6000 >= ss.runner._FORK_MIN_ROWS
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        serial = tmp_path / "serial"
        threaded = tmp_path / "threaded"
        assert cli.main([str(p1), str(p2), str(p3), "--output-dir", str(serial)]) == 0
        assert len(fork_calls) == 1  # par_long only
        # a library caller emitting from its own threads: a fork would copy only the
        # calling thread, so while another thread is alive every CSV is formatted in-process
        reports = [run_experiment(ExperimentConfig.from_json(p, {"output_dir": str(threaded)})) for p in (p1, p2, p3)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert all(pool.map(emit_report, reports))
        assert len(fork_calls) == 1
        for name in ("par_a", "par_b", "par_long"):
            for suffix in (".report.json", ".decay.csv"):
                assert (serial / (name + suffix)).read_bytes() == (threaded / (name + suffix)).read_bytes()

    # block_sites 1 keeps the dense sweep to 3 pairs on at most 9 sites;
    # block_sites 2 would apply the channel to 10-site states for 5 pairs
    @pytest.mark.parametrize("extra", [{}, {"backend": "dense", "n_max": 8}])
    def test_misaligned_block_channel_runs(self, tmp_path, capsys, extra):
        channel = {"kind": "amplitude_damping", "params": {"gamma": 0.4}, "block_sites": 2}
        path = self.write_config(tmp_path, name="cli_blocks", channel=channel, **extra)
        code = cli.main([str(path), "--output-dir", str(tmp_path)])
        assert code in (0, 1)
        assert "config error" not in capsys.readouterr().err
        assert (tmp_path / "cli_blocks.report.json").exists()
        assert (tmp_path / "cli_blocks.decay.csv").exists()

    @pytest.mark.parametrize("repeats", [1, 2])
    def test_repeated_output_is_config_error(self, tmp_path, capsys, repeats):
        first = self.write_config(tmp_path / "a", name="same", seed=3)
        later = [
            self.write_config(tmp_path / f"b{k}", name="same", seed=5 + k)
            for k in range(repeats)
        ]
        out = tmp_path / "out"
        code = cli.main([str(first), *map(str, later), "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        for path in later:
            assert f"{path}: config error: name: writes the same files as {first}" in err
        payload = json.loads((out / "same.report.json").read_text())
        assert payload["config"]["seed"] == 3

    def test_verbose_prints_pairs(self, tmp_path, capsys):
        path = self.write_config(tmp_path, name="cli_verbose")
        cli.main([str(path), "--output-dir", str(tmp_path), "-v"])
        out = capsys.readouterr().out
        assert "proj_0" in out

    def test_run_config_file_override_helper(self, tmp_path):
        path = self.write_config(tmp_path, name="helper", output_dir=str(tmp_path))
        report, written = run_config_file(path, overrides={"n_max": 72})
        assert report.config.n_max == 72
        assert [p.name for p in written] == ["helper.report.json", "helper.decay.csv"]


NAN = float("nan")


DEFECT_CAP_CONFIG = {
    "name": "dense_past_cap",
    "seed": 3,
    "source": {
        "kind": "classically_correlated",
        "process": {"kind": "markov", "transition": APERIODIC_T},
    },
    "backend": "dense",
    "n_max": 40,
    "check_sites": 10,
    "observable_count": 1,
}


def _iid_symbols(name, **overrides):
    """A config whose source is a fair iid symbol process on the computational alphabet."""
    source = correlated({"kind": "iid", "probs": [0.5, 0.5]})
    return {"name": name, "seed": 3, "source": source, **overrides}


# each is past one cap, which loading fixes before any check or sweep runs
PAST_CAP_CONFIGS = {
    # 101 one-state components: the transfer sweep's table of 101**2 words by 101 states
    "word_table": _iid_symbols("word_table", block_sites=2, n_max=50, source=correlated({
        "kind": "mixture", "weights": [1 / 101] * 101,
        "components": [{"kind": "iid", "probs": [0.5, 0.5]}] * 101,
    })),
    "kraus_count": _iid_symbols("kraus_count", site_dim=65, channel={"kind": "depolarizing", "params": {"p": 0.1}}),
    "wide_site": _iid_symbols("wide_site", site_dim=3000),
    "sweep_rows": _iid_symbols("sweep_rows", n_max=10**9, backend="transfer"),
}


class TestCapsAtLoad:
    """Dense sides are known at load, so a cap fails there, before any check runs."""

    @pytest.fixture
    def check_calls(self, monkeypatch):
        """Names of the source checks that run, through counting stubs in the runner."""
        calls = []

        def counting(check):
            def wrapped(*args, **kwargs):
                calls.append(check.__name__)
                return check(*args, **kwargs)
            return wrapped

        for name in ("check_consistency", "check_stationarity"):
            monkeypatch.setattr(ss.runner, name, counting(getattr(ss.runner, name)))
        return calls

    def test_dense_sweep_past_cap_runs_no_check(self, tmp_path, capsys, check_calls):
        # a chain source's dense correlations are capped by the chain kernel's largest array,
        # max(hidden, d**2) x d**(2a + 2b + gap - 2) entries at the widest gap 39, against
        # the dense cap squared
        with pytest.raises(ss.CapExceededError, match=r"dense chain kernel array of 4 x 2\*\*41 entries \(2 hidden states\) exceeds"):
            ExperimentConfig.from_dict(DEFECT_CAP_CONFIG)
        path = tmp_path / "past_cap.json"
        path.write_text(json.dumps(DEFECT_CAP_CONFIG))
        assert cli.main([str(path), "--output-dir", str(tmp_path)]) == 3
        assert "resource cap" in capsys.readouterr().err
        assert check_calls == []
        assert not list(tmp_path.glob("dense_past_cap.*"))

    @pytest.mark.parametrize(
        "case, message",
        [
            ("word_table", r"101\*\*2 words x 101 hidden states exceeds enumeration cap"),
            ("kraus_count", r"4225 Kraus operators exceeds cap 4096"),
            ("wide_site", r"kernel array of 9000000 x 3000\*\*6 entries \(1 hidden states\) exceeds"),
            ("sweep_rows", r"sweep of 4 pairs x 1000000000 shifts exceeds cap 5000000 rows"),
        ],
        ids=list(PAST_CAP_CONFIGS),
    )
    def test_each_cap_fails_at_load_small(self, tmp_path, capsys, check_calls, case, message):
        config = PAST_CAP_CONFIGS[case]
        tracemalloc.start()
        try:
            with pytest.raises(ss.CapExceededError, match=message):
                ExperimentConfig.from_dict(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no site_dim-sized identity or Kraus family is built before the cap fires
        assert peak < 2**20
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(config))
        assert cli.main([str(path), "--output-dir", str(tmp_path)]) == 3
        assert "resource cap" in capsys.readouterr().err
        assert check_calls == []
        assert not list(tmp_path.glob(f"{case}.*.*"))

    def test_sweep_rows_at_cap_load(self):
        cap = ss.ergodicity._SWEEP_ROW_CAP
        # two projector pairs and no random ones, over n_max shifts
        at_cap = _iid_symbols("rows", n_max=cap // 2, observable_count=0, backend="transfer")
        assert ExperimentConfig.from_dict(at_cap).n_max == cap // 2
        with pytest.raises(ss.CapExceededError, match=f"2 pairs x {cap // 2 + 1} shifts"):
            ExperimentConfig.from_dict({**at_cap, "n_max": cap // 2 + 1})

    @pytest.mark.parametrize(
        "fits, past, message",
        [
            # sweep: the chain kernel's array at the widest gap n_max - block holds
            # max(hidden, d**2) x d**(3 block + n_max - 2) entries, against the cap squared
            ({"tests": ["strong"], "n_max": 14, "block_sites": 2},
             {"tests": ["strong"], "n_max": 15, "block_sites": 2},
             r"dense chain kernel array of 4 x 2\*\*19 entries \(2 hidden states\) exceeds cap 1048576"),
            # checks: rho_m's build holds max(hidden, d**2) x d**(2m - 2) entries, against the cap squared
            ({"tests": ["consistency"], "check_sites": 10}, {"tests": ["consistency"], "check_sites": 11},
             r"kernel array of 4 x 2\*\*20 entries \(2 hidden states\) exceeds cap 1048576"),
            # the checks run whole channel blocks: 11 sites in blocks of 2 check 10
            ({"tests": ["stationarity"], "check_sites": 11, "channel": {"kind": "identity", "block_sites": 2}},
             {"tests": ["stationarity"], "check_sites": 11, "channel": {"kind": "identity", "block_sites": 1}},
             r"kernel array of 4 x 2\*\*20 entries \(2 hidden states\) exceeds cap 1048576"),
        ],
        ids=["sweep", "checks", "check_blocks"],
    )
    def test_side_at_cap_loads_one_past_fails(self, monkeypatch, fits, past, message):
        monkeypatch.setenv(ss.operators.DENSE_CAP_ENV, str(2**10))
        base = {**DEFECT_CAP_CONFIG, "check_sites": 4}
        ExperimentConfig.from_dict({**base, **fits})
        with pytest.raises(ss.CapExceededError, match=message):
            ExperimentConfig.from_dict({**base, **past})

    def test_dense_kernel_cap_counts_hidden_states(self):
        # at the widest gap 19, a 2-state chain's kernel holds 4 x 2**21 entries, within
        # the cap squared 2**24; 16 iid components stack 16 hidden blocks of 2**21 entries
        two_states = {**DEFECT_CAP_CONFIG, "n_max": 20, "check_sites": 4}
        assert ExperimentConfig.from_dict(two_states).n_max == 20
        mixture = correlated({
            "kind": "mixture", "weights": [1 / 16] * 16, "components": [{"kind": "iid", "probs": [0.5, 0.5]}] * 16,
        })
        with pytest.raises(ss.CapExceededError,
                           match=r"kernel array of 16 x 2\*\*21 entries \(16 hidden states\) exceeds cap 16777216"):
            ExperimentConfig.from_dict({**two_states, "source": mixture})

    def test_check_cap_counts_hidden_states(self, tmp_path, monkeypatch, check_calls):
        # 12 sites fit the cap's side, but a build of rho_12 keeps 64 hidden states' blocks of 2**22 entries
        built = []
        monkeypatch.setattr(ss.sources, "_build_density", lambda *args: built.append(args))

        def mixture(n):
            return correlated({"kind": "mixture", "weights": [1 / n] * n, "components": [{"kind": "iid", "probs": [0.5, 0.5]}] * n})

        raw = {**DEFECT_CAP_CONFIG, "tests": ["consistency"], "check_sites": 12}
        assert ExperimentConfig.from_dict({**raw, "source": mixture(2)}).check_sites == 12
        wide = {**raw, "source": mixture(64)}
        with pytest.raises(ss.CapExceededError, match=r"kernel array of 64 x 2\*\*22 entries \(64 hidden states\)"):
            ExperimentConfig.from_dict(wide)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(wide))
        assert cli.main([str(path), "--output-dir", str(tmp_path)]) == 3
        assert built == [] and check_calls == [] and not list(tmp_path.glob("dense_past_cap.*"))

    @pytest.mark.parametrize("backend", ["auto", "transfer"])
    def test_chain_routes_skip_the_sweep_cap_and_build_no_chain(self, monkeypatch, backend):
        # every family's states, base and channel images alike, are stacked by sources._frozen
        built = []
        real = ss.sources._frozen
        monkeypatch.setattr(ss.sources, "_frozen", lambda *args: built.append(1) or real(*args))
        damped = {"kind": "amplitude_damping", "params": {"gamma": 0.4}}
        config = ExperimentConfig.from_dict({**DEFECT_CAP_CONFIG, "backend": backend, "channel": damped})
        assert config.n_max == 40
        assert built == []

    @pytest.mark.parametrize("case", ["word_table", "sweep_rows", "defect"])
    def test_library_sweep_raises_the_load_message(self, monkeypatch, case):
        raw = DEFECT_CAP_CONFIG if case == "defect" else PAST_CAP_CONFIGS[case]
        with pytest.raises(ss.CapExceededError) as at_load:
            ExperimentConfig.from_dict(raw)
        monkeypatch.setattr(ss.runner, "_sweep_plan", lambda *args: None)
        config = ExperimentConfig.from_dict(raw)
        with pytest.raises(ss.CapExceededError) as in_sweep:
            ss.sweep_report(
                ss.runner.build_source(config)[0], config.block_sites, config.n_max, config.backend,
                config.tolerance, config.observable_count, config.seed,
            )
        assert str(in_sweep.value) == str(at_load.value)

    def test_library_sweep_past_row_cap_draws_nothing(self, monkeypatch):
        with pytest.raises(ss.CapExceededError) as at_load:
            ExperimentConfig.from_dict(_iid_symbols("rows", n_max=3 * 10**6, observable_count=0))
        calls = []
        for name in ("random_observable", "word_projector", "source_correlation"):
            monkeypatch.setattr(ss.ergodicity, name, lambda *args, name=name: calls.append(name))
        iid = ss.IIDSource(ss.density_operator(RHO_SITE))
        with pytest.raises(ss.CapExceededError) as in_sweep:
            ss.sweep_report(iid, n_max=3 * 10**6, random_pair_count=0)
        assert str(in_sweep.value) == str(at_load.value) == "sweep of 2 pairs x 3000000 shifts exceeds cap 5000000 rows"
        assert calls == []

    def test_sweep_plan_runs_once_per_load_and_once_per_run(self, monkeypatch):
        calls = []
        real = ss.ergodicity._sweep_plan

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(ss.ergodicity, "_sweep_plan", counting)
        monkeypatch.setattr(ss.runner, "_sweep_plan", counting)
        config = iid_config(n_max=40)
        assert len(calls) == 1
        run_experiment(config)
        assert len(calls) == 2

    def test_check_plan_runs_once_per_load_and_once_per_check(self, monkeypatch):
        calls = []
        real = ss.sources._check_plan

        def counting(*args):
            calls.append(args[1:])
            return real(*args)

        monkeypatch.setattr(ss.sources, "_check_plan", counting)
        monkeypatch.setattr(ss.runner, "_check_plan", counting)
        config = iid_config(n_max=40, check_sites=5, channel={"kind": "identity", "block_sites": 2})
        assert calls == [(4, 2)]
        run_experiment(config)
        assert calls == [(4, 2)] * 3

    def test_library_checks_raise_the_load_message(self, monkeypatch):
        raw = {**DEFECT_CAP_CONFIG, "tests": ["consistency"], "check_sites": 13}
        with pytest.raises(ss.CapExceededError) as at_load:
            ExperimentConfig.from_dict(raw)
        monkeypatch.setattr(ss.runner, "_check_plan", lambda *args: None)
        source = ss.runner.build_source(ExperimentConfig.from_dict(raw))[0]
        for check in (ss.check_consistency, ss.check_stationarity):
            with pytest.raises(ss.CapExceededError) as in_check:
                check(source, 13)
            assert str(in_check.value) == str(at_load.value)

    def test_checks_cap_holds_on_every_backend(self):
        with pytest.raises(ss.CapExceededError, match=r"kernel array of 4 x 2\*\*24 entries \(2 hidden states\) exceeds"):
            ExperimentConfig.from_dict({**DEFECT_CAP_CONFIG, "backend": "transfer", "check_sites": 13})

    def test_huge_site_count_fails_without_the_power(self):
        with pytest.raises(ss.CapExceededError, match=r"kernel array of 9 x 3\*\*1000000001 entries \(1 hidden states\) exceeds"):
            ExperimentConfig.from_dict({
                **DEFECT_CAP_CONFIG, "site_dim": 3, "n_max": 10**9, "tests": ["weak"],
                "source": {"kind": "iid", "state": (np.eye(3) / 3).tolist()},
            })


class TestNonFiniteAndBooleanInputs:
    """JSON admits NaN, Infinity, true and false; none of them is a valid entry."""

    @pytest.mark.parametrize(
        "source,field",
        [
            (correlated({"kind": "iid", "probs": [NAN, 1.0]}), "source.process"),
            (
                correlated({"kind": "markov", "transition": APERIODIC_T, "initial": [NAN, 1.0]}),
                "source.process",
            ),
            (
                correlated(
                    {
                        "kind": "mixture",
                        "weights": [NAN, 1.0],
                        "components": [
                            {"kind": "iid", "probs": [0.9, 0.1]},
                            {"kind": "iid", "probs": [0.1, 0.9]},
                        ],
                    }
                ),
                "source.process",
            ),
            (
                correlated(
                    {"kind": "markov", "transition": [[NAN, 1.0], [0.2, 0.8]], "initial": [0.5, 0.5]}
                ),
                "source.process",
            ),
            (
                correlated({"kind": "iid", "probs": [0.5, 0.5]}, [[NAN, 0.0], [0.0, 1.0]]),
                "source.alphabet",
            ),
            ({"kind": "iid", "state": [[True, 0], [0, False]]}, "source.state"),
            ({"kind": "iid", "state": [[1, [0, False]], [0, 0]]}, "source.state"),
        ],
        ids=[
            "iid_probs_nan",
            "markov_initial_nan",
            "mixture_weights_nan",
            "markov_transition_nan",
            "alphabet_nan",
            "state_booleans",
            "state_boolean_pair",
        ],
    )
    def test_rejected_at_load(self, source, field):
        with pytest.raises(ConfigError, match=field):
            iid_config(source=source)

    def test_cli_exits_two_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "nan_probs.json"
        body = {"name": "nan_probs", "seed": 1, "source": correlated({"kind": "iid", "probs": [NAN, 1.0]})}
        path.write_text(json.dumps(body))
        assert "NaN" in path.read_text()
        assert cli.main([str(path), "--output-dir", str(tmp_path)]) == 2
        assert "config error: source.process" in capsys.readouterr().err


class TestChannelSpecAndTestNames:
    """Channel specs and test names fail at load with a field path, never a traceback."""

    @pytest.mark.parametrize(
        "channel,field",
        [
            ({"kind": "depolarizing", "params": {"p": True}}, "channel.params.p"),
            ({"kind": "depolarizing", "params": {"p": "0.3"}}, "channel.params.p"),
            ({"kind": "amplitude_damping", "params": {"gamma": False}}, "channel.params.gamma"),
            ({"kind": "phase_damping", "params": {"lam": [0.2]}}, "channel.params.lam"),
            ({"kind": "random_unitary", "params": {"seed": True}}, "channel.params.seed"),
            ({"kind": "random_unitary", "params": {"seed": 2.7}}, "channel.params.seed"),
            ({"kind": "random_unitary", "params": {"seed": -1}}, "channel.params.seed"),
            ({"kind": "depolarizing", "params": 5}, "channel.params"),
            ({"kind": "depolarizing", "params": "x"}, "channel.params"),
            ({"kind": ["depolarizing"], "params": {"p": 0.3}}, "channel.kind"),
            (
                {"kind": "depolarizing", "params": {"p": 0.3}, "block_sites": True},
                "channel.block_sites",
            ),
            (
                {"kind": "amplitude_damping", "params": {"gamma": 0.3, "gama": 0.5}},
                "channel.params.gama",
            ),
            ({"kind": "identity", "params": {"p": 0.5}}, "channel.params.p"),
            (
                {"kind": "embedding", "params": {"alphabet": [[1, 0], [0, 1]], "seed": 3}},
                "channel.params.seed",
            ),
        ],
        ids=[
            "p_true", "p_string", "gamma_false", "lam_list", "seed_true", "seed_float",
            "seed_negative", "params_number", "params_string", "kind_list", "block_sites_true",
            "gamma_typo", "identity_p", "embedding_seed",
        ],
    )
    def test_channel_spec_rejected_at_load(self, channel, field):
        with pytest.raises(ConfigError, match=field):
            iid_config(channel=channel)

    @pytest.mark.parametrize("tests", [[[1]], [{"a": 1}]])
    def test_non_string_test_name_rejected(self, tests):
        with pytest.raises(ConfigError, match="tests"):
            iid_config(tests=tests)

    def test_valid_channel_params_still_load(self):
        iid_config(channel={"kind": "depolarizing", "params": {"p": 1}})
        iid_config(channel={"kind": "random_unitary", "params": {"seed": 0}})

    def test_cli_exits_two_on_params_number(self, tmp_path, capsys):
        path = tmp_path / "params_number.json"
        body = {
            "name": "params_number",
            "seed": 1,
            "source": {"kind": "iid", "state": RHO_SITE},
            "channel": {"kind": "depolarizing", "params": 5},
        }
        path.write_text(json.dumps(body))
        assert cli.main([str(path), "--output-dir", str(tmp_path)]) == 2
        assert "config error: channel.params" in capsys.readouterr().err
        assert not (tmp_path / "params_number.report.json").exists()

    def test_cli_exits_two_on_unknown_param(self, tmp_path, capsys):
        path = tmp_path / "param_typo.json"
        body = {
            "name": "param_typo",
            "seed": 1,
            "source": {"kind": "iid", "state": RHO_SITE},
            "channel": {"kind": "amplitude_damping", "params": {"gamma": 0.3, "gama": 0.5}},
        }
        path.write_text(json.dumps(body))
        assert cli.main([str(path), "--output-dir", str(tmp_path)]) == 2
        assert "config error: channel.params.gama: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "param_typo.report.json").exists()


class TestUnknownSpecKeys:
    """Typos inside source, process and channel specs fail at load, as at the top level."""

    @pytest.mark.parametrize(
        "source,field",
        [
            ({"kind": "iid", "state": RHO_SITE, "sate": RHO_SITE}, "source.sate"),
            (correlated({"kind": "iid", "probs": [0.5, 0.5]}) | {"alpabet": []}, "source.alpabet"),
            (
                correlated({"kind": "markov", "transition": APERIODIC_T, "intial": [1, 0]}),
                "source.process.intial",
            ),
            (
                correlated({"kind": "iid", "probs": [0.5, 0.5], "transition": APERIODIC_T}),
                "source.process.transition",
            ),
            (
                correlated(
                    {
                        "kind": "mixture",
                        "weights": [0.5, 0.5],
                        "components": [
                            {"kind": "iid", "probs": [0.9, 0.1]},
                            {"kind": "iid", "probs": [0.1, 0.9], "weight": 1},
                        ],
                    }
                ),
                r"source.process.components\[1\].weight",
            ),
        ],
        ids=["iid_state", "alphabet", "markov_initial", "iid_transition", "nested_component"],
    )
    def test_unknown_source_key_rejected(self, source, field):
        with pytest.raises(ConfigError, match=field):
            iid_config(source=source)

    def test_unknown_channel_key_rejected(self):
        with pytest.raises(ConfigError, match="channel.param"):
            iid_config(channel={"kind": "depolarizing", "param": {"p": 0.3}})


def _nodes(obj, path=()):
    """Every (path, value) in a JSON tree, the root first."""
    yield path, obj
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(obj, list):
        for j, value in enumerate(obj):
            yield from _nodes(value, path + (j,))


def _replaced(obj, path, value):
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return out


FUZZ_VALUES = [
    True, False, None, "x", [], {}, [[1]], {"a": 1},
    float("nan"), float("inf"), -1, 0, 1e9, 2.5,
]
NONORTHO_ROWS = [[1, 0], [0.6, 0.8]]
FUZZ_CONFIGS = [
    {
        "name": "fuzz_iid",
        "seed": 1,
        "site_dim": 2,
        "source": {"kind": "iid", "state": RHO_SITE},
        "channel": {"kind": "depolarizing", "params": {"p": 0.3}},
        "tests": ["consistency", "weak"],
        "tolerance": 0.02,
        "n_max": 40,
        "backend": "transfer",
    },
    {
        "name": "fuzz_mixture",
        "seed": 2,
        "source": correlated(
            {
                "kind": "mixture",
                "weights": [0.5, 0.5],
                "components": [
                    {"kind": "iid", "probs": [1, 0]},
                    {
                        "kind": "mixture",
                        "weights": [0.25, 0.75],
                        "components": [
                            {"kind": "markov", "transition": PERIOD2_T, "initial": [1, 0]},
                            {"kind": "iid", "probs": [0.5, 0.5]},
                        ],
                    },
                ],
            },
            NONORTHO_ROWS,
        ),
        "channel": {"kind": "random_unitary", "params": {"seed": 5}, "block_sites": 2},
        "block_sites": 2,
        "check_sites": 4,
        "observable_count": 1,
    },
    {
        "name": "fuzz_embedding",
        "seed": 3,
        "source": correlated({"kind": "markov", "transition": APERIODIC_T}),
        "channel": {"kind": "embedding", "params": {"alphabet": NONORTHO_ROWS}},
        "backend": "auto",
        "output_dir": "out",
    },
]


class TestLoadBoundaryFuzz:
    """Every node of three valid configs replaced by each of a fixed set of JSON values."""

    @pytest.mark.parametrize("base", FUZZ_CONFIGS, ids=[c["name"] for c in FUZZ_CONFIGS])
    def test_only_config_errors_escape(self, base):
        ExperimentConfig.from_dict(base)
        escaped = []
        for path, original in _nodes(base):
            where = ".".join(map(str, path)) or "<root>"
            for value in FUZZ_VALUES:
                try:
                    ExperimentConfig.from_dict(_replaced(base, path, value))
                except (ConfigError, ss.CapExceededError):
                    continue
                except Exception as exc:  # collected so one run names every bad node
                    escaped.append(f"{where} = {value!r}: {type(exc).__name__}: {exc}")
                    continue
                if isinstance(value, bool) and ss.runner._is_real(original):
                    escaped.append(f"{where} = {value!r} loaded where a number was expected")
        assert not escaped, "\n".join(escaped)
