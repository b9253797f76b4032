"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines directly.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import spinsource as ss

from conftest import FLEET_TRIPLES, NONORTHO, RHO_SITE


def _gate(num: int, name: str, ok: bool, elapsed: float, cap: float) -> None:
    verdict = "PASS" if ok and elapsed < cap else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {verdict} ({elapsed:.2f}s, budget {cap:.0f}s)"
    print(line, flush=True)
    assert ok, line
    assert elapsed < cap, line


def library_channels() -> list:
    return [
        ("identity", ss.identity_channel(2)),
        ("depolarizing_p0", ss.depolarizing_channel(0.0)),
        ("depolarizing_p03", ss.depolarizing_channel(0.3)),
        ("depolarizing_p05", ss.depolarizing_channel(0.5)),
        ("depolarizing_p1", ss.depolarizing_channel(1.0)),
        ("amplitude_damping_g0", ss.amplitude_damping_channel(0.0)),
        ("amplitude_damping_g05", ss.amplitude_damping_channel(0.5)),
        ("amplitude_damping_g1", ss.amplitude_damping_channel(1.0)),
        ("phase_damping_l05", ss.phase_damping_channel(0.5)),
        ("random_unitary_21", ss.random_unitary_channel(2, seed=21)),
        ("embedding_0_plus", ss.embedding_channel(NONORTHO)),
    ]


# full depolarizing and full amplitude damping send every input to a fixed
# single-site state, so any source becomes iid and all three tests pass
COLLAPSING = {"depolarizing_p1", "amplitude_damping_g1"}


def expected_triple(name: str) -> tuple:
    return tuple("pass" if v else "fail" for v in FLEET_TRIPLES[name])


def test_criterion_1_channel_validity():
    t0 = time.perf_counter()
    worst = 0.0
    for _, ch in library_channels():
        report = ss.validate_kraus(ch)
        worst = max(worst, report.completeness_deviation)
    ok = worst <= 1e-10
    _gate(1, "channel_validity", ok, time.perf_counter() - t0, 1.0)


def test_criterion_2_duality_pairing():
    t0 = time.perf_counter()
    channels = library_channels()
    worst = 0.0
    for case in range(50):
        rng_seed = 3000 + case
        _, ch = channels[case % len(channels)]
        ma = 1 + case % 2
        mb = 1 + (case // 2) % 2
        gap = case % 5
        sites = ma + gap + mb
        rho = ss.random_density(sites, seed=rng_seed)
        a = ss.random_observable(ma, seed=rng_seed + 50)
        b = ss.random_observable(mb, seed=rng_seed + 100)
        obs = ss.embed_observable(ss.tensor_product(a, ss.embed_observable(b, gap, 0)), 0, 0)
        lhs = ss.trace_pairing(ss.apply_channel(ch, rho), obs)
        dual_obs = ss.tensor_product(
            ss.apply_dual(ch, a), ss.embed_observable(ss.apply_dual(ch, b), gap, 0)
        )
        rhs = ss.trace_pairing(rho, dual_obs)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-9
    _gate(2, "duality_pairing", ok, time.perf_counter() - t0, 30.0)


def test_criterion_3_family_checks(fleet, broken_family, nonstationary_source):
    t0 = time.perf_counter()
    dep = ss.depolarizing_channel(0.3)
    sources = dict(fleet)
    for name in list(fleet):
        sources[name + "_dep"] = ss.channel_transform_source(fleet[name], dep)
    ok = True
    for name, src in sources.items():
        dens = {m: src.density(m).entries for m in range(1, 9)}
        d = src.site_dim
        for m, i in itertools.product(range(1, 8), range(1, 8)):
            if m + i > 8:
                continue
            eye = np.eye(d**i)
            for k in range(20):
                a = ss.random_observable(m, seed=7000 + 97 * m + 13 * i + k).entries
                base = np.einsum("ij,ji->", dens[m], a)
                right = np.einsum("ij,ji->", dens[m + i], np.kron(a, eye))
                left = np.einsum("ij,ji->", dens[m + i], np.kron(eye, a))
                if abs(base - right) > 1e-9 or abs(base - left) > 1e-9:
                    ok = False
        if not (ss.check_consistency(src, 8).passed and ss.check_stationarity(src, 8).passed):
            ok = False
    # the two deliberately defective families must be caught
    if ss.check_consistency(broken_family, 4).passed:
        ok = False
    if ss.check_stationarity(nonstationary_source, 5).passed:
        ok = False
    if not ss.check_consistency(nonstationary_source, 5).passed:
        ok = False
    _gate(3, "family_checks", ok, time.perf_counter() - t0, 120.0)


def test_criterion_4_embedding_reproduction(processes):
    t0 = time.perf_counter()
    ch = ss.embedding_channel(NONORTHO)
    worst = 0.0
    for process in processes.values():
        direct = ss.ClassicallyCorrelatedSource(process, ss.AlphabetSpec(NONORTHO))
        lifted = ss.channel_transform_source(
            ss.ClassicallyCorrelatedSource(process, ss.computational_alphabet(2)), ch
        )
        for m in range(1, 5):
            dev = np.max(np.abs(direct.density(m).entries - lifted.density(m).entries))
            worst = max(worst, float(dev))
    ok = worst <= 1e-12
    _gate(4, "embedding_reproduction", ok, time.perf_counter() - t0, 10.0)


def test_criterion_5_discrimination_matrix(fleet):
    t0 = time.perf_counter()
    ok = True
    for name, src in fleet.items():
        sweep = ss.sweep_report(src, n_max=2000, backend="transfer", tol=1e-2, seed=5)
        if sweep.verdicts != expected_triple(name) or not sweep.monotone_ok:
            ok = False
    _gate(5, "discrimination_matrix", ok, time.perf_counter() - t0, 300.0)


def test_criterion_6_channel_invariance(fleet):
    t0 = time.perf_counter()
    mismatches = []
    for cname, ch in library_channels():
        for sname, src in fleet.items():
            transformed = ss.channel_transform_source(src, ch)
            sweep = ss.sweep_report(
                transformed, n_max=2000, backend="transfer", tol=1e-2, seed=5
            )
            want = ("pass",) * 3 if cname in COLLAPSING else expected_triple(sname)
            if sweep.verdicts != want:
                mismatches.append((cname, sname, sweep.verdicts, want))
    ok = not mismatches
    if mismatches:
        print("mismatches:", mismatches)
    _gate(6, "channel_invariance", ok, time.perf_counter() - t0, 900.0)


def test_criterion_7_decay_rate(fleet):
    t0 = time.perf_counter()
    indicator = ss.word_projector((0,))
    plain = ss.pair_report(
        fleet["aperiodic"], indicator, indicator, n_max=60, backend="transfer"
    ).strong_mixing
    transformed = ss.pair_report(
        ss.channel_transform_source(fleet["aperiodic"], ss.depolarizing_channel(0.3)),
        indicator,
        indicator,
        n_max=60,
        backend="transfer",
    ).strong_mixing
    ok = True
    for report in (plain, transformed):
        if report.decay is None or abs(report.decay.rate - 0.7) > 0.05 * 0.7:
            ok = False
    _gate(7, "decay_rate", ok, time.perf_counter() - t0, 60.0)


def test_criterion_8_conditional_expectation(processes):
    t0 = time.perf_counter()
    ok = True
    theta = 0.45
    rotated = ss.PinchingBasis(
        np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
    )
    # properties on 54 random inputs: 9 trials x 3 block lengths x 2 bases
    for basis in (ss.computational_basis(), rotated):
        for sites in (1, 2, 3):
            report = ss.verify_expectation_properties(basis, sites=sites, seed=40 + sites, trials=9)
            if not report.passed:
                ok = False
    # computational pinch is an exact diagonal mask, applied twice or once
    a = ss.random_observable(3, seed=91)
    once = ss.conditional_expectation(a, ss.computational_basis())
    twice = ss.conditional_expectation(once, ss.computational_basis())
    if not np.array_equal(once.entries, twice.entries):
        ok = False
    # diagonal state -> measure -> state round trip is exact
    values = np.array([[0.15, 0.35], [0.05, 0.45]])
    rho = ss.measure_to_state(values, ss.computational_basis())
    if not np.array_equal(ss.state_to_measure(rho, ss.computational_basis()), values):
        ok = False
    # numeric verdicts of each diagonal lift agree with the analytic oracle
    for process in processes.values():
        lift = ss.ClassicallyCorrelatedSource(process, ss.computational_alphabet(2))
        sweep = ss.sweep_report(lift, n_max=2000, backend="transfer", tol=1e-2, seed=5)
        got = tuple(v == "pass" for v in sweep.verdicts)
        if got != ss.classify_process(process).verdicts:
            ok = False
    _gate(8, "conditional_expectation", ok, time.perf_counter() - t0, 60.0)


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    configs = []
    for name, source in (
        ("det_iid", {"kind": "iid", "state": [[0.75, 0.25], [0.25, 0.25]]}),
        (
            "det_markov",
            {
                "kind": "classically_correlated",
                "process": {"kind": "markov", "transition": [[0.9, 0.1], [0.2, 0.8]]},
                "alphabet": "computational",
            },
        ),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(
            json.dumps(
                {
                    "name": name,
                    "seed": 13,
                    "source": source,
                    "tests": "all",
                    "n_max": 600,
                    "observable_count": 2,
                    "backend": "transfer",
                }
            )
        )
        configs.append(str(path))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )

    def run(out_dir):
        cmd = [sys.executable, "-m", "spinsource.cli", *configs, "--output-dir", str(out_dir)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    first = run(tmp_path / "r1")
    second = run(tmp_path / "r2")
    ok = bool(first) and first == second
    expected_names = {
        "det_iid.report.json",
        "det_iid.decay.csv",
        "det_markov.report.json",
        "det_markov.decay.csv",
    }
    if set(first) != expected_names:
        ok = False
    _gate(9, "determinism", ok, time.perf_counter() - t0, 120.0)
