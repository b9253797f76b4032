"""Numerical mixing tests: verdicts, decay fits, and sweep aggregation."""

import gc
import tracemalloc

import numpy as np
import pytest

import spinsource as ss
from spinsource.errors import AlignmentError
from spinsource.ergodicity import _pair_plan, _verdict

from conftest import APERIODIC_T, FLEET_TRIPLES, NONORTHO, tensor_power


@pytest.fixture(scope="module")
def indicator():
    return ss.word_projector((0,))


class TestVerdictHeuristic:
    def test_decaying_sequence_passes(self):
        devs = 0.3 * 0.9 ** np.arange(200)
        assert _verdict(devs, 1e-2) == "pass"

    def test_constant_sequence_fails(self):
        assert _verdict(np.full(200, 0.25), 1e-2) == "fail"

    def test_slow_decay_is_inconclusive(self):
        # still shrinking, but far from the tolerance at the end
        devs = 0.5 / np.sqrt(np.arange(1, 201))
        assert _verdict(devs, 1e-3) == "inconclusive"


@pytest.fixture
def drawn(monkeypatch):
    """Every observable the sweep draws and every correlation it computes, by function name."""
    calls = []
    for name in ("random_observable", "word_projector", "source_correlation"):
        monkeypatch.setattr(ss.ergodicity, name, lambda *args, name=name: calls.append(name))
    return calls


class TestPairPlan:
    """_pair_plan decides a pair's horizon, blocks, route and tolerance, in that order,
    before anything is built; the sweep's plan adds its counts and caps around it."""

    def test_fewer_than_four_shifts_refused(self, fleet, indicator):
        # every sequence _verdict judges therefore has at least 4 points
        with pytest.raises(ValueError, match=r"^n_max=3 leaves 3 shifts for block_sites=1; the mixing tests need >= 4$"):
            _pair_plan(fleet["iid"], 1, 1, 3, "auto", None)
        assert _pair_plan(fleet["iid"], 1, 1, 4, "auto", None) == ("transfer", 1e-2, 4)
        assert _pair_plan(fleet["iid"], 2, 1, 9, "dense", 0.3) == ("dense", 0.3, 8)
        shortest = ss.pair_report(fleet["iid"], indicator, indicator, n_max=4)
        assert [r.shifts.size for r in shortest.reports] == [4, 4, 4]
        assert shortest.verdicts == ("pass", "pass", "pass")

    def test_short_sweep_draws_nothing(self, fleet, drawn):
        with pytest.raises(ValueError, match=r"^n_max=8 leaves 3 shifts for block_sites=6; the mixing tests need >= 4$"):
            ss.sweep_report(fleet["iid"], block_sites=6, n_max=8)
        assert drawn == []

    def test_horizon_comes_before_blocks_and_route(self, fleet, monkeypatch):
        blocked = ss.channel_transform_source(fleet["iid"], tensor_power(ss.amplitude_damping_channel(0.4), 2))
        a = ss.random_observable(2, seed=98)
        with pytest.raises(ValueError, match="n_max=4 leaves 3 shifts") as short:
            ss.pair_report(blocked, a, a, 4, "dense")
        assert type(short.value) is ValueError  # a longer horizon gets AlignmentError
        with pytest.raises(AlignmentError):
            ss.pair_report(blocked, a, a, 5, "dense")
        monkeypatch.setenv(ss.operators.DENSE_CAP_ENV, "2")
        with pytest.raises(ValueError, match="n_max=4 leaves 3 shifts"):
            ss.pair_report(fleet["aperiodic"], a, a, 4, "dense")
        with pytest.raises(ss.CapExceededError):
            ss.pair_report(fleet["aperiodic"], a, a, 5, "dense")

    @pytest.mark.parametrize("kwargs, error, match", [
        ({"block_sites": True}, TypeError, "block_sites must be an integer, not a boolean"),
        ({"block_sites": 1.0}, TypeError, "integer"),
        ({"block_sites": 0}, ValueError, "block_sites must be >= 1, got 0"),
        ({"random_pair_count": True}, TypeError, "random_pair_count must be an integer, not a boolean"),
        ({"random_pair_count": 1.0}, TypeError, "integer"),
        ({"random_pair_count": -1}, ValueError, "random_pair_count must be >= 0, got -1"),
        ({"n_max": True}, TypeError, "n_max must be an integer, not a boolean"),
        ({"n_max": 20.0}, TypeError, "integer"),
        ({"tol": -1.0}, ValueError, r"tol must be in \(0, 1\), got -1.0"),
        ({"tol": float("nan")}, ValueError, r"tol must be in \(0, 1\), got nan"),
        ({"tol": 1.0}, ValueError, r"tol must be in \(0, 1\), got 1.0"),
        ({"tol": True}, TypeError, "tol must be a real number, not bool"),
        ({"tol": "0.1"}, TypeError, "tol must be a real number, not str"),
        ({"seed": True}, TypeError, "seed must be an integer, not a boolean"),
        ({"seed": 1.5}, TypeError, "integer"),
        ({"seed": -1}, ValueError, "seed must be >= 0, got -1"),
    ], ids=["block_bool", "block_float", "block_zero", "count_bool", "count_float", "count_negative",
            "n_max_bool", "n_max_float", "tol_negative", "tol_nan", "tol_one", "tol_bool", "tol_str",
            "seed_bool", "seed_float", "seed_negative"])
    def test_bad_counts_refused_before_any_draw(self, fleet, drawn, kwargs, error, match):
        with pytest.raises(error, match=match):
            ss.sweep_report(fleet["iid"], **{"n_max": 20, **kwargs})
        assert drawn == []

    def test_pair_report_refuses_a_bad_tol_before_any_correlation(self, fleet, indicator, drawn):
        for tol in (0.0, float("nan")):
            with pytest.raises(ValueError, match=r"tol must be in \(0, 1\)"):
                ss.pair_report(fleet["iid"], indicator, indicator, n_max=20, tol=tol)
        assert drawn == []

    def test_numpy_counts_run(self, fleet):
        sweep = ss.sweep_report(
            fleet["iid"], np.int64(1), np.int64(20), tol=np.float64(0.2), random_pair_count=np.int64(1),
            seed=np.int64(3),
        )
        assert [p.label for p in sweep.pairs] == ["proj_0", "proj_1", "rand_0"]
        assert sweep.tol == 0.2
        seeded = ss.sweep_report(fleet["iid"], 1, 20, random_pair_count=1, seed=3)
        assert sweep.pairs[2].strong_mixing.statistics.tobytes() == seeded.pairs[2].strong_mixing.statistics.tobytes()


class TestFrozenSequences:
    def test_aperiodic_strong_deviations(self, fleet, indicator):
        # single-site mean of |0><0| over the {|0>, |+>} alphabet is 5/6;
        # dev(i) = 0.7**i / 18 on the [[0.9, 0.1], [0.2, 0.8]] chain
        report = ss.pair_report(
            fleet["aperiodic"], indicator, indicator, n_max=40, backend="transfer"
        ).strong_mixing
        expected = 0.7 ** report.shifts.astype(float) / 18
        assert np.max(np.abs(report.deviations - expected)) <= 1e-12
        assert report.target == pytest.approx(25 / 36)
        assert report.verdict == "pass"

    def test_computational_lift_deviations(self, processes, indicator):
        # with the orthonormal alphabet the amplitude is 2/9 and target 4/9
        src = ss.ClassicallyCorrelatedSource(
            processes["aperiodic"], ss.computational_alphabet(2)
        )
        report = ss.pair_report(
            src, indicator, indicator, n_max=40, backend="transfer"
        ).strong_mixing
        expected = (2 / 9) * 0.7 ** report.shifts.astype(float)
        assert np.max(np.abs(report.deviations - expected)) <= 1e-12
        assert report.target == pytest.approx(4 / 9)

    def test_period2_strong_constant(self, processes, indicator):
        src = ss.ClassicallyCorrelatedSource(processes["period2"], ss.computational_alphabet(2))
        report = ss.pair_report(
            src, indicator, indicator, n_max=200, backend="transfer"
        ).strong_mixing
        # corr alternates 0 / 0.5 around target 0.25
        assert np.allclose(report.deviations, 0.25, atol=1e-14)
        assert report.verdict == "fail"

    def test_period2_weak_fails_ergodic_passes(self, processes, indicator):
        src = ss.ClassicallyCorrelatedSource(processes["period2"], ss.computational_alphabet(2))
        weak = ss.pair_report(
            src, indicator, indicator, n_max=2000, backend="transfer"
        ).weak_mixing
        assert weak.verdict == "fail"
        assert weak.final_deviation == pytest.approx(0.25, abs=1e-3)
        erg = ss.pair_report(
            src, indicator, indicator, n_max=2000, backend="transfer"
        ).ergodic_mean
        assert erg.verdict == "pass"

    def test_mixture_ergodic_mean_fails_at_offset(self, processes, indicator):
        src = ss.ClassicallyCorrelatedSource(processes["mixture"], ss.computational_alphabet(2))
        report = ss.pair_report(
            src, indicator, indicator, n_max=2000, backend="transfer"
        ).ergodic_mean
        # corr is the constant 0.41 while the squared mean is 0.25
        assert report.verdict == "fail"
        assert report.final_deviation == pytest.approx(0.16, abs=1e-12)

    def test_iid_deviations_identically_zero(self, fleet, indicator):
        report = ss.pair_report(
            fleet["iid"], indicator, indicator, n_max=50, backend="transfer"
        ).strong_mixing
        assert np.max(report.deviations) == 0.0

    def test_shift_axis_contract(self, fleet, indicator):
        report = ss.pair_report(
            fleet["aperiodic"], indicator, indicator, n_max=30, backend="transfer"
        ).strong_mixing
        assert report.shifts[0] == 1 and report.shifts[-1] == 30
        assert len(report.shifts) == 30

    def test_two_site_observables_start_at_m(self, fleet):
        a = ss.random_observable(2, seed=90)
        report = ss.pair_report(
            fleet["aperiodic"], a, a, n_max=12, backend="transfer"
        ).strong_mixing
        assert report.shifts[0] == 2
        assert len(report.shifts) == 11

    def test_dense_backend_agrees_on_short_runs(self, fleet, indicator):
        dense = ss.pair_report(
            fleet["aperiodic"], indicator, indicator, n_max=9, backend="dense"
        ).strong_mixing
        transfer = ss.pair_report(
            fleet["aperiodic"], indicator, indicator, n_max=9, backend="transfer"
        ).strong_mixing
        assert np.max(np.abs(dense.statistics - transfer.statistics)) <= 1e-12

    def test_n_max_too_small(self, fleet, indicator):
        with pytest.raises(ValueError):
            ss.pair_report(fleet["iid"], indicator, indicator, n_max=3).strong_mixing


class TestDecayFit:
    def test_aperiodic_rate(self, fleet, indicator):
        report = ss.pair_report(
            fleet["aperiodic"], indicator, indicator, n_max=40, backend="transfer"
        ).strong_mixing
        assert report.decay is not None
        assert report.decay.rate == pytest.approx(0.7, rel=1e-6)

    def test_synthetic_rate(self):
        devs = 0.5 * 0.9 ** np.arange(40)
        fit = ss.fit_decay(devs)
        assert fit.rate == pytest.approx(0.9, rel=1e-12)
        assert fit.max_log_residual <= 1e-9

    def test_zero_sequence_has_no_fit(self):
        assert ss.fit_decay(np.zeros(40)) is None

    def test_floor_trims_tail(self):
        devs = 0.5 * 0.5 ** np.arange(60)
        fit = ss.fit_decay(devs)
        assert fit is not None
        # values below the floor (~1e-13) are excluded from the fit
        assert fit.points_used < 60
        assert fit.rate == pytest.approx(0.5, rel=1e-9)

    def test_too_few_usable_points(self):
        devs = np.concatenate([0.3 * 0.5 ** np.arange(5), np.zeros(40)])
        assert ss.fit_decay(devs) is None


class TestPairBuilders:
    def test_projector_pairs_labels(self):
        pairs = ss.projector_pairs(2, 1)
        labels = [p[0] for p in pairs]
        assert labels == ["proj_0", "proj_1"]

    def test_projector_pairs_block(self):
        pairs = ss.projector_pairs(2, 2)
        assert [p[0] for p in pairs] == ["proj_00", "proj_01", "proj_10", "proj_11"]
        assert pairs[1][1].sites == 2

    def test_projector_pairs_capped(self):
        assert len(ss.projector_pairs(2, 4, limit=8)) == 8

    def test_random_pairs_deterministic(self):
        first = ss.random_pairs(2, 1, 3, seed=11)
        second = ss.random_pairs(2, 1, 3, seed=11)
        for (la, a1, b1), (lb, a2, b2) in zip(first, second):
            assert la == lb
            assert np.array_equal(a1.entries, a2.entries)
            assert np.array_equal(b1.entries, b2.entries)
        assert [p[0] for p in first] == ["rand_0", "rand_1", "rand_2"]

    def test_random_pairs_differ_across_seeds(self):
        a = ss.random_pairs(2, 1, 1, seed=1)[0][1]
        b = ss.random_pairs(2, 1, 1, seed=2)[0][1]
        assert not np.allclose(a.entries, b.entries)


class TestPairReport:
    @pytest.mark.parametrize("backend, tol", [("transfer", 1e-2), ("dense", 5e-2)])
    def test_sweep_pair_is_pair_report(self, fleet, indicator, backend, tol):
        src = fleet["aperiodic"]
        swept = ss.sweep_report(src, n_max=9, backend=backend, seed=5).pairs[0]
        alone = ss.pair_report(
            src, indicator, indicator, n_max=9, backend=backend, label="proj_0"
        )
        assert alone.label == swept.label == "proj_0"
        for mine, theirs in zip(alone.reports, swept.reports):
            assert mine.tol == tol
            assert mine.statistics.tobytes() == theirs.statistics.tobytes()
            assert mine.deviations.tobytes() == theirs.deviations.tobytes()
            assert mine.final_deviation == theirs.final_deviation
            assert mine.verdict == theirs.verdict
            assert mine.decay == theirs.decay


class TestReportArrays:
    """A pair's reports share the arrays pair_report built; arrays from callers are copied."""

    @staticmethod
    def user_report(shifts, statistics, deviations):
        return ss.ErgodicityReport("ergodic_mean", 9, 0j, shifts, statistics, deviations, 0.0, 1e-2, "pass")

    def test_user_report_copies_its_inputs(self):
        shifts, stats, devs = np.arange(1, 10), np.linspace(0, 1, 9), np.full(9, 0.5)
        report = self.user_report(shifts, stats, devs)
        shifts[0], stats[0], devs[0] = 7, 7.0, 7.0
        assert (report.shifts[0], report.statistics[0], report.deviations[0]) == (1, 0.0, 0.5)
        for arr in (report.shifts, report.statistics, report.deviations):
            assert not arr.flags.writeable

    def test_user_report_copies_a_read_only_view(self):
        buffer = np.linspace(0, 1, 18)
        view = buffer[:9]
        view.setflags(write=False)
        report = self.user_report(np.arange(1, 10), view, view)
        buffer[0] = 7.0
        assert report.statistics[0] == report.deviations[0] == 0.0
        assert report.statistics.flags.owndata and not report.statistics.flags.writeable

    def test_user_report_copies_a_read_only_owning_array(self):
        # a caller's frozen array can be thawed again, so only pair_report's arrays are shared
        a = np.arange(1.0, 10.0)
        a.setflags(write=False)
        report = self.user_report(np.arange(1, 10), a, a)
        a.setflags(write=True)
        a[0] = 42.0
        assert report.statistics is not a and report.statistics[0] == report.deviations[0] == 1.0
        assert not report.statistics.flags.writeable

    @pytest.mark.parametrize("backend", ["transfer", "dense"])
    def test_pair_reports_share_their_arrays(self, fleet, indicator, backend):
        pair = ss.pair_report(fleet["aperiodic"], indicator, indicator, n_max=9, backend=backend)
        mean, weak, strong = pair.reports
        assert mean.shifts is weak.shifts is strong.shifts
        assert weak.statistics is weak.deviations
        for report in pair.reports:
            for arr in (report.shifts, report.statistics, report.deviations):
                assert arr.flags.owndata and not arr.flags.writeable

    def test_pair_report_keeps_each_array_once(self):
        # shifts (int), corr and means (complex), and three float deviation sequences: 64 B a shift
        source = ss.ClassicallyCorrelatedSource(ss.MarkovProcess(APERIODIC_T), ss.computational_alphabet(2))
        a = ss.word_projector((0,))
        ss.pair_report(source, a, a, n_max=100, backend="transfer")  # the chain and rho_1, kept by the source
        n_max = 20000
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pair = ss.pair_report(source, a, a, n_max=n_max, backend="transfer")
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert pair.strong_mixing.shifts.size == n_max
        assert retained <= 66 * n_max


class TestSweep:
    @pytest.mark.parametrize("name", ["iid", "aperiodic", "period2", "mixture"])
    def test_fleet_triples(self, fleet, name):
        sweep = ss.sweep_report(fleet[name], n_max=2000, backend="transfer", seed=5)
        expected = tuple("pass" if v else "fail" for v in FLEET_TRIPLES[name])
        assert sweep.verdicts == expected
        assert sweep.monotone_ok

    def test_transformed_iid_still_passes(self, fleet):
        src = ss.channel_transform_source(fleet["iid"], ss.depolarizing_channel(0.3))
        sweep = ss.sweep_report(src, n_max=800, backend="transfer", seed=5)
        assert sweep.verdicts == ("pass", "pass", "pass")

    def test_collapsing_channel_makes_everything_mix(self, fleet):
        # full depolarizing erases all correlations, so even the mixture
        # source looks iid afterwards
        src = ss.channel_transform_source(fleet["mixture"], ss.depolarizing_channel(1.0))
        sweep = ss.sweep_report(src, n_max=800, backend="transfer", seed=5)
        assert sweep.verdicts == ("pass", "pass", "pass")

    def test_worst_case_aggregation(self, fleet):
        sweep = ss.sweep_report(fleet["period2"], n_max=1200, backend="transfer", seed=5)
        per_pair = [p.verdicts for p in sweep.pairs]
        assert any(v[2] == "fail" for v in per_pair)
        assert sweep.strong_mixing == "fail"

    def test_pair_labels_and_decay_rates(self, fleet):
        sweep = ss.sweep_report(
            fleet["aperiodic"], n_max=200, backend="transfer", seed=5, random_pair_count=1
        )
        labels = [p.label for p in sweep.pairs]
        assert labels[:2] == ["proj_0", "proj_1"] and labels[-1] == "rand_0"
        rates = sweep.decay_rates
        assert rates["proj_0"] == pytest.approx(0.7, rel=1e-4)

    def test_dense_tolerance_default(self, fleet):
        sweep = ss.sweep_report(fleet["iid"], n_max=10, backend="dense", seed=5)
        assert sweep.tol == pytest.approx(5e-2)
        assert sweep.backend == "dense"

    def test_auto_prefers_transfer_for_classical_bases(self, fleet):
        sweep = ss.sweep_report(fleet["aperiodic"], n_max=64, backend="auto", seed=5)
        assert sweep.backend == "transfer"
