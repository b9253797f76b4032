"""Conditional expectation onto product bases and the state/measure bridge."""

import numpy as np
import pytest

import spinsource as ss
from spinsource.errors import ShapeMismatchError

from conftest import NONORTHO


def rotated_basis():
    theta = 0.3
    u = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex
    )
    return ss.PinchingBasis(u)


def pinched(source, basis):
    return ss.channel_transform_source(source, ss.pinching_channel(basis))


class TestConditionalExpectation:
    def test_computational_pinch_is_exact_diagonal_mask(self):
        a = ss.random_observable(2, seed=80)
        pinched = ss.conditional_expectation(a, ss.computational_basis())
        assert np.array_equal(pinched.entries, np.diag(np.diag(a.entries)))

    def test_rotated_pinch_is_diagonal_in_its_own_basis(self):
        basis = rotated_basis()
        a = ss.random_observable(2, seed=81)
        pinched = ss.conditional_expectation(a, basis)
        u2 = np.kron(basis.site_vectors, basis.site_vectors)
        back = u2.conj().T @ pinched.entries @ u2
        off = back - np.diag(np.diag(back))
        assert np.max(np.abs(off)) <= 1e-14

    def test_idempotence(self):
        basis = rotated_basis()
        a = ss.random_observable(2, seed=82)
        once = ss.conditional_expectation(a, basis)
        twice = ss.conditional_expectation(once, basis)
        assert np.max(np.abs(twice.entries - once.entries)) <= 1e-14

    def test_diagonal_observables_are_fixed(self):
        basis = rotated_basis()
        values = np.arange(4.0).reshape(2, 2)
        diag = ss.diagonal_observable(values, basis)
        pinched = ss.conditional_expectation(diag, basis)
        assert np.max(np.abs(pinched.entries - diag.entries)) <= 1e-14

    def test_module_law_on_diagonal_factors(self):
        # E(d a) = d E(a) for diagonal d
        basis = ss.computational_basis()
        values = np.array([1.0, -2.0])
        d = ss.diagonal_observable(values, basis)
        a = ss.random_observable(1, seed=83)
        lhs = ss.conditional_expectation(
            ss.as_operator(d.entries @ a.entries), basis
        )
        rhs = d.entries @ ss.conditional_expectation(a, basis).entries
        assert np.max(np.abs(lhs.entries - rhs)) <= 1e-14

    def test_module_law_fails_off_algebra(self):
        # E(X X) = I but E(X) X = 0: the pinch is not multiplicative
        basis = ss.computational_basis()
        x = ss.as_operator(ss.PAULI_X)
        lhs = ss.conditional_expectation(ss.as_operator(ss.PAULI_X @ ss.PAULI_X), basis)
        rhs = ss.conditional_expectation(x, basis).entries @ ss.PAULI_X
        assert np.max(np.abs(lhs.entries - rhs)) == pytest.approx(1.0)

    def test_trace_preserved_against_any_state(self):
        basis = rotated_basis()
        rho_diag = ss.measure_to_state(
            ss.state_to_measure(ss.random_density(2, seed=84), basis), basis
        )
        a = ss.random_observable(2, seed=85)
        lhs = ss.trace_pairing(rho_diag, ss.conditional_expectation(a, basis))
        rhs = ss.trace_pairing(rho_diag, a)
        assert abs(lhs - rhs) <= 1e-13

    def test_property_report_passes(self):
        for basis in (ss.computational_basis(), rotated_basis()):
            report = ss.verify_expectation_properties(basis, sites=2, seed=7)
            assert report.passed, report

    def test_basis_must_be_unitary(self):
        with pytest.raises(ValueError):
            ss.PinchingBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_site_dim_mismatch_rejected(self):
        a = ss.random_observable(1, seed=86, site_dim=3)
        with pytest.raises(ShapeMismatchError):
            ss.conditional_expectation(a, ss.computational_basis())


class TestStateMeasure:
    def test_diagonal_round_trip_exact(self):
        basis = ss.computational_basis()
        values = np.array([[0.3, 0.2], [0.4, 0.1]])
        rho = ss.measure_to_state(values, basis)
        assert np.array_equal(ss.state_to_measure(rho, basis), values)

    def test_rotated_round_trip(self):
        basis = rotated_basis()
        values = np.array([0.7, 0.3])
        rho = ss.measure_to_state(values, basis)
        back = ss.state_to_measure(rho, basis)
        assert np.max(np.abs(back - values)) <= 1e-14

    def test_measure_must_be_a_distribution(self):
        basis = ss.computational_basis()
        with pytest.raises(ValueError):
            ss.measure_to_state(np.array([0.7, 0.4]), basis)
        with pytest.raises(ValueError):
            ss.measure_to_state(np.array([1.1, -0.1]), basis)

    def test_state_measure_matches_marginal_table(self, processes):
        src = ss.ClassicallyCorrelatedSource(
            processes["aperiodic"], ss.computational_alphabet(2)
        )
        got = ss.state_to_measure(src.density(3), ss.computational_basis())
        expected = ss.marginal_table(processes["aperiodic"], 3)
        assert np.max(np.abs(got - expected)) <= 1e-14

    def test_induced_measure_table_is_consistent(self, fleet):
        # the pinched source's states carry the base's induced measure on their diagonal
        basis = rotated_basis()
        source = pinched(fleet["aperiodic"], basis)
        for m in range(1, 5):
            got = ss.state_to_measure(source.density(m), basis)
            expected = ss.state_to_measure(fleet["aperiodic"].density(m), basis)
            assert np.max(np.abs(got - expected)) <= 1e-14
        assert ss.check_consistency(source, 4).passed
        assert ss.check_stationarity(source, 4).passed

    def test_pinched_nonstationary_measure_fails_left(self, nonstationary_source):
        source = pinched(nonstationary_source, ss.computational_basis())
        assert ss.check_consistency(source, 4).passed
        assert not ss.check_stationarity(source, 4).passed


class TestPinchedSource:
    def test_pinched_source_stays_consistent(self, fleet):
        source = pinched(fleet["aperiodic"], ss.computational_basis())
        assert ss.check_consistency(source, 4).passed
        assert ss.check_stationarity(source, 4).passed

    def test_pinched_density_is_diagonal(self, fleet):
        rho = pinched(fleet["aperiodic"], ss.computational_basis()).density(2).entries
        assert np.array_equal(rho, np.diag(np.diag(rho)))

    def test_pinched_density_in_rotated_basis(self, fleet):
        basis = rotated_basis()
        rho = pinched(fleet["iid"], basis).density(2).entries
        u2 = np.kron(basis.site_vectors, basis.site_vectors)
        back = u2.conj().T @ rho @ u2
        off = back - np.diag(np.diag(back))
        assert np.max(np.abs(off)) <= 1e-14

    def test_diagonal_observable_shape_checked(self):
        with pytest.raises(ShapeMismatchError):
            ss.diagonal_observable(np.zeros((2, 3)), ss.computational_basis())


class TestPinchedBackends:
    @pytest.mark.parametrize("name", ["iid", "aperiodic", "period2", "mixture"])
    def test_pinched_sweep_runs_on_transfer(self, fleet, name):
        sweep = ss.sweep_report(pinched(fleet[name], ss.computational_basis()), n_max=2000, seed=4)
        assert sweep.backend == "transfer"
        assert sweep.verdicts == ss.sweep_report(fleet[name], n_max=2000, seed=4).verdicts

    @pytest.mark.parametrize("basis", [ss.computational_basis(), rotated_basis()],
                             ids=["computational", "rotated"])
    @pytest.mark.parametrize("name", ["iid", "aperiodic", "period2", "mixture"])
    def test_dense_and_transfer_agree(self, fleet, name, basis):
        source = pinched(fleet[name], basis)
        a = ss.random_observable(1, seed=90)
        b = ss.random_observable(2, seed=91)
        dense = ss.source_correlation(source, a, b, [5, 0, 3], backend="dense")
        transfer = ss.source_correlation(source, a, b, [5, 0, 3], backend="transfer")
        assert np.max(np.abs(dense - transfer)) <= 1e-12


class TestVerdictAgreement:
    @pytest.mark.parametrize("name", ["iid", "aperiodic", "period2", "mixture"])
    def test_classical_lift_matches_oracle(self, processes, name):
        # short numeric sweep of the diagonal lift agrees with the analytic
        # classifier on every fleet process
        src = ss.ClassicallyCorrelatedSource(processes[name], ss.computational_alphabet(2))
        sweep = ss.sweep_report(src, n_max=600, backend="transfer", seed=3)
        oracle = ss.classify_process(processes[name]).verdicts
        got = tuple(v == "pass" for v in sweep.verdicts)
        assert got == oracle
