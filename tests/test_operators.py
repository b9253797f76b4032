"""Operator construction, validation, pairing, and seeded randomness."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spinsource as ss
from spinsource.errors import CapExceededError, ShapeMismatchError
from spinsource.operators import _owned_operator

RHO = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)


class TestConstruction:
    def test_operator_infers_sites(self):
        op = ss.as_operator(np.eye(8))
        assert op.sites == 3 and op.site_dim == 2 and op.dim == 8

    def test_qutrit_sites(self):
        op = ss.as_operator(np.eye(9), site_dim=3)
        assert op.sites == 2

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ss.as_operator(np.ones((2, 3)))

    def test_non_power_dim_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ss.as_operator(np.eye(6))

    def test_entries_read_only(self):
        op = ss.as_operator(np.eye(2))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ss.as_operator([[np.nan, 0], [0, 1]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
    def test_user_operator_rejects_non_finite(self, bad):
        entries = np.eye(2, dtype=complex)
        entries[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            ss.Operator(entries, 1)

    @pytest.mark.parametrize("kind", [ss.Operator, ss.DensityOperator])
    def test_user_operator_copies_its_input(self, kind):
        entries = RHO.copy()
        op = kind(entries, 1)
        entries[0, 0] = 9.0
        assert op.entries is not entries and op.entries[0, 0] == 0.75
        assert not op.entries.flags.writeable


class TestOwnedOperator:
    """The library's own states are frozen in place; only their shape is checked."""

    def test_wraps_without_a_copy(self):
        entries = np.kron(RHO, RHO)
        op = _owned_operator(entries, 2, 2)
        assert op.entries is entries and (op.sites, op.site_dim, op.dim) == (2, 2, 4)
        assert isinstance(op, ss.Operator) and not entries.flags.writeable
        with pytest.raises(ValueError):
            entries[0, 0] = 1.0

    @pytest.mark.parametrize(
        "entries, sites",
        [
            (np.eye(4, dtype=complex), 1),  # side 4 is two qubit sites
            (np.eye(2, dtype=complex), 0),
            (np.ones((2, 4), dtype=complex), 1),
            (np.eye(2), 1),  # a real matrix was not built as a state
        ],
    )
    def test_checks_shape_and_site_count(self, entries, sites):
        with pytest.raises(ShapeMismatchError):
            _owned_operator(entries, sites, 2)
        assert entries.flags.writeable


class TestDensityValidation:
    def test_valid_state(self):
        report = ss.validate_density(ss.as_operator(RHO))
        assert report.passed
        # eigenvalues (2 +/- sqrt(2))/4, worked out by hand
        assert report.min_eigenvalue == pytest.approx(0.1464466094067262, abs=1e-14)

    def test_trace_violation(self):
        report = ss.validate_density(ss.as_operator(2 * RHO))
        assert not report.passed and report.trace_deviation == pytest.approx(1.0)

    def test_hermiticity_violation(self):
        report = ss.validate_density(ss.as_operator([[0.5, 0.5], [0.0, 0.5]]))
        assert not report.passed and report.hermiticity_deviation == pytest.approx(0.5)

    def test_negative_eigenvalue(self):
        report = ss.validate_density(ss.as_operator([[1.5, 0], [0, -0.5]]))
        assert not report.passed and report.min_eigenvalue == pytest.approx(-0.5)

    def test_density_operator_rejects_invalid(self):
        with pytest.raises(ValueError):
            ss.density_operator([[1.0, 0.9], [0.9, 0.0]])


class TestPairingAndEmbedding:
    def test_trace_pairing_pauli(self):
        rho = ss.density_operator(RHO)
        assert ss.trace_pairing(rho, ss.as_operator(ss.PAULI_X)) == pytest.approx(0.5)
        assert ss.trace_pairing(rho, ss.as_operator(ss.PAULI_Z)) == pytest.approx(0.5)

    def test_embed_observable_right_pad(self):
        z = ss.as_operator(ss.PAULI_Z)
        emb = ss.embed_observable(z, 0, 1)
        assert np.array_equal(np.diag(emb.entries), [1, 1, -1, -1])

    def test_embed_observable_left_pad(self):
        z = ss.as_operator(ss.PAULI_Z)
        emb = ss.embed_observable(z, 1, 0)
        assert np.array_equal(np.diag(emb.entries), [1, -1, 1, -1])

    def test_word_projector_index(self):
        # site 1 is the most significant digit of the word index
        p = ss.word_projector((1, 0))
        assert p.entries[2, 2] == 1 and np.trace(p.entries) == 1

    def test_tensor_product_order(self):
        xz = ss.tensor_product(ss.as_operator(ss.PAULI_X), ss.as_operator(ss.PAULI_Z))
        assert np.array_equal(xz.entries, np.kron(ss.PAULI_X, ss.PAULI_Z))

    def test_tensor_site_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ss.tensor_product(ss.as_operator(np.eye(2)), ss.as_operator(np.eye(3), site_dim=3))

    def test_pairing_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ss.trace_pairing(ss.density_operator(RHO), ss.identity_operator(2))


class TestDenseCap:
    def test_cap_hit(self):
        with pytest.raises(CapExceededError) as err:
            ss.identity_operator(13)
        assert err.value.cap == 4096

    def test_env_override(self, monkeypatch):
        # checked at the cap itself, without allocating an 8192-row matrix
        monkeypatch.setenv("SPINSOURCE_DENSE_CAP", "8192")
        assert ss.dense_cap() == 8192
        ss.operators._check_cap(8192)
        with pytest.raises(CapExceededError):
            ss.operators._check_cap(8193)

    def test_env_restricts(self, monkeypatch):
        monkeypatch.setenv("SPINSOURCE_DENSE_CAP", "4")
        with pytest.raises(CapExceededError):
            ss.identity_operator(3)


class TestSeededRandom:
    def test_random_observable_hermitian_unit_norm(self):
        a = ss.random_observable(2, seed=5)
        assert a.is_hermitian()
        assert np.max(np.abs(np.linalg.eigvalsh(a.entries))) == pytest.approx(1.0)

    def test_random_observable_deterministic(self):
        x = ss.random_observable(1, seed=9).entries
        y = ss.random_observable(1, seed=9).entries
        z = ss.random_observable(1, seed=10).entries
        assert np.array_equal(x, y) and not np.array_equal(x, z)

    def test_random_observable_scale(self):
        a = ss.random_observable(1, seed=3, scale=2.5)
        assert np.max(np.abs(np.linalg.eigvalsh(a.entries))) == pytest.approx(2.5)

    def test_random_density_valid(self):
        rho = ss.random_density(2, seed=7)
        assert ss.validate_density(rho).passed

    def test_haar_unitary(self):
        u = ss.haar_unitary(4, seed=2)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
        assert np.array_equal(u, ss.haar_unitary(4, seed=2))


@given(st.integers(0, 2**32 - 1))
def test_random_density_always_valid(seed):
    rho = ss.random_density(1, seed=seed)
    assert ss.validate_density(rho).passed


@given(st.integers(0, 2**16), st.integers(0, 2**16))
def test_tensor_trace_multiplicative(seed_a, seed_b):
    a = ss.random_observable(1, seed_a)
    b = ss.random_observable(1, seed_b)
    lhs = np.trace(ss.tensor_product(a, b).entries)
    rhs = np.trace(a.entries) * np.trace(b.entries)
    assert abs(lhs - rhs) < 1e-12
