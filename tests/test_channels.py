"""Kraus validation, sitewise application, duals, blocks, and the library."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spinsource as ss
from spinsource.errors import AlignmentError, AlphabetError, CapExceededError

from conftest import tensor_power

NONORTHO = np.array([[1.0, 0.0], [2**-0.5, 2**-0.5]], dtype=complex)


def library_channels():
    return {
        "identity": ss.identity_channel(2),
        "depolarizing_0.3": ss.depolarizing_channel(0.3),
        "depolarizing_1.0": ss.depolarizing_channel(1.0),
        "amplitude_damping_0.5": ss.amplitude_damping_channel(0.5),
        "amplitude_damping_1.0": ss.amplitude_damping_channel(1.0),
        "phase_damping_0.3": ss.phase_damping_channel(0.3),
        "random_unitary": ss.random_unitary_channel(2, seed=13),
        "embedding": ss.embedding_channel(NONORTHO),
    }


def apply_reference(kraus, rho, sites):
    """Independent dense evaluation: explicit sum over Kraus words."""
    out = np.zeros_like(rho)
    words = [[k] for k in kraus]
    for _ in range(sites - 1):
        words = [w + [k] for w in words for k in kraus]
    for w in words:
        full = np.array([[1.0 + 0j]])
        for k in w:
            full = np.kron(full, k)
        out += full @ rho @ full.conj().T
    return out


class TestValidation:
    @pytest.mark.parametrize("name", sorted(library_channels()))
    def test_library_complete(self, name):
        report = ss.validate_kraus(library_channels()[name])
        assert report.passed and report.completeness_deviation <= 1e-10

    def test_incomplete_family_deviation(self):
        # single operator I/2 gives sum A^dag A = I/4, max deviation 0.75
        ch = ss.KrausChannel((np.eye(2, dtype=complex) / 2,), 2)
        report = ss.validate_kraus(ch)
        assert not report.passed
        assert report.completeness_deviation == pytest.approx(0.75)

    def test_factory_rejects_incomplete(self):
        with pytest.raises(ValueError, match="not trace preserving"):
            ss.kraus_channel([np.eye(2) / 2])

    def test_shape_mismatch(self):
        with pytest.raises(ss.ShapeMismatchError):
            ss.KrausChannel((np.eye(3, dtype=complex),), 2)

    def test_unitary_channel_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            ss.unitary_channel([[1, 1], [0, 1]])

    @given(st.floats(0.0, 1.0))
    def test_depolarizing_complete_for_any_strength(self, p):
        assert ss.validate_kraus(ss.depolarizing_channel(p)).passed

    def test_depolarizing_qutrit(self):
        ch = ss.depolarizing_channel(0.4, dim=3)
        assert len(ch) == 9 and ss.validate_kraus(ch).passed

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            ss.depolarizing_channel(1.5)
        with pytest.raises(ValueError):
            ss.amplitude_damping_channel(-0.1)


class TestApplication:
    @pytest.mark.parametrize("sites", [1, 2, 3])
    @pytest.mark.parametrize("name", ["depolarizing_0.3", "amplitude_damping_0.5", "embedding"])
    def test_matches_reference(self, name, sites):
        ch = library_channels()[name]
        rho = ss.random_density(sites, seed=40 + sites)
        expected = apply_reference(ch.operators, rho.entries, sites)
        got = ss.apply_channel(ch, rho).entries
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_amplitude_damping_collapse(self):
        # full damping sends the maximally mixed state to |0><0|
        rho = ss.density_operator(np.eye(2) / 2)
        out = ss.apply_channel(ss.amplitude_damping_channel(1.0), rho)
        assert np.allclose(out.entries, [[1, 0], [0, 0]], atol=1e-14)

    def test_depolarizing_collapse(self):
        rho = ss.random_density(2, seed=3)
        out = ss.apply_channel(ss.depolarizing_channel(1.0), rho)
        assert np.allclose(out.entries, np.eye(4) / 4, atol=1e-12)

    def test_identity_channel_is_identity(self):
        rho = ss.random_density(2, seed=8)
        out = ss.apply_channel(ss.identity_channel(2), rho)
        assert np.allclose(out.entries, rho.entries, atol=1e-14)

    def test_embedding_moves_basis_to_alphabet(self):
        ch = ss.embedding_channel(NONORTHO)
        for i, psi in enumerate(NONORTHO):
            rho = ss.density_operator(np.outer(np.eye(2)[i], np.eye(2)[i]))
            out = ss.apply_channel(ch, rho).entries
            assert np.allclose(out, np.outer(psi, psi.conj()), atol=1e-14)


class TestDuality:
    @pytest.mark.parametrize("name", sorted(library_channels()))
    def test_dual_is_unital(self, name):
        ch = library_channels()[name]
        out = ss.apply_dual(ch, ss.identity_operator(2))
        assert np.allclose(out.entries, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("name", sorted(library_channels()))
    def test_pairing_single_site(self, name):
        ch = library_channels()[name]
        rho = ss.random_density(1, seed=21)
        a = ss.random_observable(1, seed=22)
        lhs = ss.trace_pairing(ss.apply_channel(ch, rho), a)
        rhs = ss.trace_pairing(rho, ss.apply_dual(ch, a))
        assert abs(lhs - rhs) <= 1e-12

    def test_pairing_with_gap(self):
        # tr(E^xN(rho)(a x I x b)) = tr(rho (dual a x I x dual b))
        ch = ss.amplitude_damping_channel(0.5)
        rho = ss.random_density(3, seed=31)
        a = ss.random_observable(1, seed=32)
        b = ss.random_observable(1, seed=33)
        joint = ss.tensor_product(ss.embed_observable(a, 0, 1), b)
        lhs = ss.trace_pairing(ss.apply_channel(ch, rho), joint)
        da, db = ss.apply_dual(ch, a), ss.apply_dual(ch, b)
        rhs = ss.trace_pairing(rho, ss.tensor_product(ss.embed_observable(da, 0, 1), db))
        assert abs(lhs - rhs) <= 1e-12

    def test_dual_channel_operators_adjointed(self):
        ch = ss.amplitude_damping_channel(0.3)
        dual = ss.dual_channel(ch)
        for a, d in zip(ch.operators, dual.operators):
            assert np.array_equal(d, a.conj().T)


class TestBlocks:
    def test_block_equals_sitewise(self):
        base = ss.amplitude_damping_channel(0.4)
        rho = ss.random_density(2, seed=17)
        sitewise = ss.apply_channel(base, rho)
        blocked = ss.apply_channel(tensor_power(base, 2), rho)
        assert np.max(np.abs(sitewise.entries - blocked.entries)) <= 1e-12

    def test_misaligned_block_rejected(self):
        ch = tensor_power(ss.identity_channel(2), 2)
        with pytest.raises(AlignmentError):
            ss.apply_channel(ch, ss.random_density(3, seed=1))

    def test_direct_kraus_count_cap(self):
        ops = tuple(np.eye(1) for _ in range(4097))
        with pytest.raises(CapExceededError) as info:
            ss.KrausChannel(ops, 1)
        assert info.value.cap == 4096

    def test_depolarizing_count_cap_before_any_operator(self, monkeypatch):
        powers = []
        real = np.linalg.matrix_power
        monkeypatch.setattr(np.linalg, "matrix_power", lambda *args: powers.append(1) or real(*args))
        with pytest.raises(CapExceededError, match="4225 Kraus operators"):
            ss.depolarizing_channel(0.1, dim=65)
        assert powers == []


class TestAlphabet:
    def test_non_unit_norm_rejected(self):
        with pytest.raises(AlphabetError, match="unit norm"):
            ss.validate_alphabet([[1.0, 1.0], [1.0, 0.0]])

    def test_dependent_vectors_rejected(self):
        v = [1 / np.sqrt(2), 1 / np.sqrt(2)]
        with pytest.raises(AlphabetError, match="dependent"):
            ss.validate_alphabet([v, v])

    def test_too_many_vectors_rejected(self):
        with pytest.raises(AlphabetError):
            ss.validate_alphabet(np.vstack([np.eye(2), [2**-0.5, 2**-0.5]]))

    def test_embedding_completion_for_small_alphabet(self):
        # one vector in dimension 2: completion operators restore completeness
        ch = ss.embedding_channel(np.array([[2**-0.5, 2**-0.5]]))
        assert len(ch) == 2 and ss.validate_kraus(ch).passed


class TestDispatch:
    def test_known_names(self):
        assert len(ss.make_standard_channel("depolarizing", {"p": 0.3})) == 4
        assert len(ss.make_standard_channel("identity")) == 1
        emb = ss.make_standard_channel("embedding", {"alphabet": NONORTHO})
        assert ss.validate_kraus(emb).passed

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown channel"):
            ss.make_standard_channel("teleport")

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="missing parameter"):
            ss.make_standard_channel("depolarizing")

    @pytest.mark.parametrize(
        "name, params, key",
        [("identity", {"p": 0.5}, "p"), ("amplitude_damping", {"gamma": 0.3, "gama": 0.5}, "gama")],
    )
    def test_unknown_parameter_named(self, name, params, key):
        with pytest.raises(ValueError, match=f"no parameter {key!r}"):
            ss.make_standard_channel(name, params)

    @pytest.mark.parametrize(
        "name, params, key",
        [
            ("depolarizing", {"p": True}, "p"),
            ("depolarizing", {"p": "0.3"}, "p"),
            ("random_unitary", {"seed": 2.7}, "seed"),
            ("random_unitary", {"seed": True}, "seed"),
            ("amplitude_damping", {"gamma": [0.2]}, "gamma"),
        ],
        ids=["p_true", "p_string", "seed_float", "seed_true", "gamma_list"],
    )
    def test_parameter_kind_named(self, name, params, key):
        # the same kinds config loading checks: numbers for p, gamma and lam, an integer >= 0 for seed
        with pytest.raises(ValueError, match=f"parameter {key!r} must be"):
            ss.make_standard_channel(name, params)
