"""Source families: densities, consistency checks, and correlation backends."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spinsource as ss
from spinsource.errors import AlignmentError, BackendError, CapExceededError, ShapeMismatchError

from conftest import APERIODIC_T, NONORTHO, RHO_SITE, make_fleet, make_nonstationary, tensor_power


def brute_density(process, vectors, sites):
    """Oracle: sum over all words of word probability times the pure product."""
    k, d = vectors.shape
    probs = ss.marginal_table(process, sites)
    out = np.zeros((d**sites, d**sites), dtype=complex)
    for word in itertools.product(range(k), repeat=sites):
        vec = np.array([1.0 + 0j])
        for s in word:
            vec = np.kron(vec, vectors[s])
        out += probs[word] * np.outer(vec, vec.conj())
    return out


class TestDensities:
    def test_iid_density(self):
        src = ss.IIDSource(ss.density_operator(RHO_SITE))
        rho2 = src.density(2)
        assert np.allclose(rho2.entries, np.kron(RHO_SITE, RHO_SITE), atol=1e-15)

    def test_single_site_marginal(self, fleet):
        # rho_1 = 2/3 |0><0| + 1/3 |+><+| for the aperiodic chain
        rho1 = fleet["aperiodic"].density(1).entries
        assert np.allclose(rho1, [[5 / 6, 1 / 6], [1 / 6, 1 / 6]], atol=1e-12)

    @pytest.mark.parametrize("name", ["aperiodic", "period2", "mixture"])
    @pytest.mark.parametrize("sites", [1, 2, 3])
    def test_correlated_density_matches_brute_force(self, fleet, processes, name, sites):
        got = fleet[name].density(sites).entries
        expected = brute_density(processes[name], NONORTHO, sites)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_computational_alphabet_is_diagonal_lift(self, processes):
        src = ss.ClassicallyCorrelatedSource(
            processes["aperiodic"], ss.computational_alphabet(2)
        )
        rho = src.density(3).entries
        table = ss.marginal_table(processes["aperiodic"], 3)
        assert np.allclose(np.diag(rho), table.reshape(-1), atol=1e-14)
        assert np.allclose(rho, np.diag(np.diag(rho)), atol=1e-15)

    def test_channel_transform_density(self, fleet):
        dep = ss.depolarizing_channel(0.3)
        src = ss.channel_transform_source(fleet["aperiodic"], dep)
        direct = ss.apply_channel(dep, fleet["aperiodic"].density(2))
        assert np.allclose(src.density(2).entries, direct.entries, atol=1e-15)

    @pytest.mark.parametrize("sites", [0, -2])
    def test_density_needs_a_site(self, fleet, sites):
        transformed = ss.channel_transform_source(fleet["mixture"], ss.depolarizing_channel(0.3))
        for src in (fleet["iid"], fleet["mixture"], transformed):
            with pytest.raises(ValueError, match="site count must be >= 1"):
                src.density(sites)

    def test_density_cap(self, fleet):
        with pytest.raises(CapExceededError):
            fleet["iid"].density(13)

    def test_iid_requires_single_site(self):
        with pytest.raises(ShapeMismatchError):
            ss.IIDSource(ss.random_density(2, seed=1))

    def test_iid_takes_a_raw_matrix(self):
        src = ss.IIDSource(np.eye(2) / 2)
        assert isinstance(src.site_state, ss.DensityOperator) and src.site_state.sites == 1
        assert np.array_equal(src.density(2).entries, np.eye(4) / 4)
        with pytest.raises(ShapeMismatchError):
            ss.IIDSource(np.eye(4) / 4)

    def test_transform_needs_power_of_site_dim(self, fleet):
        with pytest.raises(AlignmentError):
            ss.channel_transform_source(fleet["iid"], ss.depolarizing_channel(0.3, dim=3))

    def test_one_dimensional_channel_rejected(self, fleet):
        trivial = ss.KrausChannel((np.eye(1, dtype=complex),), 1)
        with pytest.raises(AlignmentError, match="positive power"):
            ss.channel_transform_source(fleet["iid"], trivial)
        with pytest.raises(AlignmentError, match="positive power"):
            ss.apply_channel(trivial, fleet["iid"].density(2))

    def test_alphabet_size_must_match_process(self, processes):
        with pytest.raises(ShapeMismatchError):
            ss.ClassicallyCorrelatedSource(
                processes["aperiodic"], ss.AlphabetSpec(np.eye(3, dtype=complex))
            )


class TestAlphabetSpec:
    def test_orthonormal_flag(self):
        assert ss.computational_alphabet(2).is_orthonormal()
        assert not ss.AlphabetSpec(NONORTHO).is_orthonormal()

    def test_gram_oracle(self):
        gram = ss.AlphabetSpec(NONORTHO).gram()
        assert gram[0, 1] == pytest.approx(2**-0.5)

    def test_construct_accepts_raw_vectors(self, processes):
        src = ss.construct_classically_correlated(processes["aperiodic"], NONORTHO)
        assert isinstance(src.alphabet, ss.AlphabetSpec)


class TestFamilyChecks:
    @pytest.mark.parametrize("name", ["iid", "aperiodic", "period2", "mixture"])
    def test_fleet_consistent_and_stationary(self, fleet, name):
        assert ss.check_consistency(fleet[name], 5).passed
        assert ss.check_stationarity(fleet[name], 5).passed

    @pytest.mark.parametrize("name", ["aperiodic", "mixture"])
    def test_transformed_fleet_still_passes(self, fleet, name):
        src = ss.channel_transform_source(fleet[name], ss.amplitude_damping_channel(0.5))
        assert ss.check_consistency(src, 5).passed
        assert ss.check_stationarity(src, 5).passed

    def test_broken_family_fails(self, broken_family):
        report = ss.check_consistency(broken_family, 4)
        assert not report.passed
        assert report.worst_deviation > 1e-2
        assert not ss.check_stationarity(broken_family, 4).passed

    def test_broken_family_worst_pair_points_at_stray_member(self, broken_family):
        report = ss.check_consistency(broken_family, 2)
        assert report.worst_pair == (1, 1)

    def test_nonstationary_source(self, nonstationary_source):
        assert ss.check_consistency(nonstationary_source, 5).passed
        report = ss.check_stationarity(nonstationary_source, 5)
        assert not report.passed and report.worst_deviation > 1e-2

    def test_block_channel_n_stationarity(self, fleet):
        blocked = ss.channel_transform_source(
            fleet["iid"], tensor_power(ss.amplitude_damping_channel(0.4), 2)
        )
        with pytest.raises(AlignmentError):
            ss.check_stationarity(blocked, 4)
        assert ss.check_stationarity(blocked, 6, block=2).passed
        report = ss.check_consistency(blocked, 6, block=2)
        assert report.passed and report.mode == "block_consistency"

    @pytest.mark.parametrize("max_sites, block", [(5, 2), (2, 2), (4, 0)])
    def test_block_check_needs_whole_blocks(self, fleet, max_sites, block):
        with pytest.raises(ValueError):
            ss.check_consistency(fleet["iid"], max_sites, block=block)


class TestCorrelations:
    @pytest.mark.parametrize("name", ["iid", "aperiodic", "period2", "mixture"])
    def test_backend_agreement(self, fleet, name):
        a = ss.random_observable(1, seed=61)
        b = ss.random_observable(1, seed=62)
        gaps = range(5)
        dense = ss.source_correlation(fleet[name], a, b, gaps, "dense")
        transfer = ss.source_correlation(fleet[name], a, b, gaps, "transfer")
        assert np.max(np.abs(dense - transfer)) <= 1e-9

    def test_backend_agreement_two_site_blocks(self, fleet):
        a = ss.random_observable(2, seed=63)
        b = ss.random_observable(2, seed=64)
        dense = ss.source_correlation(fleet["aperiodic"], a, b, range(4), "dense")
        transfer = ss.source_correlation(fleet["aperiodic"], a, b, range(4), "transfer")
        assert np.max(np.abs(dense - transfer)) <= 1e-9

    @pytest.mark.parametrize(
        "channel",
        [
            ss.depolarizing_channel(0.3),
            ss.amplitude_damping_channel(0.5),
            ss.embedding_channel(NONORTHO),
        ],
    )
    def test_transformed_backend_agreement(self, fleet, channel):
        src = ss.channel_transform_source(fleet["aperiodic"], channel)
        a = ss.random_observable(1, seed=65)
        b = ss.random_observable(1, seed=66)
        dense = ss.source_correlation(src, a, b, range(5), "dense")
        transfer = ss.source_correlation(src, a, b, range(5), "transfer")
        assert np.max(np.abs(dense - transfer)) <= 1e-9

    def test_dual_routing_matches_manual_duals(self, fleet):
        # transfer on the transformed source == transfer on the base source
        # with dual observables
        ch = ss.phase_damping_channel(0.4)
        src = ss.channel_transform_source(fleet["aperiodic"], ch)
        a = ss.random_observable(1, seed=67)
        b = ss.random_observable(1, seed=68)
        via_source = ss.source_correlation(src, a, b, range(6), "transfer")
        manual = ss.source_correlation(
            fleet["aperiodic"], ss.apply_dual(ch, a), ss.apply_dual(ch, b), range(6), "transfer"
        )
        assert np.max(np.abs(via_source - manual)) <= 1e-14

    def test_nested_transforms_peel(self, fleet):
        inner = ss.channel_transform_source(fleet["aperiodic"], ss.depolarizing_channel(0.2))
        outer = ss.channel_transform_source(inner, ss.phase_damping_channel(0.5))
        a = ss.random_observable(1, seed=69)
        dense = ss.source_correlation(outer, a, a, range(4), "dense")
        transfer = ss.source_correlation(outer, a, a, range(4), "transfer")
        assert np.max(np.abs(dense - transfer)) <= 1e-9

    def test_iid_correlation_factorizes_exactly(self, fleet):
        a = ss.random_observable(1, seed=70)
        b = ss.random_observable(1, seed=71)
        corr = ss.source_correlation(fleet["iid"], a, b, range(8), "transfer")
        expected = ss.source_block_mean(fleet["iid"], a) * ss.source_block_mean(fleet["iid"], b)
        assert np.allclose(corr, expected, atol=1e-15)

    def test_source_block_mean_oracle(self, fleet):
        # tr(rho_1 X) with rho_1 = [[5/6, 1/6], [1/6, 1/6]]
        x = ss.as_operator(ss.PAULI_X)
        assert ss.source_block_mean(fleet["aperiodic"], x) == pytest.approx(1 / 3, abs=1e-12)

    @staticmethod
    def pure_state_table(alphabet, a):
        """g[w] = <psi_w| a |psi_w> over words w of a's length: the transfer route's
        table of a against the alphabet's pure states."""
        v = alphabet.vectors
        return ss.sources._state_table(v[:, :, None] * v[:, None, :].conj(), a)

    def test_expectation_table_oracle(self, nonortho_alphabet):
        p0 = ss.word_projector((0,))
        table = self.pure_state_table(nonortho_alphabet, p0)
        assert np.allclose(table, [1.0, 0.5], atol=1e-14)

    def test_expectation_table_two_sites(self, nonortho_alphabet):
        a = ss.random_observable(2, seed=72)
        table = self.pure_state_table(nonortho_alphabet, a)
        for w0, w1 in itertools.product(range(2), repeat=2):
            vec = np.kron(nonortho_alphabet.vectors[w0], nonortho_alphabet.vectors[w1])
            assert table[w0, w1] == pytest.approx(vec.conj() @ a.entries @ vec, abs=1e-12)

    def test_transfer_needs_supported_base(self, broken_family):
        a = ss.random_observable(1, seed=73)
        for backend in ("auto", "dense", "transfer"):
            with pytest.raises(BackendError, match="a BrokenFamily lacks"):
                ss.source_correlation(broken_family, a, a, [0], backend)

    def test_negative_gap_rejected(self, fleet):
        a = ss.random_observable(1, seed=74)
        with pytest.raises(ValueError):
            ss.source_correlation(fleet["iid"], a, a, [-1])

    @pytest.mark.parametrize("backend", ["dense", "transfer"])
    @pytest.mark.parametrize("gaps", [[0.7, 2.9], [True], [1, True], np.array([1.0, 2.0]), np.array([True])])
    def test_non_integer_gaps_rejected(self, fleet, backend, gaps):
        a = ss.random_observable(1, seed=74)
        with pytest.raises(ValueError, match="gaps must be integers"):
            ss.source_correlation(fleet["aperiodic"], a, a, gaps, backend)

    @pytest.mark.parametrize("backend", ["dense", "transfer"])
    def test_empty_and_integer_array_gaps(self, fleet, backend):
        a = ss.random_observable(1, seed=74)
        assert ss.source_correlation(fleet["aperiodic"], a, a, [], backend).shape == (0,)
        for gaps in (np.array([2, 0], dtype=np.int32), np.array([2, 0], dtype=np.uint8)):
            out = ss.source_correlation(fleet["aperiodic"], a, a, gaps, backend)
            assert np.array_equal(out, ss.source_correlation(fleet["aperiodic"], a, a, [2, 0], backend))

    def test_site_dim_mismatch(self, fleet):
        a = ss.random_observable(1, seed=75, site_dim=3)
        with pytest.raises(ShapeMismatchError):
            ss.source_correlation(fleet["iid"], a, a, [0])

    def test_dense_hits_cap_for_long_gaps(self, fleet):
        a = ss.random_observable(1, seed=76)
        with pytest.raises(CapExceededError):
            ss.source_correlation(fleet["aperiodic"], a, a, [40], "dense")

    def test_dense_cap_checked_before_any_state(self, builds):
        src = cache_sources()["blocked"]
        a = ss.random_observable(1, seed=76)
        for source, gaps in ((make_fleet()["aperiodic"], [0, 1, 40]), (src, [0, 2, 40])):
            with pytest.raises(CapExceededError):
                ss.source_correlation(source, a, a, gaps, "dense")
        assert builds == []

    def test_dense_chain_kernel_capped_by_its_own_array(self, fleet):
        # gap 12: rho_14's side 2**14 is past the cap 4096, but the chain kernel's largest
        # array holds 2**(2+2+12) entries, within the cap squared
        a, b = ss.random_observable(1, seed=76), ss.random_observable(1, seed=77)
        dense = ss.source_correlation(fleet["aperiodic"], a, b, [12], "dense")
        transfer = ss.source_correlation(fleet["aperiodic"], a, b, [12], "transfer")
        assert np.max(np.abs(dense - transfer)) <= 1e-12
        assert ss.sweep_report(fleet["aperiodic"], 1, 14, "dense").backend == "dense"
        with pytest.raises(CapExceededError, match=r"dense chain kernel array of 4 x 2\*\*23 entries \(2 hidden states\) exceeds cap 16777216"):
            ss.source_correlation(fleet["aperiodic"], a, b, [0, 21], "dense")

    def test_chainless_dense_cap_counts_rho_side(self, broken_family):
        # a source from outside the library has no chain: its checks keep the side cap, and
        # no correlation runs on it
        built = []
        broken_family.density = lambda sites: built.append(sites)
        with pytest.raises(CapExceededError, match=r"dense matrix side 8192 exceeds cap 4096"):
            ss.check_consistency(broken_family, 13)
        with pytest.raises(BackendError, match="a BrokenFamily lacks"):
            ss.source_correlation(broken_family, ss.random_observable(1, seed=76), ss.random_observable(1, seed=77), [0])
        assert built == []
        with pytest.raises(TypeError, match="not a BrokenFamily"):
            ss.channel_transform_source(broken_family, ss.depolarizing_channel(0.3))

    def test_transfer_caps_hidden_word_tables(self):
        # 1000 hidden states: the sweep's table over one-site hidden words and end states holds
        # 1000**2 = 1e6 entries, at the cap; over two-site words it holds 1000**3
        mix = ss.MixtureProcess(np.full(1000, 1 / 1000), tuple(ss.IIDProcess([0.5, 0.5]) for _ in range(1000)))
        src = ss.construct_classically_correlated(mix, ss.computational_alphabet(2))
        one, two = ss.random_observable(1, seed=77), ss.random_observable(2, seed=78)
        assert np.isclose(ss.source_correlation(src, one, one, [3])[0], ss.source_block_mean(src, one) ** 2)
        with pytest.raises(CapExceededError):
            ss.source_correlation(src, two, one, [0], "transfer")

    def test_transfer_word_cap_counts_hidden_end_states(self, monkeypatch):
        # two-site observables on n hidden states: the sweep's table holds n**2 words by n end states
        monkeypatch.setattr(ss.classical, "WORD_ENUMERATION_CAP", 1000)
        a = ss.random_observable(2, seed=80)

        def source(n):
            mix = ss.MixtureProcess(np.full(n, 1 / n), tuple(ss.IIDProcess([0.5, 0.5]) for _ in range(n)))
            return ss.construct_classically_correlated(mix, ss.computational_alphabet(2))

        ten = source(10)
        assert np.isclose(ss.source_correlation(ten, a, a, [2])[0], ss.source_block_mean(ten, a) ** 2)
        with pytest.raises(CapExceededError):
            ss.source_correlation(source(11), a, a, [2], "transfer")

    @pytest.mark.parametrize(
        "process",
        [
            ss.MarkovProcess(APERIODIC_T),
            ss.MixtureProcess([0.4, 0.6], (ss.MarkovProcess(APERIODIC_T), ss.IIDProcess([0.2, 0.8]))),
        ],
        ids=["markov", "markov_iid_mixture"],
    )
    def test_transfer_keeps_gap_order(self, process):
        src = ss.ClassicallyCorrelatedSource(process, ss.AlphabetSpec(NONORTHO))
        a = ss.random_observable(1, seed=78)
        b = ss.random_observable(1, seed=79)
        gaps = [5, 0, 3]
        transfer = ss.source_correlation(src, a, b, gaps, "transfer")
        dense = ss.source_correlation(src, a, b, gaps, "dense")
        assert np.max(np.abs(transfer - dense)) <= 1e-9
        ordered = ss.source_correlation(src, a, b, sorted(gaps), "transfer")
        assert np.array_equal(transfer, ordered[[2, 0, 1]])

    def test_nested_mixture_source_matches_flattened(self):
        a_proc, b_proc = ss.MarkovProcess(APERIODIC_T), ss.IIDProcess([0.2, 0.8])
        nested = ss.MixtureProcess([0.5, 0.5], (ss.MixtureProcess([0.5, 0.5], (a_proc, b_proc)), a_proc))
        flat = ss.MixtureProcess([0.75, 0.25], (a_proc, b_proc))
        alph = ss.AlphabetSpec(NONORTHO)
        got = ss.ClassicallyCorrelatedSource(nested, alph).density(3).entries
        expected = ss.ClassicallyCorrelatedSource(flat, alph).density(3).entries
        assert np.max(np.abs(got - expected)) <= 1e-15

    def test_transfer_handles_long_gaps(self, fleet):
        a = ss.random_observable(1, seed=77)
        corr = ss.source_correlation(fleet["aperiodic"], a, a, [5000], "transfer")
        mean = ss.source_block_mean(fleet["aperiodic"], a)
        assert abs(corr[0] - mean * mean) < 1e-12


class TestEmbeddingReproduction:
    @pytest.mark.parametrize("name", ["aperiodic", "period2", "mixture"])
    def test_transform_of_orthonormal_source_reproduces_direct(self, processes, name):
        direct = ss.ClassicallyCorrelatedSource(processes[name], ss.AlphabetSpec(NONORTHO))
        lifted = ss.channel_transform_source(
            ss.ClassicallyCorrelatedSource(processes[name], ss.computational_alphabet(2)),
            ss.embedding_channel(NONORTHO),
        )
        for m in range(1, 5):
            dev = np.max(np.abs(direct.density(m).entries - lifted.density(m).entries))
            assert dev <= 1e-12


# every standard one-site channel, by site dimension
FOLD_CHANNELS = {
    2: {
        "identity": ss.identity_channel(2),
        "depolarizing": ss.depolarizing_channel(0.3),
        "amplitude_damping": ss.amplitude_damping_channel(0.4),
        "phase_damping": ss.phase_damping_channel(0.35),
        "random_unitary": ss.random_unitary_channel(2, seed=5),
        "embedding": ss.embedding_channel(NONORTHO),
        "pinching_rotated": ss.pinching_channel(ss.PinchingBasis(ss.haar_unitary(2, seed=9))),
    },
    3: {
        "depolarizing": ss.depolarizing_channel(0.3, dim=3),
        "random_unitary": ss.random_unitary_channel(3, seed=6),
    },
}
NONORTHO3 = np.array([[1.0, 0, 0], [0.6, 0.8, 0], [0.0, 0.6j, 0.8]], dtype=complex)


def fold_sources() -> dict:
    """(site dim, name) -> base source: the fleet, the nonstationary source,
    a two-channel nested transform, and a Markov source at site dim 3."""
    fleet = make_fleet()
    out = {(2, name): src for name, src in fleet.items()}
    out[2, "nonstationary"] = make_nonstationary()
    out[2, "nested"] = ss.channel_transform_source(
        ss.channel_transform_source(fleet["aperiodic"], ss.depolarizing_channel(0.2)),
        ss.phase_damping_channel(0.5),
    )
    out[3, "markov"] = ss.ClassicallyCorrelatedSource(
        ss.MarkovProcess([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]]), ss.AlphabetSpec(NONORTHO3)
    )
    return out


FOLD_SOURCES = fold_sources()
FOLD_CASES = [(d, source, channel) for (d, source) in FOLD_SOURCES for channel in FOLD_CHANNELS[d]]
FOLD_IDS = [f"d{d}-{source}-{channel}" for d, source, channel in FOLD_CASES]


def sitewise_density(source, sites: int) -> np.ndarray:
    """rho_m with every channel transform applied to the whole state through the Kraus layer."""
    if isinstance(source, ss.ChannelTransformedSource):
        base = ss.Operator(sitewise_density(source.base, sites), sites, source.site_dim)
        return ss.apply_channel(source.channel, base).entries
    return source.density(sites).entries


class TestEmissionFold:
    """A one-site channel folded into the emitted states equals the channel on the whole state."""

    @pytest.mark.parametrize("d, source, channel", FOLD_CASES, ids=FOLD_IDS)
    def test_fold_matches_kraus_layer(self, d, source, channel):
        base, ch = FOLD_SOURCES[d, source], FOLD_CHANNELS[d][channel]
        folded = ss.channel_transform_source(base, ch)
        assert folded.states.shape == (base.hidden.initial.size, d, d)
        for m in range(1, 7):
            expected = ss.apply_channel(ch, ss.Operator(sitewise_density(base, m), m, d)).entries
            assert np.max(np.abs(folded.density(m).entries - expected)) <= 1e-14

    @pytest.mark.parametrize("d, source, channel", FOLD_CASES, ids=FOLD_IDS)
    def test_folded_backends_agree(self, d, source, channel):
        folded = ss.channel_transform_source(FOLD_SOURCES[d, source], FOLD_CHANNELS[d][channel])
        # at site dim 3, two-site blocks stop at gap 1 (243 rows): gap 3 would need 2187
        for block, gaps in ((1, range(4)), (2, range(4) if d == 2 else range(2))):
            a = ss.random_observable(block, seed=80 + block, site_dim=d)
            b = ss.random_observable(block, seed=90 + block, site_dim=d)
            dense = ss.source_correlation(folded, a, b, gaps, "dense")
            transfer = ss.source_correlation(folded, a, b, gaps, "transfer")
            assert np.max(np.abs(dense - transfer)) <= 1e-12

    def test_folded_states_are_channel_images(self, fleet):
        ch = ss.amplitude_damping_channel(0.4)
        base = fleet["mixture"]
        folded = ss.channel_transform_source(base, ch)
        assert folded.hidden is base.hidden
        for s, t in zip(base.states, folded.states):
            assert np.array_equal(t, ss.apply_channel(ch, ss.Operator(s, 1, 2)).entries)
        assert not folded.states.flags.writeable


class TestMultiSiteChannel:
    """A user-built channel on two sites regroups its base chain into a chain of two-site blocks."""

    @pytest.fixture
    def blocked(self, fleet):
        return ss.channel_transform_source(fleet["iid"], tensor_power(ss.amplitude_damping_channel(0.4), 2))

    def test_density_matches_sitewise(self, fleet, blocked):
        sitewise = ss.channel_transform_source(fleet["iid"], ss.amplitude_damping_channel(0.4))
        assert blocked.states.shape == (1, 4, 4)
        for m in (2, 4, 6):
            assert np.max(np.abs(blocked.density(m).entries - sitewise.density(m).entries)) <= 1e-14
        with pytest.raises(AlignmentError):
            blocked.density(3)

    def test_auto_resolves_to_transfer(self, blocked, broken_family):
        from spinsource.sources import _correlation_route

        assert _correlation_route(blocked, 1, 1, 0, "auto") == "transfer"
        assert _correlation_route(FOLD_SOURCES[2, "nested"], 1, 1, 0, "auto") == "transfer"
        with pytest.raises(BackendError, match="a BrokenFamily lacks"):
            _correlation_route(broken_family, 1, 1, 0, "auto")

    def test_transfer_raises(self, fleet, blocked, builds):
        # on two-site blocks a + gap + b must be even, on both routes, before anything is built
        a = ss.random_observable(2, seed=95)
        for backend in ("dense", "transfer"):
            with pytest.raises(AlignmentError, match="does not divide 5"):
                ss.source_correlation(blocked, a, a, [0, 1], backend)
        assert builds == []
        sitewise = ss.channel_transform_source(fleet["iid"], ss.amplitude_damping_channel(0.4))
        want = ss.source_correlation(sitewise, a, a, [0, 2], "transfer")
        for backend in ("auto", "dense"):
            assert np.max(np.abs(ss.source_correlation(blocked, a, a, [0, 2], backend) - want)) <= 1e-12

    def test_long_gaps_on_both_routes(self, fleet):
        src = ss.channel_transform_source(fleet["aperiodic"], tensor_power(ss.amplitude_damping_channel(0.4), 2))
        a, b = ss.random_observable(2, seed=96), ss.random_observable(2, seed=97)
        far = ss.source_correlation(src, a, b, [2000], "transfer")
        assert abs(far[0] - ss.source_block_mean(src, a) * ss.source_block_mean(src, b)) < 1e-12
        # gap 12: rho_14's side 2**14 is past the cap 4096, but the kernel holds 16 x 4**7 entries
        a, b = ss.random_observable(1, seed=96), ss.random_observable(1, seed=97)
        dense = ss.source_correlation(src, a, b, [12], "dense")
        assert np.max(np.abs(dense - ss.source_correlation(src, a, b, [12], "transfer"))) <= 1e-12

    def test_nested_spans_regroup_to_their_lcm(self, fleet):
        inner = ss.channel_transform_source(fleet["period2"], ss.random_unitary_channel(8, seed=3))
        src = ss.channel_transform_source(inner, ss.random_unitary_channel(4, seed=4))
        assert src.span == 6 and src.states.shape == (2, 64, 64)
        assert np.max(np.abs(src.density(6).entries - sitewise_density(src, 6))) <= 1e-14
        with pytest.raises(AlignmentError, match="blocks span 6 sites, which does not divide 4"):
            src.density(4)

    def test_build_cap_refuses_before_any_channel_work(self, monkeypatch):
        # two 6-state chains regroup into 72 hidden states over two-site blocks of side 36: rho_12 over
        # 6 blocks keeps 72 blocks of 36**10 entries, refused from the hidden chain, before any state
        rng = np.random.default_rng(7)
        chains = tuple(ss.MarkovProcess(rng.dirichlet(np.ones(6), size=6)) for _ in range(2))
        base = ss.construct_classically_correlated(ss.MixtureProcess([0.5, 0.5], chains), ss.computational_alphabet(6))
        src = ss.channel_transform_source(base, ss.random_unitary_channel(36, seed=8))
        calls, apply = [], ss.sources.apply_channel
        monkeypatch.setattr(ss.sources, "apply_channel", lambda *args: calls.append(args) or apply(*args))
        with pytest.raises(CapExceededError, match=r"\(72 hidden states\)"):
            ss.check_consistency(src, max_sites=12, block=2)
        assert calls == [] and "states" not in src.__dict__ and "states" not in base.__dict__
        assert src.states.shape == (72, 36, 36) and len(calls) == 72

    def test_sweep_refused_before_any_work(self, blocked, builds, monkeypatch):
        drawn = []
        monkeypatch.setattr(ss.ergodicity, "projector_pairs", lambda *args: drawn.append(args) or [])
        a = ss.random_observable(2, seed=98)
        for n_max in (8, 2000):
            with pytest.raises(AlignmentError, match="shifts are not all whole blocks"):
                ss.sweep_report(blocked, 2, n_max, "dense")
            with pytest.raises(AlignmentError, match="shifts are not all whole blocks"):
                ss.pair_report(blocked, a, a, n_max, "dense")
        assert builds == [] and drawn == []


def random_alphabet(size: int, d: int, seed: int) -> ss.AlphabetSpec:
    v = np.random.default_rng(seed).normal(size=(size, d, 2)) @ [1, 1j]
    return ss.AlphabetSpec(v / np.linalg.norm(v, axis=1, keepdims=True))


def random_base(kind: str, seed: int) -> ss.ClassicallyCorrelatedSource:
    """A source on a random 2- or 3-state hidden chain: aperiodic, period 2, or a reducible
    mixture of a Markov chain and an iid process (three hidden states on two symbols)."""
    rng = np.random.default_rng(seed)
    n = 3 if kind.endswith("3") else 2
    t = rng.dirichlet(np.ones(n), size=n)
    if kind.startswith("period2"):
        q = t[0, 0]
        t = np.roll(np.eye(n), 1, axis=1) if n == 2 else [[0, q, 1 - q], [1, 0, 0], [1, 0, 0]]
    process = ss.MarkovProcess(t)
    if kind == "reducible":
        process = ss.MixtureProcess([0.3, 0.7], (process, ss.IIDProcess(rng.dirichlet(np.ones(n)))))
    return ss.ClassicallyCorrelatedSource(process, random_alphabet(n, n, seed))


def mixed_unitary_channel(d: int, seed: int) -> ss.KrausChannel:
    """sqrt(p) U, sqrt(1 - p) V for two Haar unitaries: a one-site channel with two Kraus operators."""
    p = 0.1 + 0.8 * (seed % 7) / 7
    return ss.KrausChannel((p**0.5 * ss.haar_unitary(d, seed), (1 - p) ** 0.5 * ss.haar_unitary(d, seed + 1)), d)


class TestBlockChain:
    """A k-site channel's regrouped chain emits the states the channel makes of the base's."""

    @given(
        kind=st.sampled_from(["markov2", "markov3", "period2", "period2_3", "reducible"]),
        span=st.sampled_from([2, 3]),
        layout=st.sampled_from(["k_site", "one_site_over_k_site", "k_site_over_k_site"]),
        unitary=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_regrouped_chain_matches_the_kraus_layer(self, kind, span, layout, unitary, seed):
        base = random_base(kind, seed)
        d = base.site_dim
        span = 2 if d == 3 else span  # 3-site blocks at d = 3 would need 729-row states

        def channel(k, offset):
            if unitary:
                return ss.random_unitary_channel(d**k, seed=seed + offset)
            return tensor_power(mixed_unitary_channel(d, seed + offset), k)

        if layout == "k_site":
            src = ss.channel_transform_source(base, channel(span, 1))
        elif layout == "one_site_over_k_site":
            src = ss.channel_transform_source(ss.channel_transform_source(base, channel(span, 1)), channel(1, 2))
        else:
            src = ss.channel_transform_source(ss.channel_transform_source(base, channel(span, 1)), channel(span, 2))
        hidden = src.hidden
        assert np.max(np.abs(hidden.transition.sum(axis=1) - 1)) <= 1e-14 and abs(hidden.initial.sum() - 1) <= 1e-14
        sitewise = {m: sitewise_density(src, m) for m in (span, 2 * span)}
        for m, rho in sitewise.items():
            assert np.max(np.abs(src.density(m).entries - rho)) <= 1e-14, m
        for ma, mb in ((1, 1), (2, 1), (1, 2)):
            gaps = [g for g in range(2 * span) if (ma + g + mb) % span == 0 and ma + g + mb <= 2 * span]
            a = ss.random_observable(ma, seed=seed + ma, site_dim=d)
            b = ss.random_observable(mb, seed=seed + 10 + mb, site_dim=d)
            # the full-rho reference on the Kraus layer's states, one-site a and b sharing a block included
            pads = [np.kron(np.kron(a.entries, np.eye(d**gap)), b.entries) for gap in gaps]
            want = np.array([np.einsum("ij,ji->", sitewise[ma + gap + mb], pad) for gap, pad in zip(gaps, pads)])
            for backend in ("dense", "transfer"):
                got = ss.source_correlation(src, a, b, gaps, backend)
                assert np.max(np.abs(got - want), initial=0) <= 1e-12, (ma, mb, backend)


def cache_sources() -> dict:
    """Fresh sources of every density path, with nothing built yet."""
    fleet = make_fleet()
    damping = ss.amplitude_damping_channel(0.4)
    return {
        "iid": fleet["iid"],
        "correlated": fleet["mixture"],
        "transformed": ss.channel_transform_source(fleet["aperiodic"], damping),
        "blocked": ss.channel_transform_source(fleet["iid"], tensor_power(damping, 2)),
    }


@pytest.fixture
def builds(monkeypatch):
    """(source, sites) of every state the library builds, not looks up."""
    from spinsource import sources

    built, build = [], sources._build_density

    def counting(source, sites):
        built.append((source, sites))
        return build(source, sites)

    monkeypatch.setattr(sources, "_build_density", counting)
    return built


@pytest.fixture
def kernel_calls(monkeypatch):
    """The sorted gaps of every _chain_pairs call, the dense correlations' chain kernel."""
    from spinsource import sources

    calls, kernel = [], sources._chain_pairs

    def counting(hidden, states, a_sites, b_sites, gaps):
        calls.append(sorted(gaps))
        return kernel(hidden, states, a_sites, b_sites, gaps)

    monkeypatch.setattr(sources, "_chain_pairs", counting)
    return calls


class TestDensityCache:
    """A library source builds each rho_m once and keeps it for its lifetime."""

    @pytest.mark.parametrize("name", ["iid", "correlated", "transformed", "blocked"])
    def test_repeat_returns_same_read_only_state(self, builds, name):
        src = cache_sources()[name]
        rho = src.density(4)
        assert src.density(4) is rho and src.density(2) is src.density(2)
        assert not rho.entries.flags.writeable
        assert [m for s, m in builds if s is src] == [4, 2]

    def test_density_stays_a_method_of_each_family(self):
        # the benchmark's probes wrap each family's own density method
        for cls in (ss.IIDSource, ss.ClassicallyCorrelatedSource, ss.ChannelTransformedSource):
            assert "density" in cls.__dict__

    def test_sweep_and_checks_build_each_site_count_once(self, builds):
        # a chain source's dense correlations step the chain without building rho_{a+gap+b}
        src = cache_sources()["transformed"]
        ss.sweep_report(src, n_max=6, backend="dense", random_pair_count=1, seed=3)
        assert [m for _, m in builds] == [1]  # the block mean's rho_block_sites only
        ss.check_consistency(src, max_sites=5)
        ss.check_stationarity(src, max_sites=5)
        assert sorted(m for _, m in builds) == [1, 2, 3, 4, 5]

    def test_lowered_cap_still_raises_after_a_build(self, monkeypatch):
        src = cache_sources()["correlated"]
        src.density(4)
        monkeypatch.setenv(ss.operators.DENSE_CAP_ENV, "8")
        with pytest.raises(CapExceededError):
            src.density(4)
        assert src.density(3).dim == 8

    def test_build_cap_counts_hidden_states(self, builds):
        # rho_12 fits the cap, but its build keeps 64 hidden states' blocks of 2**22 entries
        def mixture(n):
            process = ss.MixtureProcess(np.full(n, 1 / n), tuple(ss.IIDProcess([0.5, 0.5]) for _ in range(n)))
            return ss.construct_classically_correlated(process, ss.computational_alphabet(2))

        wide = mixture(64)
        for refused in (lambda: ss.check_consistency(wide, 12), lambda: wide.density(12)):
            with pytest.raises(CapExceededError, match=r"kernel array of 64 x 2\*\*22 entries \(64 hidden states\)"):
                refused()
        assert builds == []
        assert ss.sources._check_plan(mixture(2), 12, 1) == (12, 1)

    def test_misaligned_build_caches_nothing(self, builds):
        src = cache_sources()["blocked"]
        for _ in range(2):
            with pytest.raises(AlignmentError):
                src.density(3)
        assert [m for s, m in builds if s is src] == [3, 3]

    def test_site_count_must_be_an_integer_cold_or_warm(self):
        src = cache_sources()["correlated"]
        for _ in range(2):
            with pytest.raises(TypeError):
                src.density(2.0)
            src.density(2)
        assert src.density(np.int64(2)) is src.density(2)

    @pytest.mark.parametrize("name", ["iid", "correlated", "transformed", "blocked"])
    def test_cached_correlations_are_bitwise_fresh(self, name):
        a, b = ss.random_observable(2, seed=61), ss.random_observable(2, seed=62)
        gaps = [0, 2, 4, 2, 0] if name == "blocked" else [0, 1, 3, 2, 1]
        warm = cache_sources()[name]
        first = ss.source_correlation(warm, a, b, gaps, "dense")
        second = ss.source_correlation(warm, a, b, gaps, "dense")
        fresh = ss.source_correlation(cache_sources()[name], a, b, gaps, "dense")
        assert first.tobytes() == fresh.tobytes() and second.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("name", ["iid", "correlated", "transformed"])
    def test_dense_sweep_steps_the_kernel_once(self, kernel_calls, name):
        # the two-block states belong to the source and the block sizes, not to the pair
        src = cache_sources()[name]
        sweeps = [ss.sweep_report(src, n_max=8, backend="dense", random_pair_count=2, seed=5) for _ in range(2)]
        assert len(sweeps[0].pairs) == 4 and kernel_calls == [list(range(8))]
        assert not any(state.flags.writeable for state in src.__dict__["_pairs"][1, 1].values())
        fresh = ss.sweep_report(cache_sources()[name], n_max=8, backend="dense", random_pair_count=2, seed=5)
        for sweep in sweeps:
            for pair, other in zip(sweep.pairs, fresh.pairs):
                for report, expected in zip(pair.reports, other.reports):
                    assert report.statistics.tobytes() == expected.statistics.tobytes()

    def test_dense_pairs_step_only_the_missing_gaps(self, kernel_calls):
        src, a = cache_sources()["correlated"], ss.random_observable(1, seed=63)
        wide = ss.source_correlation(src, a, a, [0, 1, 2, 5], "dense")
        later = ss.source_correlation(src, a, a, [2, 4, 5, 0], "dense")
        assert kernel_calls == [[0, 1, 2, 5], [4]]
        assert sorted(src.__dict__["_pairs"][1, 1]) == [0, 1, 2, 4, 5]
        fresh = ss.source_correlation(cache_sources()["correlated"], a, a, [2, 4, 5, 0], "dense")
        assert later.tobytes() == fresh.tobytes() and later[[0, 2, 3]].tobytes() == wide[[2, 3, 0]].tobytes()

    def test_lowered_cap_still_refuses_kept_pairs(self, monkeypatch, kernel_calls):
        src, a = cache_sources()["correlated"], ss.random_observable(2, seed=64)
        first = ss.source_correlation(src, a, a, range(4), "dense")
        monkeypatch.setenv(ss.operators.DENSE_CAP_ENV, "8")
        with pytest.raises(CapExceededError):
            ss.source_correlation(src, a, a, range(4), "dense")
        monkeypatch.delenv(ss.operators.DENSE_CAP_ENV)
        assert ss.source_correlation(src, a, a, range(4), "dense").tobytes() == first.tobytes()
        assert kernel_calls == [[0, 1, 2, 3]]

    @pytest.mark.parametrize("name", ["iid", "correlated", "transformed"])
    def test_sweep_runs_on_the_sources_own_hidden_chain(self, monkeypatch, name):
        # a source's hidden chain is its process's, or its base's under a one-site channel,
        # so the transfer sweep constructs no MarkovProcess of its own
        src = cache_sources()[name]
        built, init = [], ss.MarkovProcess.__post_init__

        def counting(process):
            built.append(process)
            init(process)

        monkeypatch.setattr(ss.MarkovProcess, "__post_init__", counting)
        sweeps = [ss.sweep_report(src, n_max=40, backend="transfer", random_pair_count=2, seed=s) for s in (3, 3)]
        assert len(sweeps[0].pairs) > 1 and built == []
        if name == "transformed":
            assert src.hidden is src.base.hidden
            src = src.base
        if name != "iid":
            assert src.hidden is src.process.hidden
        assert isinstance(src.hidden, ss.MarkovProcess)
        fresh = ss.sweep_report(cache_sources()[name], n_max=40, backend="transfer", random_pair_count=2, seed=3)
        for sweep in sweeps:
            for pair, other in zip(sweep.pairs, fresh.pairs):
                assert pair.strong_mixing.statistics.tobytes() == other.strong_mixing.statistics.tobytes()


def kron_correlation(source, a, b, gap, channel=None) -> complex:
    """The paper's tr(rho (a (x) 1^(x gap) (x) b)), with the padded operator built in full;
    with a channel, on the channel's image of source's state through the Kraus layer."""
    rho = source.density(a.sites + gap + b.sites)
    rho = (rho if channel is None else ss.apply_channel(channel, rho)).entries
    pad = np.eye(source.site_dim**gap, dtype=complex)
    return np.einsum("ij,ji->", rho, np.kron(np.kron(a.entries, pad), b.entries))


def dense_reference_cases() -> dict:
    """name -> (source, [(a sites, b sites, gaps)]): the fleet, a source with complex
    states, a site dim 3 source, and a two-site block channel, whose states exist on
    even site counts only."""
    fleet = make_fleet()
    mixed = [(1, 1, range(6)), (1, 2, range(5)), (2, 1, range(5)), (2, 2, range(4))]
    cases = {name: (src, mixed) for name, src in fleet.items()}
    cases["unitary"] = (ss.channel_transform_source(fleet["aperiodic"], ss.random_unitary_channel(2, seed=5)), mixed)
    cases["d3-markov"] = (FOLD_SOURCES[3, "markov"], [(1, 1, range(4)), (1, 2, range(3)), (2, 1, range(3))])
    blocked = ss.channel_transform_source(fleet["aperiodic"], tensor_power(ss.amplitude_damping_channel(0.4), 2))
    cases["blocked"] = (blocked, [(1, 1, [0, 2, 4, 6]), (2, 2, [0, 2, 4])])
    return cases


DENSE_REFERENCE_CASES = dense_reference_cases()


class TestDenseContraction:
    """The dense route traces the gap sites out of rho instead of building a (x) 1 (x) b."""

    @pytest.mark.parametrize("name", sorted(DENSE_REFERENCE_CASES))
    def test_matches_padded_operator(self, name):
        source, shapes = DENSE_REFERENCE_CASES[name]
        d = source.site_dim
        for ma, mb, gaps in shapes:
            a = ss.random_observable(ma, seed=70 + ma, site_dim=d)
            b = ss.random_observable(mb, seed=75 + mb, site_dim=d)
            got = ss.source_correlation(source, a, b, gaps, "dense")
            want = np.array([kron_correlation(source, a, b, gap) for gap in gaps])
            assert np.max(np.abs(got - want)) <= 1e-13, (ma, mb)

    def test_allocates_no_padded_operator(self):
        source = make_fleet()["aperiodic"]
        a, b = ss.random_observable(1, seed=71), ss.random_observable(1, seed=72)
        source.density(10)  # side 2**10, built and kept before the measurement
        tracemalloc.start()
        try:
            ss.source_correlation(source, a, b, [8], "dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2**10) ** 2 * 16 / 4


def full_rho_correlation(source, a, b, gaps) -> np.ndarray:
    """The full-rho reference: for each gap build rho_{a+gap+b}, trace the gap sites out of it
    and pair the two-block state with a and b.  On a chain of k-site blocks, a is padded on the
    right and b on the left to whole blocks first, and where the two then share a block, rho is
    paired with a (x) I^gap (x) b."""
    span = source.span
    pad_a, pad_b = -a.sites % span, -b.sites % span
    whole_a, whole_b = ss.embed_observable(a, 0, pad_a), ss.embed_observable(b, pad_b, 0)
    out = np.empty(len(gaps), dtype=complex)
    for idx, gap in enumerate(gaps):
        if gap < pad_a + pad_b:
            out[idx] = kron_correlation(source, a, b, gap)
            continue
        rho = source.density(a.sites + gap + b.sites).entries
        g = source.site_dim ** (gap - pad_a - pad_b)
        pair = np.einsum("agbcgd->abcd", rho.reshape(whole_a.dim, g, whole_b.dim, whole_a.dim, g, whole_b.dim))
        out[idx] = np.einsum("abcd,ca,db->", pair, whole_a.entries, whole_b.entries)
    return out


def bitwise_equal(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


class TestChainPairs:
    """A chain source's dense correlations form only rho's gap-diagonal entries, by the same
    products and sums as rho does, so they are bitwise the full-rho route's."""

    @pytest.mark.parametrize("name", sorted(DENSE_REFERENCE_CASES))
    def test_bitwise_full_rho(self, name):
        source, shapes = DENSE_REFERENCE_CASES[name]
        d = source.site_dim
        for ma, mb, gaps in shapes:
            gaps = list(gaps)
            gaps = gaps[1::2] + gaps[::2] + [0, gaps[1]]  # unsorted, 0 twice, one more repeat
            a = ss.random_observable(ma, seed=80 + ma, site_dim=d)
            b = ss.random_observable(mb, seed=85 + mb, site_dim=d)
            got = ss.source_correlation(source, a, b, gaps, "dense")
            assert bitwise_equal(got, full_rho_correlation(source, a, b, gaps)), (ma, mb, gaps)

    @pytest.mark.parametrize("name", ["nested_mixture", "d3"])
    def test_bitwise_full_rho_with_three_terms_in_each_sum(self, name):
        # with two hidden states the order of a sum's terms cannot show; these chains have more
        source = KERNEL_SOURCES[name][0]()
        d = source.site_dim
        for ma, mb in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            gaps = [2, 0, 1, 2] if d == 2 or ma + mb < 4 else [1, 0, 1]
            a = ss.random_observable(ma, seed=90 + ma, site_dim=d)
            b = ss.random_observable(mb, seed=95 + mb, site_dim=d)
            got = ss.source_correlation(source, a, b, gaps, "dense")
            assert bitwise_equal(got, full_rho_correlation(source, a, b, gaps)), (ma, mb, gaps)

    def test_builds_no_state(self, builds):
        src = cache_sources()["transformed"]
        a, b = ss.random_observable(2, seed=63), ss.random_observable(1, seed=64)
        got = ss.source_correlation(src, a, b, [3, 0, 3, 1], "dense")
        assert builds == []
        assert bitwise_equal(got, full_rho_correlation(src, a, b, [3, 0, 3, 1]))

    def test_block_chain_builds_only_the_shared_block_state(self, builds):
        # one-site a and b at gap 0 share a two-site block, whose value is the block mean over rho_2
        src = cache_sources()["blocked"]
        a, b = ss.random_observable(1, seed=65), ss.random_observable(1, seed=66)
        got = ss.source_correlation(src, a, b, [4, 0, 2, 4], "dense")
        assert [m for s, m in builds if s is src] == [2]
        assert bitwise_equal(got, full_rho_correlation(src, a, b, [4, 0, 2, 4]))
        old = [kron_correlation(src.base, a, b, gap, src.channel) for gap in [4, 0, 2, 4]]
        assert np.max(np.abs(got - old)) <= 1e-14


def kernel_sources() -> dict:
    """name -> (factory of a fresh source with nothing built, the site counts it has states for):
    iid, a nested mixture, channel-transformed chains at site dim 2 and 3, and a two-site
    block channel."""
    a_proc = ss.MarkovProcess(APERIODIC_T)
    nested = ss.MixtureProcess([0.5, 0.5], (ss.MixtureProcess([0.5, 0.5], (a_proc, ss.IIDProcess([0.2, 0.8]))), a_proc))
    damping = ss.amplitude_damping_channel(0.4)
    # full-rank states, so three nonzero terms meet in every entry of the mixing sums
    d3_markov = ss.MarkovProcess([[0.37, 0.41, 0.22], [0.13, 0.58, 0.29], [0.31, 0.26, 0.43]])
    d3_noise = ss.depolarizing_channel(0.3, dim=3)
    return {
        "iid": (lambda: make_fleet()["iid"], range(1, 8)),
        "nested_mixture": (lambda: ss.ClassicallyCorrelatedSource(nested, ss.AlphabetSpec(NONORTHO)), range(1, 8)),
        "transformed": (lambda: ss.channel_transform_source(make_fleet()["mixture"], damping), range(1, 8)),
        "d3": (
            lambda: ss.channel_transform_source(ss.ClassicallyCorrelatedSource(d3_markov, ss.AlphabetSpec(NONORTHO3)), d3_noise),
            range(1, 5),
        ),
        "blocked": (lambda: ss.channel_transform_source(make_fleet()["aperiodic"], tensor_power(damping, 2)), range(2, 8, 2)),
    }


KERNEL_SOURCES = kernel_sources()
BUILD_ORDERS = {
    "ascending": lambda counts: list(counts),
    "descending": lambda counts: list(counts)[::-1],
    # every other count, stepping two sites at a time from the kept blocks, then the rest from scratch
    "skipping": lambda counts: list(counts)[1::2] + list(counts)[::2],
    "repeated": lambda counts: [counts[-2], counts[-2], counts[0], counts[-1], counts[-1], counts[0]],
}


def kron_loop_density(source, blocks: int) -> np.ndarray:
    """The reference loop over a source's hidden chain and states: T_1(h) = S_h,
    T_j(h) = kron(S_h, sum_g P[h, g] T_{j-1}(g)) by one np.kron per hidden state,
    and rho over j blocks = sum_h initial(h) T_j(h)."""
    hidden, states = source.hidden, source.states
    terms = list(states)
    for _ in range(blocks - 1):
        mixed = [sum(w * t for w, t in zip(row, terms)) for row in hidden.transition]
        terms = [np.kron(s, m) for s, m in zip(states, mixed)]
    return sum(q * t for q, t in zip(hidden.initial, terms))


class TestIncrementalBuild:
    """rho_m stepped from the kept blocks of an earlier build is bitwise the state built cold,
    and both are bitwise the reference loop's."""

    @pytest.mark.parametrize("name", sorted(KERNEL_SOURCES))
    def test_ascending_builds_match_the_kron_loop(self, name):
        make, counts = KERNEL_SOURCES[name]
        src = make()
        for m in counts:
            got = src.density(m).entries
            assert got.tobytes() == kron_loop_density(src, m // src.span).tobytes(), m
            if src.span > 1:  # the channel on the base chain's state, through the Kraus layer
                old = ss.apply_channel(src.channel, ss.Operator(kron_loop_density(src.base, m), m, src.site_dim))
                assert np.max(np.abs(got - old.entries)) <= 1e-14, m

    @pytest.mark.parametrize("order", sorted(BUILD_ORDERS))
    @pytest.mark.parametrize("name", sorted(KERNEL_SOURCES))
    def test_warm_build_is_bitwise_cold(self, name, order):
        make, counts = KERNEL_SOURCES[name]
        cold = {m: make().density(m).entries.tobytes() for m in counts}
        src = make()
        for m in BUILD_ORDERS[order](counts):
            assert src.density(m).entries.tobytes() == cold[m], m

    def test_chain_source_keeps_the_blocks_one_site_short(self):
        src = KERNEL_SOURCES["transformed"][0]()
        src.density(5)
        level, mixed = src.__dict__["_blocks"]
        assert level == 4 and mixed.shape == (len(src.hidden.initial), 2**4, 2**4)
        src.density(2)
        assert src.__dict__["_blocks"][0] == 1

    def test_site_count_zero_keeps_nothing(self):
        make = KERNEL_SOURCES["nested_mixture"][0]
        src = make()
        src.density(3)
        kept = src.__dict__["_blocks"]
        with pytest.raises(ValueError, match="site count must be >= 1"):
            src.density(0)
        assert 0 not in src.__dict__["_densities"] and src.__dict__["_blocks"] is kept
        assert src.density(5).entries.tobytes() == make().density(5).entries.tobytes()

    def test_cap_lowered_after_a_warm_build_keeps_nothing(self, monkeypatch):
        make = KERNEL_SOURCES["transformed"][0]
        src = make()
        src.density(3)
        kept = src.__dict__["_blocks"]
        monkeypatch.setenv(ss.operators.DENSE_CAP_ENV, "4")
        for m in (3, 5):
            with pytest.raises(CapExceededError):
                src.density(m)
        assert sorted(src.__dict__["_densities"]) == [3] and src.__dict__["_blocks"] is kept
        monkeypatch.delenv(ss.operators.DENSE_CAP_ENV)
        assert src.density(5).entries.tobytes() == make().density(5).entries.tobytes()

    def test_misaligned_blocked_build_keeps_nothing(self):
        make = KERNEL_SOURCES["blocked"][0]
        src = make()
        src.density(4)
        kept = src.__dict__["_blocks"]
        assert kept[0] == 1 and kept[1].shape == (len(src.hidden.initial), 4, 4)
        with pytest.raises(AlignmentError):
            src.density(3)
        assert sorted(src.__dict__["_densities"]) == [4] and src.__dict__["_blocks"] is kept
        assert src.density(6).entries.tobytes() == make().density(6).entries.tobytes()


class TestLibraryStates:
    """Every library state is read-only; a chain's are frozen as built, not checked again."""

    @pytest.mark.parametrize("name", sorted(KERNEL_SOURCES))
    def test_library_densities_are_read_only(self, name):
        make, counts = KERNEL_SOURCES[name]
        src = make()
        for m in counts:
            rho = src.density(m).entries
            assert not rho.flags.writeable, m
            with pytest.raises(ValueError):
                rho[0, 0] = 1.0

    @pytest.mark.parametrize("name", ["iid", "nested_mixture", "transformed", "d3", "blocked"])
    def test_chain_densities_skip_the_checked_constructor(self, name, monkeypatch):
        make, counts = KERNEL_SOURCES[name]
        src = make()
        assert src.states is not None  # building the states checks a channel's images, once
        checked = []
        post_init = ss.Operator.__post_init__
        monkeypatch.setattr(ss.Operator, "__post_init__", lambda op: checked.append(op) or post_init(op))
        for m in counts:
            src.density(m)
        assert checked == []


class TestBooleanCounts:
    """A bool is an int to Python, but never a site count or a block length."""

    @pytest.mark.parametrize("name", ["iid", "correlated", "transformed", "blocked"])
    def test_density_rejects_bool_cold_or_warm(self, name):
        src = cache_sources()[name]
        for _ in range(2):
            for flag in (True, False):
                with pytest.raises(TypeError, match="site count must be an integer, not a boolean"):
                    src.density(flag)
            src.density(2)
        assert sorted(src.__dict__["_densities"]) == [2]

    @pytest.mark.parametrize("check", [ss.check_consistency, ss.check_stationarity])
    @pytest.mark.parametrize(
        "args, what", [((True,), "max_sites"), ((4, True), "block"), ((False, 1), "max_sites"), ((4, False), "block")]
    )
    def test_checks_reject_bool_counts(self, fleet, check, args, what):
        with pytest.raises(TypeError, match=f"{what} must be an integer, not a boolean"):
            check(fleet["iid"], *args)
