"""Classical processes: word measures, correlations, and the exact classifier."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinsource as ss
from spinsource.errors import CapExceededError, ShapeMismatchError

APERIODIC_T = np.array([[0.9, 0.1], [0.2, 0.8]])
PERIOD2_T = np.array([[0.0, 1.0], [1.0, 0.0]])


def forward_probability(process, word):
    """Pr(word) as the forward product initial D(w_1) T D(w_2) .. T D(w_m) 1, one symbol at a
    time: an oracle for marginal_table, which builds every word of a length at once."""
    hidden, emission = process.hidden, process.emission
    v = hidden.initial * emission[:, word[0]]
    for s in word[1:]:
        v = (v @ hidden.transition) * emission[:, s]
    return float(v.sum())


def lift(process):
    """The diagonal lift of a process: the source whose states carry its word measure."""
    return ss.construct_classically_correlated(process, ss.computational_alphabet(process.alphabet_size))


def brute_correlation(process, f, g, gap):
    """Oracle: enumerate every word of length mf + gap + mg."""
    f, g = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
    mf, mg = f.ndim, g.ndim
    total = 0.0 + 0j
    for word in itertools.product(range(process.alphabet_size), repeat=mf + gap + mg):
        total += (
            forward_probability(process, word)
            * f[word[:mf]]
            * g[word[mf + gap :]]
        )
    return total


class TestStationaryDistribution:
    def test_aperiodic(self):
        pi, unique = ss.stationary_distribution(APERIODIC_T)
        assert unique
        assert np.allclose(pi, [2 / 3, 1 / 3], atol=1e-12)

    def test_period2(self):
        pi, unique = ss.stationary_distribution(PERIOD2_T)
        assert unique and np.allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_reducible_not_unique(self):
        _, unique = ss.stationary_distribution(np.eye(2))
        assert not unique

    def test_markov_defaults_to_stationary(self):
        chain = ss.MarkovProcess(APERIODIC_T)
        assert chain.is_stationary()
        assert np.allclose(chain.initial, [2 / 3, 1 / 3], atol=1e-12)


class TestWordProbabilities:
    def test_markov_word(self):
        chain = ss.MarkovProcess(APERIODIC_T)
        assert ss.marginal_table(chain, 2)[0, 1] == pytest.approx(1 / 15, abs=1e-12)

    def test_mixture_word(self):
        mix = ss.MixtureProcess(
            [0.5, 0.5], (ss.IIDProcess([0.9, 0.1]), ss.IIDProcess([0.1, 0.9]))
        )
        assert ss.marginal_table(mix, 2)[0, 0] == pytest.approx(0.41, abs=1e-12)

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_marginal_table_matches_word_probability(self, length):
        chain = ss.MarkovProcess(APERIODIC_T)
        table = ss.marginal_table(chain, length)
        for word in itertools.product(range(2), repeat=length):
            assert table[word] == pytest.approx(forward_probability(chain, word), abs=1e-12)

    def test_tables_sum_to_one(self):
        mix = ss.MixtureProcess(
            [0.3, 0.7], (ss.MarkovProcess(APERIODIC_T), ss.IIDProcess([0.5, 0.5]))
        )
        for length in range(1, 5):
            assert ss.marginal_table(mix, length).sum() == pytest.approx(1.0, abs=1e-12)

    def test_word_cap(self):
        with pytest.raises(CapExceededError):
            ss.marginal_table(ss.IIDProcess([0.5, 0.5]), 25)

    def test_word_cap_counts_hidden_states(self, monkeypatch):
        # the table behind marginal_table holds 2**6 words by n hidden end states
        monkeypatch.setattr(ss.classical, "WORD_ENUMERATION_CAP", 1000)

        def mixture(n):
            return ss.MixtureProcess(np.full(n, 1 / n), tuple(ss.IIDProcess([0.5, 0.5]) for _ in range(n)))

        assert ss.marginal_table(mixture(15), 6).sum() == pytest.approx(1.0, abs=1e-12)  # 64 * 15 = 960
        with pytest.raises(CapExceededError):
            ss.marginal_table(mixture(16), 6)  # 64 * 16 = 1024


class TestConsistency:
    @pytest.mark.parametrize(
        "process",
        [
            ss.IIDProcess([0.8, 0.2]),
            ss.MarkovProcess(APERIODIC_T),
            ss.MarkovProcess(PERIOD2_T),
            ss.MixtureProcess([0.5, 0.5], (ss.IIDProcess([0.9, 0.1]), ss.IIDProcess([0.1, 0.9]))),
        ],
    )
    def test_stationary_processes_pass(self, process):
        source = lift(process)
        assert ss.check_consistency(source, 5).passed and ss.check_stationarity(source, 5).passed

    def test_nonstationary_start_fails_left_only(self):
        source = lift(ss.MarkovProcess(APERIODIC_T, initial=[1.0, 0.0]))
        assert ss.check_consistency(source, 4).passed
        report = ss.check_stationarity(source, 4)
        assert not report.passed
        assert report.worst_deviation > 1e-2

    def test_tampered_table_fails(self):
        class Tampered:
            """The lifted chain with mass 0.05 moved from word (0, 0) to (0, 1) in rho_2 only."""

            site_dim = 2

            def __init__(self, base):
                self.base = base

            def density(self, sites):
                rho = self.base.density(sites)
                if sites != 2:
                    return rho
                entries = np.array(rho.entries)
                entries[0, 0] -= 0.05
                entries[1, 1] += 0.05
                return ss.Operator(entries, 2, 2)

        report = ss.check_consistency(Tampered(lift(ss.MarkovProcess(APERIODIC_T))), 3)
        assert not report.passed
        # rho_2 still reduces to rho_1, so only rho_3 against rho_2 sees the move
        assert report.worst_pair == (2, 1)
        assert report.worst_deviation == pytest.approx(0.05, abs=1e-12)

    @given(st.integers(2, 3), st.integers(0, 2**32 - 1), st.none() | st.floats(-6, -1))
    @settings(max_examples=60)
    def test_stationarity_check_is_the_stationary_law(self, n, seed, log_eps):
        """The lift of a random Markov chain passes check_stationarity iff its initial law
        is stationary, max|pi P - pi| <= 1e-9; the law is either the stationary one or
        moved off it by a share 10**log_eps toward a random law."""
        rng = np.random.default_rng(seed)
        transition = rng.dirichlet(np.ones(n), size=n) * (rng.random((n, n)) < 0.7)
        transition[np.arange(n), rng.integers(0, n, size=n)] += 1e-3  # no empty row
        transition /= transition.sum(axis=1, keepdims=True)
        initial = ss.stationary_distribution(transition)[0]
        if log_eps is not None:
            eps = 10.0**log_eps
            initial = (1 - eps) * initial + eps * rng.dirichlet(np.ones(n))
            initial /= initial.sum()
        process = ss.MarkovProcess(transition, initial)
        stationary = np.max(np.abs(process.initial @ process.transition - process.initial)) <= 1e-9
        assert ss.check_stationarity(lift(process)).passed == stationary
        assert ss.check_consistency(lift(process)).passed


class TestCorrelation:
    def test_aperiodic_indicator_decay(self):
        # corr(gap) - target = pi0 * pi1 * lambda2^(gap+1) = (2/9) 0.7^(gap+1)
        chain = ss.MarkovProcess(APERIODIC_T)
        f = np.array([1.0, 0.0])
        target = 4 / 9
        for gap, corr in enumerate(ss.classical_correlation_sweep(chain, f, f, range(6))):
            assert corr.real - target == pytest.approx((2 / 9) * 0.7 ** (gap + 1), abs=1e-12)

    def test_period2_indicator(self):
        chain = ss.MarkovProcess(PERIOD2_T)
        f = np.array([1.0, 0.0])
        for gap, corr in enumerate(ss.classical_correlation_sweep(chain, f, f, range(6))):
            expected = 0.5 if gap % 2 == 1 else 0.0
            assert corr.real == pytest.approx(expected)

    def test_mixture_indicator_constant(self):
        mix = ss.MixtureProcess(
            [0.5, 0.5], (ss.IIDProcess([0.9, 0.1]), ss.IIDProcess([0.1, 0.9]))
        )
        f = np.array([1.0, 0.0])
        sweep = ss.classical_correlation_sweep(mix, f, f, range(5))
        assert np.allclose(sweep, 0.41, atol=1e-12)

    def test_iid_factorizes(self):
        iid = ss.IIDProcess([0.3, 0.7])
        f = np.array([2.0, -1.0])
        g = np.array([[0.5, 1.5], [2.5, -0.5]])
        sweep = ss.classical_correlation_sweep(iid, f, g, range(4))
        expected = np.sum(ss.marginal_table(iid, 1) * f) * np.sum(ss.marginal_table(iid, 2) * g)
        assert np.allclose(sweep, expected, atol=1e-12)

    @pytest.mark.parametrize("gap", [0, 1, 3])
    @pytest.mark.parametrize("mf,mg", [(1, 1), (2, 1), (2, 2)])
    def test_matches_brute_force(self, gap, mf, mg):
        chain = ss.MarkovProcess(APERIODIC_T)
        rng = np.random.default_rng(5 * gap + mf + 10 * mg)
        f = rng.standard_normal((2,) * mf) + 1j * rng.standard_normal((2,) * mf)
        g = rng.standard_normal((2,) * mg) + 1j * rng.standard_normal((2,) * mg)
        got = ss.classical_correlation_sweep(chain, f, g, [gap])[0]
        assert got == pytest.approx(brute_correlation(chain, f, g, gap), abs=1e-12)

    def test_mixture_matches_brute_force(self):
        mix = ss.MixtureProcess(
            [0.4, 0.6], (ss.MarkovProcess(APERIODIC_T), ss.IIDProcess([0.2, 0.8]))
        )
        f = np.array([[1.0, 0.0], [0.0, -1.0]])
        got = ss.classical_correlation_sweep(mix, f, f, [2])[0]
        assert got == pytest.approx(brute_correlation(mix, f, f, 2), abs=1e-12)

    def test_block_mean(self):
        # the lift's mean of the projector on symbol 0 is the symbol's stationary weight
        source = lift(ss.MarkovProcess(APERIODIC_T))
        assert ss.source_block_mean(source, ss.word_projector((0,))) == pytest.approx(2 / 3, abs=1e-12)

    def test_table_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            ss.classical_correlation_sweep(ss.IIDProcess([0.5, 0.5]), np.ones((2, 3)), np.ones(2), [0])

    @pytest.mark.parametrize("gaps", [[0.7, 2.9], [True], [0, False], np.array([1.5]), np.array([True])])
    def test_sweep_rejects_non_integer_gaps(self, gaps):
        with pytest.raises(ValueError, match="gaps must be integers"):
            ss.classical_correlation_sweep(ss.MarkovProcess(APERIODIC_T), [1.0, 0.0], [1.0, 0.0], gaps)

    def test_sweep_takes_empty_and_integer_array_gaps(self):
        chain, f = ss.MarkovProcess(APERIODIC_T), [1.0, 0.0]
        assert ss.classical_correlation_sweep(chain, f, f, []).shape == (0,)
        out = ss.classical_correlation_sweep(chain, f, f, np.array([3, 0], dtype=np.int32))
        assert np.array_equal(out, ss.classical_correlation_sweep(chain, f, f, [3, 0]))

    @given(st.integers(0, 30))
    def test_sweep_matches_pointwise(self, gap):
        chain = ss.MarkovProcess(APERIODIC_T)
        f = np.array([0.25, 1.5])
        sweep = ss.classical_correlation_sweep(chain, f, f, [gap])
        assert sweep[0] == pytest.approx(_stepped_sweep(chain, f, f, [gap])[0])


class TestClassifier:
    def test_iid(self):
        report = ss.classify_process(ss.IIDProcess([0.8, 0.2]))
        assert report.verdicts == (True, True, True) and report.period == 1

    def test_aperiodic(self):
        report = ss.classify_process(ss.MarkovProcess(APERIODIC_T))
        assert report.verdicts == (True, True, True)
        assert report.irreducible and report.period == 1 and report.stationary

    def test_period2(self):
        report = ss.classify_process(ss.MarkovProcess(PERIOD2_T))
        assert report.verdicts == (True, False, False)
        assert report.period == 2 and report.unique_stationary

    def test_period3_cycle(self):
        cycle = np.roll(np.eye(3), 1, axis=1)
        report = ss.classify_process(ss.MarkovProcess(cycle))
        assert report.period == 3 and report.verdicts == (True, False, False)

    def test_distinct_mixture(self):
        mix = ss.MixtureProcess(
            [0.5, 0.5], (ss.IIDProcess([0.9, 0.1]), ss.IIDProcess([0.1, 0.9]))
        )
        assert ss.classify_process(mix).verdicts == (False, False, False)

    def test_degenerate_mixture_inherits(self):
        same = ss.MixtureProcess(
            [0.5, 0.5], (ss.IIDProcess([0.8, 0.2]), ss.IIDProcess([0.8, 0.2]))
        )
        assert ss.classify_process(same).verdicts == (True, True, True)

    def test_reducible_chain(self):
        chain = ss.MarkovProcess(np.eye(2), initial=[0.5, 0.5])
        report = ss.classify_process(chain)
        assert report.verdicts == (False, False, False)
        assert not report.irreducible and not report.unique_stationary

    def test_transient_state_ignored(self):
        # absorbing state 0; stationary support is {0}, which mixes trivially
        chain = ss.MarkovProcess(np.array([[1.0, 0.0], [0.5, 0.5]]))
        report = ss.classify_process(chain)
        assert report.verdicts == (True, True, True)

    def test_nonstationary_start_flagged(self):
        chain = ss.MarkovProcess(APERIODIC_T, initial=[1.0, 0.0])
        report = ss.classify_process(chain)
        assert not report.stationary and report.verdicts == (True, True, True)


# full ClassificationReport tuples: (kind, stationary, irreducible, period,
# unique_stationary, ergodic_mean, weak_mixing, strong_mixing)
PINNED_CLASSIFICATIONS = {
    "iid_zero_prob": (
        ss.IIDProcess([0.7, 0.0, 0.3]),
        ("iid", True, True, 1, True, True, True, True),
    ),
    "markov_positive": (
        ss.MarkovProcess(APERIODIC_T),
        ("markov", True, True, 1, True, True, True, True),
    ),
    "markov_sparse": (
        ss.MarkovProcess([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.3, 0.7]]),
        ("markov", True, True, 1, True, True, True, True),
    ),
    "markov_cyclic3": (
        ss.MarkovProcess(np.roll(np.eye(3), 1, axis=1)),
        ("markov", True, True, 3, True, True, False, False),
    ),
    "markov_reducible": (
        ss.MarkovProcess(np.eye(2), initial=[0.5, 0.5]),
        ("markov", True, False, 0, False, False, False, False),
    ),
    "markov_transient": (
        ss.MarkovProcess([[1.0, 0.0], [0.5, 0.5]]),
        ("markov", True, True, 1, True, True, True, True),
    ),
    "markov_nonstationary": (
        ss.MarkovProcess(APERIODIC_T, initial=[1.0, 0.0]),
        ("markov", False, True, 1, True, True, True, True),
    ),
    "mixture_identical": (
        ss.MixtureProcess([0.3, 0.7], (ss.IIDProcess([0.8, 0.2]), ss.IIDProcess([0.8, 0.2]))),
        ("mixture", True, True, 1, True, True, True, True),
    ),
    "mixture_distinct": (
        ss.MixtureProcess([0.4, 0.6], (ss.MarkovProcess(APERIODIC_T), ss.IIDProcess([0.2, 0.8]))),
        ("mixture", True, False, 0, False, False, False, False),
    ),
    # the zero-weight period-2 component is still a closed class of the
    # hidden chain with other statistics, so the stationary law is not unique
    "mixture_zero_weight": (
        ss.MixtureProcess([1.0, 0.0], (ss.IIDProcess([0.5, 0.5]), ss.MarkovProcess(PERIOD2_T))),
        ("mixture", True, True, 1, False, True, True, True),
    ),
    "mixture_identical_cyclic": (
        ss.MixtureProcess([0.5, 0.5], (ss.MarkovProcess(PERIOD2_T), ss.MarkovProcess(PERIOD2_T))),
        ("mixture", True, True, 2, True, True, False, False),
    ),
    "mixture_identical_reducible": (
        ss.MixtureProcess(
            [0.5, 0.5],
            (
                ss.MarkovProcess(np.eye(2), initial=[0.5, 0.5]),
                ss.MarkovProcess(np.eye(2), initial=[0.5, 0.5]),
            ),
        ),
        ("mixture", True, False, 0, False, False, False, False),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CLASSIFICATIONS))
def test_pinned_classification(name):
    process, expected = PINNED_CLASSIFICATIONS[name]
    assert dataclasses.astuple(ss.classify_process(process)) == expected


class TestEarlyExit:
    """Long sweeps stop propagating at a bitwise fixed point; values must not move."""

    @pytest.mark.parametrize(
        "process",
        [
            ss.MixtureProcess([0.3, 0.7], (ss.IIDProcess([0.9, 0.1]), ss.IIDProcess([0.2, 0.8]))),
            ss.MarkovProcess(APERIODIC_T),
            ss.MarkovProcess(PERIOD2_T),
        ],
        ids=["iid_mixture", "aperiodic", "period2"],
    )
    def test_long_sweep_equals_pointwise(self, process):
        f = np.array([0.25 + 1j, 1.5])
        g = np.array([[1.0, -2.0], [0.5j, 0.75]])
        gaps = list(range(400))
        sweep = ss.classical_correlation_sweep(process, f, g, gaps)
        for gap in (0, 1, 63, 64, 65, 128, 129, 200, 257, 399):
            assert sweep[gap] == ss.classical_correlation_sweep(process, f, g, [gap])[0]
        backwards = ss.classical_correlation_sweep(process, f, g, gaps[::-1])
        assert np.array_equal(backwards, sweep[::-1])
        # shuffled and repeated gaps on both sides of the settle checks at 64 and 128
        mixed = [399, 0, 64, 64, 200, 63, 399, 1, 129, 128, 127]
        pointwise = np.array([ss.classical_correlation_sweep(process, f, g, [gap])[0] for gap in mixed])
        shuffled = ss.classical_correlation_sweep(process, f, g, mixed)
        assert shuffled.tobytes() == pointwise.tobytes()
        # every accepted form of the same gaps gives the same array
        source = ss.ClassicallyCorrelatedSource(process, ss.AlphabetSpec(np.eye(2)))
        a, b = ss.random_observable(1, seed=3), ss.random_observable(2, seed=4)
        spans = range(0, 400, 7)
        forms = (list(spans), spans, np.arange(0, 400, 7), (gap for gap in spans))
        first, *rest = (ss.source_correlation(source, a, b, form, "transfer") for form in forms)
        for other in rest:
            assert other.tobytes() == first.tobytes()


def _stepped_sweep(process, f, g, gaps):
    """Reference for classical_correlation_sweep: u T^(gap+1) h with one step per gap, no fill."""
    f, g = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
    hidden, e = process.hidden, process.emission
    p = hidden.transition.astype(complex)
    n = p.shape[0]
    u = (ss.classical._hidden_table(hidden, e, f.ndim) * f[..., None]).reshape(-1, n).sum(axis=0)
    h = np.einsum("...z,hz->...h", g, e)
    for _ in range(g.ndim - 1):
        h = np.einsum("...zh,hz->...h", h @ p.T, e)
    values = []
    v = u
    for _ in range(max(gaps, default=-1) + 1):
        v = v @ p
        values.append(v @ h)
    return np.array([values[gap] for gap in gaps], dtype=complex)


def _cycle(n):
    return np.roll(np.eye(n), 1, axis=1)


CYCLE_FILL_PROCESSES = {
    "period2": ss.MarkovProcess(PERIOD2_T),
    "period3": ss.MarkovProcess(_cycle(3)),
    "period4": ss.MarkovProcess(_cycle(4)),
    # weighted period 2 between {0, 1} and {2, 3}: only roundoff can make its tail exactly periodic
    "bipartite": ss.MarkovProcess(
        [[0, 0, 0.3, 0.7], [0, 0, 0.6, 0.4], [0.5, 0.5, 0, 0], [0.2, 0.8, 0, 0]]
    ),
    # state 2 is transient and drains into the period-2 class {0, 1}, reaching it exactly after underflow
    "reducible": ss.MarkovProcess([[0, 1, 0], [1, 0, 0], [0.5, 0, 0.5]], [0.2, 0.3, 0.5]),
    "aperiodic": ss.MarkovProcess(APERIODIC_T),
    "iid_mixture": ss.MixtureProcess(
        [0.3, 0.7], (ss.IIDProcess([0.9, 0.1]), ss.IIDProcess([0.2, 0.8]))
    ),
}
_SHUFFLED = np.random.default_rng(17).integers(0, 700, size=400).tolist()
CYCLE_FILL_GAPS = {
    "sorted": list(range(700)),
    "reversed": list(range(700))[::-1],
    "shuffled_repeats": _SHUFFLED + _SHUFFLED[:50],
    "before_first_match": [1, 0],
    "zero_only": [0],
    "one_long": [20000],
    "empty": [],
}


class TestCycleFill:
    """Settled and periodic tails are filled with the bits plain stepping gives."""

    @pytest.mark.parametrize("gaps", CYCLE_FILL_GAPS.values(), ids=CYCLE_FILL_GAPS.keys())
    @pytest.mark.parametrize(
        "process", CYCLE_FILL_PROCESSES.values(), ids=CYCLE_FILL_PROCESSES.keys()
    )
    def test_fill_equals_stepping_bitwise(self, process, gaps):
        k = process.alphabet_size
        rng = np.random.default_rng(k)
        f = rng.normal(size=k) + 1j * rng.normal(size=k)
        g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        out = ss.classical_correlation_sweep(process, f, g, gaps)
        reference = _stepped_sweep(process, f, g, gaps)
        assert np.array_equal(out, reference)
        assert out.tobytes() == reference.tobytes()

    def test_period_two_alternates_forever(self):
        process = CYCLE_FILL_PROCESSES["period2"]
        gaps = [20000, 19999, 0, 1, 12345]
        out = ss.classical_correlation_sweep(process, [1.0, 0.0], [1.0, 0.0], gaps)
        assert out.tolist() == [0.0, 0.5, 0.0, 0.5, 0.5]


class TestProcessValidation:
    def test_bad_probs(self):
        with pytest.raises(ValueError):
            ss.IIDProcess([0.7, 0.7])

    def test_bad_rows(self):
        with pytest.raises(ValueError):
            ss.MarkovProcess([[0.5, 0.6], [0.5, 0.5]])

    def test_negative_entry(self):
        with pytest.raises(ValueError):
            ss.MarkovProcess([[1.2, -0.2], [0.5, 0.5]])

    def test_nested_mixture_equals_flattened(self):
        a, b, c = ss.MarkovProcess(APERIODIC_T), ss.IIDProcess([0.2, 0.8]), ss.MarkovProcess(PERIOD2_T)
        nested = ss.MixtureProcess([0.5, 0.5], (ss.MixtureProcess([0.5, 0.5], (a, b)), c))
        flat = ss.MixtureProcess([0.25, 0.25, 0.5], (a, b, c))
        for length in range(1, 5):
            assert np.array_equal(ss.marginal_table(nested, length), ss.marginal_table(flat, length))
        f = np.array([[1.0, -0.5j], [0.25, 2.0]])
        gaps = [7, 0, 3, 150]
        assert np.array_equal(
            ss.classical_correlation_sweep(nested, f, f, gaps),
            ss.classical_correlation_sweep(flat, f, f, gaps),
        )
        assert ss.classify_process(nested) == ss.classify_process(flat)

    def test_non_process_component_rejected(self):
        with pytest.raises(TypeError):
            ss.MixtureProcess([1.0], ([0.5, 0.5],))

    def test_alphabet_size_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ss.MixtureProcess(
                [0.5, 0.5], (ss.IIDProcess([0.5, 0.5]), ss.IIDProcess([1 / 3] * 3))
            )

    @pytest.mark.parametrize("initial", [None, [1.0, 0.0]])
    def test_markov_chain_shares_the_process_arrays(self, initial):
        p = ss.MarkovProcess(APERIODIC_T, initial=initial)
        assert p.hidden is p
        for process in (p, ss.IIDProcess([0.8, 0.2]), ss.MixtureProcess([0.5, 0.5], (p, p))):
            hidden = process.hidden
            assert isinstance(hidden, ss.MarkovProcess) and process.emission.shape == (hidden.initial.size, 2)
            assert not any(arr.flags.writeable for arr in (hidden.initial, hidden.transition, process.emission))
        assert not p.transition.flags.writeable and not p.initial.flags.writeable
