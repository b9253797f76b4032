"""Finite-alphabet classical processes: iid, Markov, and mixtures.

A process here is a shift-invariant (or deliberately not) measure on
one-sided symbol sequences.  Every process carries its hidden chain as a
MarkovProcess, ``hidden``, beside an (n, k) ``emission`` array, both built
at construction: a hidden state starts from ``hidden.initial``, steps with
the row-stochastic ``hidden.transition``, and emits each symbol from its
row of ``emission``.  A Markov process is its own hidden chain and emits
its state, an iid process has one hidden state, and a mixture joins its
components' chains block-diagonally.  Word probabilities, correlation
sweeps and the analytic ergodicity classifier are written once against
that form.  A process's consistency and stationarity are checked on its
diagonal lift, construct_classically_correlated(process,
computational_alphabet(k)), by sources.check_consistency and
check_stationarity.  The classifier is the oracle for the numerical mixing
tests: for finite chains the three properties have clean structural
characterizations (Cesaro convergence needs every closed class the
process reaches to carry the same statistics, full mixing additionally
needs an aperiodic class).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, ShapeMismatchError

CONSISTENCY_TOL = 1e-9
STOCHASTIC_TOL = 1e-10
WORD_ENUMERATION_CAP = 10**6
_EIG_ONE_TOL = 1e-9
_EDGE_TOL = 1e-14
_SETTLE_CHECK = 64


def _check_word_cap(k: int, length: int, hidden: int) -> None:
    """A table of k**length words by ``hidden`` end states, as _hidden_table builds, fits the cap."""
    if k**length * hidden > WORD_ENUMERATION_CAP:
        raise CapExceededError(
            f"{k}**{length} words x {hidden} hidden states exceeds enumeration cap {WORD_ENUMERATION_CAP}",
            cap=WORD_ENUMERATION_CAP,
        )


def _probability_vector(p, what: str) -> np.ndarray:
    arr = np.array(p, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ShapeMismatchError(f"{what} must be a 1-d probability vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries")
    if np.any(arr < -STOCHASTIC_TOL):
        raise ValueError(f"{what} has negative entries")
    if abs(arr.sum() - 1.0) > STOCHASTIC_TOL:
        raise ValueError(f"{what} sums to {arr.sum()}, expected 1")
    arr = np.clip(arr, 0.0, None)
    arr.setflags(write=False)
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class _SymbolProcess:
    """Pr(w_1 .. w_m) = initial D(w_1) T D(w_2) ... T D(w_m) 1 with T = hidden.transition,
    initial = hidden.initial and D(x) = diag(emission[:, x])."""

    @property
    def alphabet_size(self) -> int:
        return self.emission.shape[1]


@dataclass(frozen=True, eq=False)
class IIDProcess(_SymbolProcess):
    """Independent identically distributed symbols with marginal ``probs``."""

    probs: np.ndarray
    hidden: MarkovProcess = field(init=False, repr=False)
    emission: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        probs = _probability_vector(self.probs, "iid marginal")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "hidden", _ONE_STATE)
        object.__setattr__(self, "emission", probs[None, :])  # a view of the read-only probs

    @property
    def kind(self) -> str:
        return "iid"


@dataclass(frozen=True, eq=False)
class MarkovProcess(_SymbolProcess):
    """Stationary-by-default Markov chain with row-stochastic ``transition``.

    ``initial`` defaults to a stationary distribution of the chain, which
    makes the process shift invariant.  A different initial distribution
    is allowed and yields a non-stationary process.
    """

    transition: np.ndarray
    initial: np.ndarray | None = None
    emission: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = np.array(self.transition, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ShapeMismatchError(f"transition must be square, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("transition matrix has non-finite entries")
        if np.any(p < -STOCHASTIC_TOL):
            raise ValueError("transition matrix has negative entries")
        row_dev = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
        if row_dev > STOCHASTIC_TOL:
            raise ValueError(f"transition rows must sum to 1, worst deviation {row_dev:.3e}")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "transition", p)
        if self.initial is None:
            pi, _ = stationary_distribution(p)
            object.__setattr__(self, "initial", pi)
        else:
            object.__setattr__(
                self, "initial", _probability_vector(self.initial, "initial distribution")
            )
        if self.initial.size != p.shape[0]:
            raise ShapeMismatchError("initial distribution size does not match transition")
        object.__setattr__(self, "emission", _read_only(np.eye(p.shape[0])))

    @property
    def hidden(self) -> MarkovProcess:
        return self  # a Markov process is its own hidden chain, emitting its state

    @property
    def kind(self) -> str:
        return "markov"

    def is_stationary(self, tol: float = CONSISTENCY_TOL) -> bool:
        return bool(np.max(np.abs(self.initial @ self.transition - self.initial)) <= tol)


@dataclass(frozen=True, eq=False)
class MixtureProcess(_SymbolProcess):
    """Convex combination of processes; components may themselves be mixtures.

    The hidden chain is the block-diagonal join of the components' chains
    with initial vector w_j initial_j, checked as any MarkovProcess is.
    """

    weights: np.ndarray
    components: tuple
    hidden: MarkovProcess = field(init=False, repr=False)
    emission: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "weights", _probability_vector(self.weights, "mixture weights")
        )
        comps = tuple(self.components)
        if len(comps) != self.weights.size:
            raise ShapeMismatchError("one weight per component required")
        if not all(isinstance(c, _SymbolProcess) for c in comps):
            raise TypeError("mixture components must be classical processes")
        sizes = sorted({c.alphabet_size for c in comps})
        if len(sizes) != 1:
            raise ShapeMismatchError(f"components disagree on alphabet size: {sizes}")
        object.__setattr__(self, "components", comps)
        chains = [c.hidden for c in comps]
        ends = np.cumsum([0] + [ch.initial.size for ch in chains])
        transition = np.zeros((ends[-1], ends[-1]))
        for ch, start, stop in zip(chains, ends, ends[1:]):
            transition[start:stop, start:stop] = ch.transition
        initial = np.concatenate([w * ch.initial for w, ch in zip(self.weights, chains)])
        object.__setattr__(self, "hidden", MarkovProcess(transition, initial))
        object.__setattr__(self, "emission", _read_only(np.vstack([c.emission for c in comps])))

    @property
    def kind(self) -> str:
        return "mixture"


_ONE_STATE = MarkovProcess([[1.0]], [1.0])  # the hidden chain of every iid process
ClassicalProcess = IIDProcess | MarkovProcess | MixtureProcess


def stationary_distribution(transition) -> tuple[np.ndarray, bool]:
    """A stationary distribution of a row-stochastic matrix and a uniqueness flag.

    Uniqueness is decided by the multiplicity of eigenvalue 1.  For a
    reducible chain with several closed classes the returned vector is one
    valid choice and the flag is False.
    """
    p = np.asarray(transition, dtype=float)
    vals, vecs = np.linalg.eig(p.T)
    close = np.where(np.abs(vals - 1.0) < _EIG_ONE_TOL)[0]
    if close.size == 0:
        raise ValueError("no eigenvalue 1; matrix is not stochastic")
    unique = close.size == 1
    v = np.real(vecs[:, close[0]])
    if v.sum() < 0:
        v = -v
    v = np.clip(v, 0.0, None)
    pi = v / v.sum()
    # polish with a few power iterations to wash out eig roundoff
    for _ in range(5):
        pi = pi @ p
    pi = pi / pi.sum()
    pi.setflags(write=False)
    return pi, bool(unique)


# ---------------------------------------------------------------------------
# word probabilities
# ---------------------------------------------------------------------------


def _hidden_table(hidden: MarkovProcess, emission: np.ndarray, length: int) -> np.ndarray:
    """Pr(w_1 .. w_length, h_length = h) as a (k,)*length + (n,) array."""
    table = (hidden.initial[:, None] * emission).T
    for _ in range(length - 1):
        table = (table @ hidden.transition)[..., None, :] * emission.T
    return table


def marginal_table(process: ClassicalProcess, length: int) -> np.ndarray:
    """All word probabilities of a given length as a (k,)*length array."""
    if length < 1:
        raise ValueError(f"word length must be >= 1, got {length}")
    _check_word_cap(process.alphabet_size, length, process.hidden.initial.size)
    return _hidden_table(process.hidden, process.emission, length).sum(axis=-1)


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


def _as_block_table(table, k: int, what: str) -> np.ndarray:
    arr = np.asarray(table, dtype=complex)
    if arr.ndim < 1 or arr.shape != (k,) * arr.ndim:
        raise ShapeMismatchError(
            f"{what} must have shape (k,)*m with k={k}, got {arr.shape}"
        )
    return arr


def _gap_array(gaps) -> np.ndarray:
    """gaps (a list, range, array or any iterable of integers) as int64, each >= 0.
    A float or bool gap raises rather than being truncated or read as 0 or 1."""
    if not isinstance(gaps, (np.ndarray, range)):
        gaps = list(gaps)
        if any(isinstance(g, (bool, np.bool_)) for g in gaps):  # numpy casts [1, True] to int
            raise ValueError("gaps must be integers, not booleans")
    arr = np.asarray(gaps)
    if arr.ndim != 1:
        raise ValueError("gaps must be a one-dimensional sequence")
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"gaps must be integers, got {arr.dtype} values")
    arr = arr.astype(np.int64, copy=False)
    if np.any(arr < 0):
        raise ValueError("gaps must be >= 0")
    return arr


def classical_correlation_sweep(process: ClassicalProcess, f_table, g_table, gaps) -> np.ndarray:
    """E[f(w_1..w_m) g(w_{m+gap+1}..w_{m+gap+m'})] for each gap, exactly.

    Tables may be complex valued and gaps may come in any order.  The
    value is u T^(gap+1) h through the hidden chain, where u carries the
    first block into its last hidden state and h folds the second block
    back to its first, so cost grows linearly in the largest gap and never
    enumerates long words.  A settled or periodic tail is filled exactly:
    every 64 steps u T^j is kept as a mark, and when one of the next n
    steps (n hidden states) reproduces the mark bitwise after q steps, the
    deterministic step repeats the same q vectors for ever, so each later
    gap takes the value its step had within that cycle.
    """
    gaps = _gap_array(gaps)
    k = process.alphabet_size
    f = _as_block_table(f_table, k, "first block function")
    g = _as_block_table(g_table, k, "second block function")
    hidden, e = process.hidden, process.emission
    p = hidden.transition.astype(complex)
    n = p.shape[0]
    u = (_hidden_table(hidden, e, f.ndim) * f[..., None]).reshape(-1, n).sum(axis=0)
    h = np.einsum("...z,hz->...h", g, e)
    for _ in range(g.ndim - 1):
        h = np.einsum("...zh,hz->...h", h @ p.T, e)
    out = np.empty(gaps.size, dtype=complex)
    order = np.argsort(gaps, kind="stable")
    v, step = u, -1  # v = u T^(step+1)
    mark, mark_step = None, 0
    for pos, (idx, gap) in enumerate(zip(order.tolist(), gaps[order].tolist())):
        while step < gap:
            v = v @ p
            step += 1
            if step % _SETTLE_CHECK == 0:
                mark, mark_step = v, step
            elif step - mark_step <= n and np.array_equal(v, mark):
                q = step - mark_step
                cycle = np.empty(q, dtype=complex)
                for j in range(q):
                    cycle[j] = mark @ h
                    mark = mark @ p
                rest = order[pos:]
                out[rest] = cycle[(gaps[rest] - mark_step) % q]
                return out
        out[idx] = v @ h
    return out


# ---------------------------------------------------------------------------
# analytic classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    """Structural facts and the exact ergodicity verdict triple for a process.

    The verdict fields describe the shift-invariant process the chain
    settles into (the closed classes it reaches, each run from its own
    stationary law); the ``stationary`` flag records whether the actual
    initial distribution already is stationary.
    """

    kind: str
    stationary: bool
    irreducible: bool
    period: int
    unique_stationary: bool
    ergodic_mean: bool
    weak_mixing: bool
    strong_mixing: bool

    @property
    def verdicts(self) -> tuple:
        return (self.ergodic_mean, self.weak_mixing, self.strong_mixing)


def _closed_classes(transition: np.ndarray) -> tuple:
    """(closed communicating classes as index arrays, reachability matrix)."""
    n = transition.shape[0]
    reach = (transition > _EDGE_TOL) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = (reach.astype(float) @ reach) > 0
    # a state is recurrent iff every state it reaches reaches it back; the
    # states a recurrent state reaches form its closed class
    recurrent = [i for i in range(n) if reach[reach[i], i].all()]
    classes = {tuple(np.flatnonzero(reach[i])) for i in recurrent}
    return [np.array(c) for c in sorted(classes)], reach


def _period(adj: np.ndarray) -> int:
    """Period of an irreducible chain: gcd over edges u->v of level(u) + 1 - level(v)."""
    level = np.full(adj.shape[0], -1)
    frontier = np.arange(adj.shape[0]) == 0
    depth = 0
    while frontier.any():
        level[frontier] = depth
        depth += 1
        frontier = adj[frontier].any(axis=0) & (level < 0)
    u, v = np.nonzero(adj)
    return int(np.gcd.reduce(level[u] + 1 - level[v]))


def _class_tables(process: ClassicalProcess, cls: np.ndarray, max_len: int = 3) -> list:
    """Word tables up to max_len of one closed class run from its stationary law."""
    sub = MarkovProcess(process.hidden.transition[np.ix_(cls, cls)])
    return [_hidden_table(sub, process.emission[cls], ell).sum(axis=-1) for ell in range(1, max_len + 1)]


def classify_process(process: ClassicalProcess) -> ClassificationReport:
    """Exact verdict triple (ergodic mean, weak mixing, strong mixing).

    The hidden chain decomposes into closed classes.  Cesaro averaging of
    correlations converges for every observable pair iff all the classes
    the process reaches carry the same symbol statistics (compared on word
    tables up to length 3); the two mixing notions additionally need one
    of those classes to be aperiodic (and coincide).  ``irreducible``
    reports that the reached classes are statistically one, ``period`` the
    smallest period among them (0 when not irreducible), and
    ``unique_stationary`` that every closed class of the hidden chain,
    reached or not, carries the same statistics.
    """
    hidden = process.hidden
    p = hidden.transition
    classes, reach = _closed_classes(p)
    tables = [_class_tables(process, c) for c in classes] if len(classes) > 1 else []

    def same(indices) -> bool:
        return all(
            np.allclose(t, t0, atol=1e-12)
            for i in indices[1:]
            for t, t0 in zip(tables[i], tables[indices[0]])
        )

    start = hidden.initial > 1e-12
    live = [j for j, c in enumerate(classes) if reach[np.ix_(start, c)].any()]
    ergodic = same(live)
    period = min(_period(p[np.ix_(classes[j], classes[j])] > _EDGE_TOL) for j in live) if ergodic else 0
    mixing = ergodic and period == 1
    return ClassificationReport(
        process.kind, hidden.is_stationary(), ergodic, period, same(list(range(len(classes)))),
        ergodic, mixing, mixing,
    )
