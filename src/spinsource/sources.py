"""Consistent families of chain states and their two-point correlations.

A source assigns to every site count m a density operator rho_m such
that tracing out trailing sites recovers the shorter states
(consistency) and, for stationary sources, tracing out leading sites
does too.  Each rho_m is a plain Operator, a state by construction.

Every library source is one emission chain (initial, transition, states):
a hidden Markov chain that emits the one-site state S_h from state h, so
rho_m = sum_h initial(h_1) P[h_1, h_2] .. P[h_m-1, h_m] S_h1 (x) .. (x) S_hm.

* iid sigma: one hidden state with S_0 = sigma;
* classically correlated: the symbol process's hidden chain with
  S_h = sum_x emission[h, x] |psi_x><psi_x|;
* a one-site channel E on every site: the base chain emitting E(S_h),
  so transforms compose (the commutative case of finitely correlated
  states, Fannes, Nachtergaele and Werner 1992).  A channel on k > 1
  sites has no chain; it acts on the base state and runs dense only.

A source keeps each rho_m it builds for its own lifetime, so a repeat call
returns the same read-only Operator.  A chain's rho_m is wrapped as built,
without a copy: its one-site states were validated once, and a convex sum
of their products is a finite state.  The kept states take at most
d^2/(d^2-1) times the largest state (4/3 for qubits), and a k-site
transform's base keeps its own too.
A chain source also keeps the n blocks one site short of the last state it
built (n/d^2 times that state's memory), so the next site count costs one
step of the chain, not m.  It keeps its hidden chain as one MarkovProcess
too, built on the first transfer correlation.

Correlations corr(gap) = tr(rho (a (x) I^gap (x) b)) run densely (gap
sites traced out of rho_{a+gap+b}, then paired with a and b) or on the
transfer route, which pairs a and b with the emitted states and hands the
resulting tables of hidden words to the classical correlation sweep of
the hidden Markov chain, so gaps in the thousands cost no exponential
memory.  The dense route of a chain source forms only rho's entries that
are diagonal on the gap sites, stepped from the chain, bitwise as rho has
them; a chainless source builds its explicit rho_{a+gap+b}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import NamedTuple

import numpy as np

from .channels import KrausChannel, _block_sites, _require_trace_preserving, apply_channel, validate_alphabet
from .classical import ClassicalProcess, MarkovProcess, _check_word_cap, _gap_array, classical_correlation_sweep
from .errors import BackendError, CapExceededError, ShapeMismatchError
from .operators import (
    DENSE_CAP_ENV, DensityOperator, Operator, _check_cap, _owned_operator, dense_cap, density_operator, trace_pairing,
)

SOURCE_CHECK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AlphabetSpec:
    """k unit vectors in the d-dimensional site space, linearly independent."""

    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", validate_alphabet(self.vectors))

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def site_dim(self) -> int:
        return self.vectors.shape[1]

    def gram(self) -> np.ndarray:
        return self.vectors.conj() @ self.vectors.T

    def is_orthonormal(self, tol: float = 1e-12) -> bool:
        g = self.gram()
        return bool(np.max(np.abs(g - np.eye(self.size))) <= tol)


def computational_alphabet(size: int, site_dim: int | None = None) -> AlphabetSpec:
    """The first ``size`` computational basis vectors as an alphabet."""
    d = site_dim if site_dim is not None else size
    return AlphabetSpec(np.eye(size, d, dtype=complex))


class EmissionChain(NamedTuple):
    """initial (n,), transition (n, n) and one-site states (n, d, d), all read-only."""

    initial: np.ndarray
    transition: np.ndarray
    states: np.ndarray


def _emission_chain(hidden, states) -> EmissionChain:
    """The hidden part (initial, transition) of ``hidden`` emitting ``states``."""
    states = np.array(states, dtype=complex)
    states.setflags(write=False)
    return EmissionChain(hidden.initial, hidden.transition, states)


def _emit(states: np.ndarray, mixed: np.ndarray, out=None) -> np.ndarray:
    """S_h (x) M(h) for stacked (k, d, d) states and (k, D, D) blocks, as (k, d, D, d, D):
    one broadcast product, the elementwise product np.kron forms, without its per-call cost."""
    return np.multiply(states[:, :, None, :, None], mixed[:, None, :, None, :], out=out)


def _mix(transition: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_g P[h, g] T(g) for stacked (n, R, C) blocks T, elementwise from 0 in g order,
    as Python's sum of the products would, with one buffer for the products."""
    total = term = None
    for p, t in zip(transition.T, blocks):
        term = np.multiply(p[:, None, None], t, out=term)
        total = 0 + term if total is None else np.add(total, term, out=total)
    return total


def _step(chain: EmissionChain, mixed: np.ndarray | None) -> np.ndarray:
    """M_{j+1} from M_j, stacked (n, R, C): M_j(h) = sum_g P[h, g] T_j(g) is the j-site
    state that follows hidden state h, and T_{j+1}(h) = S_h (x) M_j(h) what h emits over
    j + 1 sites; None stands for M_0, with T_1 = S.  R = C for a whole M_j; the dense
    correlations also step blocks that keep only some of M_j's rows."""
    if mixed is None:
        return _mix(chain.transition, chain.states)
    (n, rows, cols), d = mixed.shape, chain.states.shape[1]
    return _mix(chain.transition, _emit(chain.states, mixed).reshape(n, d * rows, d * cols))


def _chain_density(chain: EmissionChain, mixed: np.ndarray | None) -> np.ndarray:
    """rho_m = sum_h initial(h) T_m(h) from M_{m-1}, elementwise from 0 in h order.  Each
    T_m(h) is formed in turn in one buffer, so no stack of blocks of rho's side exists."""
    if mixed is None:
        return sum(q * s for q, s in zip(chain.initial, chain.states))
    rho = t = None
    for q, s, m in zip(chain.initial, chain.states, mixed):
        t = np.multiply(q, _emit(s[None], m[None], t), out=t)
        rho = 0 + t if rho is None else np.add(rho, t, out=rho)
    d = chain.states.shape[1]
    return rho.reshape(d * mixed.shape[1], d * mixed.shape[2])


def _chain_pairs(chain: EmissionChain, a_sites: int, b_sites: int, gaps) -> dict:
    """gap -> the two-block state sum_z rho[(x, z, y), (x', z, y')] of rho_{a+gap+b}, as
    (da, db, da, db), for each distinct gap, stepped from the chain without rho.

    Only rho's entries that are diagonal on the gap sites are formed, each by the
    products and sums that form it in rho, in the same order, so the result is
    bitwise what tracing the gap out of the full rho gives.  The blocks climb from
    the right: M_b by whole steps; then one step per gap site, which keeps a gap
    site's diagonal S_h[z, z] only, so the kept blocks are (n, d^gap * db, db); then,
    for each requested gap, the a-block's whole steps and rho's level on those."""
    d = chain.states.shape[1]
    diagonals = np.diagonal(chain.states, axis1=1, axis2=2)[:, :, None, None]
    kept = None
    for _ in range(b_sites):
        kept = _step(chain, kept)
    n, db = kept.shape[:2]
    da, wanted, pairs = d**a_sites, set(gaps), {}
    for gap in range(max(wanted, default=-1) + 1):
        if gap:  # S_h[z, z] M(h) for each z, as S_h (x) M(h) forms it, rows (z, earlier rows)
            kept = _mix(chain.transition, np.multiply(diagonals, kept[:, None]).reshape(n, -1, db))
        if gap in wanted:
            mixed = kept
            for _ in range(a_sites - 1):
                mixed = _step(chain, mixed)
            rho = _chain_density(chain, mixed).reshape(da, d**gap, db, da, db)
            pairs[gap] = np.einsum("agbcd->abcd", rho)
    return pairs


def _count(value, what: str) -> int:
    """value as an int: operator.index refuses a float, and a bool, which it would
    take as 0 or 1, is refused here."""
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, not a boolean")
    return index(value)


def _density(source, sites: int) -> Operator:
    """rho_m of a library source, built on the first call for m and kept with the source.
    The cap is checked on every call; a build that raises keeps nothing."""
    sites = _count(sites, "site count")
    if sites < 1:
        raise ValueError(f"site count must be >= 1, got {sites}")
    _check_cap(source.site_dim, sites)
    built = source.__dict__.setdefault("_densities", {})
    if sites not in built:
        built[sites] = _build_density(source, sites)
    return built[sites]


def _build_density(source, sites: int) -> Operator:
    """rho_m from the emission chain, or the k-site channel on the base state of a
    chainless source.  M_{m-1} is stepped from the blocks kept from the source's last
    build when those are below it, else from M_0, and is kept once rho_m is built.
    A chain's rho_m is a convex sum of products of its validated one-site states, so it
    is finite by construction and is frozen in place, not copied and scanned again."""
    chain = source.chain
    if chain is None:
        return apply_channel(source.channel, source.base.density(sites))
    level, mixed = source.__dict__.get("_blocks", (0, None))
    if level >= sites:
        level, mixed = 0, None
    for _ in range(level, sites - 1):
        mixed = _step(chain, mixed)
    state = _owned_operator(_chain_density(chain, mixed), sites, source.site_dim)
    source.__dict__["_blocks"] = (sites - 1, mixed)
    return state


def _state_table(states: np.ndarray, a: Operator) -> np.ndarray:
    """Table f[h_1..h_m] = tr((S_h1 (x) .. (x) S_hm) a) over words of a's length,
    for one-site states S of shape (n, d, d)."""
    t = a.entries.reshape((a.site_dim,) * (2 * a.sites))
    for rest in range(a.sites, 0, -1):  # pair the leading row and column site with S_h
        t = np.tensordot(t, states, axes=([0, rest], [2, 1]))
    return t


# ---------------------------------------------------------------------------
# source families
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IIDSource:
    """rho_m = sigma^(x m) for a single-site state sigma, checked once on construction."""

    site_state: DensityOperator

    def __post_init__(self):
        state = density_operator(self.site_state)  # a raw matrix has no site count until validated
        if state.sites != 1:
            raise ShapeMismatchError("iid source takes a single-site state")
        object.__setattr__(self, "site_state", state)

    # every chain is built on first use: loading a config assembles its source only to check it
    @cached_property
    def chain(self) -> EmissionChain:
        return _emission_chain(MarkovProcess([[1.0]], [1.0]), [self.site_state.entries])

    @property
    def site_dim(self) -> int:
        return self.site_state.site_dim

    def density(self, sites: int) -> Operator:
        return _density(self, sites)


@dataclass(frozen=True, eq=False)
class ClassicallyCorrelatedSource:
    """rho_m = sum_w Pr(w) |psi_w1><psi_w1| (x) ... (x) |psi_wm><psi_wm|.

    The symbol process supplies the word weights; the alphabet supplies
    one pure emission state per symbol.  With the computational-basis
    alphabet this is the diagonal lift of the classical process.
    """

    process: ClassicalProcess
    alphabet: AlphabetSpec

    def __post_init__(self):
        if self.process.alphabet_size != self.alphabet.size:
            raise ShapeMismatchError(
                f"process alphabet size {self.process.alphabet_size} != "
                f"{self.alphabet.size} alphabet vectors"
            )

    @cached_property
    def chain(self) -> EmissionChain:
        pure = [np.outer(v, v.conj()) for v in self.alphabet.vectors]
        states = [sum(q * r for q, r in zip(row, pure)) for row in self.process.chain.emission]
        return _emission_chain(self.process.chain, states)

    @property
    def site_dim(self) -> int:
        return self.alphabet.site_dim

    def density(self, sites: int) -> Operator:
        return _density(self, sites)


@dataclass(frozen=True, eq=False)
class ChannelTransformedSource:
    """rho_m = E^(x m)(base rho_m) for a trace-preserving E, checked on construction.

    A one-site E folds into the base's emission chain: S_h -> E(S_h), each
    by one apply_channel call.  A user-built E on k > 1 sites, or a base
    without a chain, leaves ``chain`` None: E acts blockwise on the base
    state, k must divide m, and correlations run dense only.
    """

    base: "QuantumSource"
    channel: KrausChannel

    def __post_init__(self):
        _block_sites(self.base.site_dim, self.channel.dim)
        _require_trace_preserving(self.channel)

    @cached_property
    def chain(self) -> EmissionChain | None:
        if _hidden_states(self) is None:
            return None
        base, d = self.base.chain, self.site_dim
        states = [apply_channel(self.channel, Operator(s, 1, d)).entries for s in base.states]
        return _emission_chain(base, states)

    @property
    def site_dim(self) -> int:
        return self.base.site_dim

    def density(self, sites: int) -> Operator:
        return _density(self, sites)


QuantumSource = IIDSource | ClassicallyCorrelatedSource | ChannelTransformedSource


def construct_classically_correlated(
    process: ClassicalProcess, alphabet
) -> ClassicallyCorrelatedSource:
    if not isinstance(alphabet, AlphabetSpec):
        alphabet = AlphabetSpec(np.asarray(alphabet))
    return ClassicallyCorrelatedSource(process, alphabet)


def channel_transform_source(source: QuantumSource, channel: KrausChannel) -> ChannelTransformedSource:
    return ChannelTransformedSource(source, channel)


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


def _hidden_states(source) -> int | None:
    """The hidden-state count of source's emission chain, or None without one, decided
    without building a chain: a channel on k > 1 sites leaves none, as does a base without one."""
    while isinstance(source, ChannelTransformedSource):
        if source.channel.dim != source.site_dim:
            return None
        source = source.base
    if isinstance(source, IIDSource):
        return 1
    if isinstance(source, ClassicallyCorrelatedSource):
        return source.process.chain.initial.size
    chain = getattr(source, "chain", None)  # a source family from outside the library
    return None if chain is None else chain.initial.size


def _check_pairs_cap(site_dim: int, hidden: int, a_sites: int, b_sites: int, max_gap: int) -> None:
    """_chain_pairs' largest arrays at the widest gap fit dense_cap()**2 entries, as many as
    the densest state the cap allows: rho's level holds d**2 x d**(2a+2b+gap-2) entries, and
    the stacks of the hidden states' blocks a step forms hidden x d**(2a+2b+gap-2)."""
    cap, exponent = dense_cap() ** 2, 2 * (a_sites + b_sites) + max_gap - 2
    width = max(hidden, site_dim**2)
    if exponent <= cap.bit_length() and width * site_dim**exponent <= cap:
        return
    raise CapExceededError(
        f"dense chain kernel array of {width} x {site_dim}**{exponent} entries ({hidden} hidden states) "
        f"exceeds cap {cap} (the dense cap squared; override with {DENSE_CAP_ENV})",
        cap=cap,
    )


def _correlation_route(source: QuantumSource, a_sites: int, b_sites: int, max_gap: int, backend: str) -> str:
    """The backend that correlations of a_sites- and b_sites-site observables at
    gaps up to max_gap run on, once that route's cap fits: on the dense route, the
    chain kernel's largest array for a source with an emission chain, else the side
    d**(a+gap+b) of the rho a chainless source builds; on the transfer route, the
    sweep's table of n**max(a, b) hidden words by n end states.  "auto" picks
    transfer exactly when the source has an emission chain, which "transfer" needs.
    Nothing is built to decide."""
    if backend not in ("auto", "dense", "transfer"):
        raise BackendError(f"unknown backend {backend!r}")
    hidden = _hidden_states(source)
    if backend == "transfer" and hidden is None:
        raise BackendError(f"transfer backend needs an emission chain, which a {type(source).__name__} lacks")
    if hidden is None:
        _check_cap(source.site_dim, a_sites + max_gap + b_sites)
        return "dense"
    if backend == "dense":
        _check_pairs_cap(source.site_dim, hidden, a_sites, b_sites, max_gap)
        return "dense"
    _check_word_cap(hidden, max(a_sites, b_sites), hidden)
    return "transfer"


def source_block_mean(source: QuantumSource, a: Operator) -> complex:
    """tr(rho_m a) for an m-site observable."""
    return trace_pairing(source.density(a.sites), a)


def source_correlation(
    source: QuantumSource,
    a: Operator,
    b: Operator,
    gaps,
    backend: str = "auto",
) -> np.ndarray:
    """corr(gap) = tr(rho_{ma+gap+mb} (a (x) I^(x gap) (x) b)) for each gap.

    backend "dense" traces the gap sites out of rho_{ma+gap+mb} (site
    count limited by the dense cap) and pairs the two-block state with a
    and b, so no operator of rho's side is formed.  A source with an
    emission chain forms only the entries of rho that the trace reads,
    those diagonal on the gap sites, by the products and sums that form
    them in rho, so the result is bitwise the full-rho one and no rho is
    built; a chainless source builds and keeps each rho_{ma+gap+mb}.

    "transfer" pairs a and b with the emitted states,
    f[h_1..h_ma] = tr((S_h1 (x) .. (x) S_hma) a) and likewise g for b, and
    takes the hidden Markov chain's classical correlation of f and g;
    "auto" picks transfer when the source has an emission chain.
    """
    gaps = _gap_array(gaps)
    if a.site_dim != source.site_dim or b.site_dim != source.site_dim:
        raise ShapeMismatchError("observable site dim does not match source")
    if _correlation_route(source, a.sites, b.sites, int(gaps.max(initial=0)), backend) == "dense":
        gaps = gaps.tolist()
        if _hidden_states(source) is not None:
            pairs = _chain_pairs(source.chain, a.sites, b.sites, gaps)
        else:
            pairs = {}
            da, db = a.dim, b.dim
            for gap in gaps:
                rho = source.density(a.sites + gap + b.sites).entries
                g = source.site_dim**gap
                # the gap's partial trace reads only its diagonal: da^2 db^2 g entries of rho
                pairs[gap] = np.einsum("agbcgd->abcd", rho.reshape(da, g, db, da, g, db))
        return np.array([np.einsum("abcd,ca,db->", pairs[gap], a.entries, b.entries) for gap in gaps], dtype=complex)
    f, g = (_state_table(source.chain.states, x) for x in (a, b))
    return classical_correlation_sweep(_hidden_process(source), f, g, gaps)


def _hidden_process(source) -> MarkovProcess:
    """The hidden Markov chain of source's emission chain as a process, built on the
    first transfer correlation and kept with the source, as its blocks are."""
    kept = source.__dict__
    if "_process" not in kept:
        chain = source.chain
        kept["_process"] = MarkovProcess(chain.transition, chain.initial)
    return kept["_process"]


# ---------------------------------------------------------------------------
# family checks
# ---------------------------------------------------------------------------


def _trace_out(entries: np.ndarray, keep_dim: int, leading: bool) -> np.ndarray:
    drop = entries.shape[0] // keep_dim
    if leading:
        return np.einsum("abad->bd", entries.reshape(drop, keep_dim, drop, keep_dim))
    return np.einsum("abcb->ac", entries.reshape(keep_dim, drop, keep_dim, drop))


@dataclass(frozen=True)
class SourceCheckReport:
    """Worst deviation between rho_m and a reduction of a longer rho_{m+i}.

    mode "consistency" reduces over trailing sites, "stationarity" over
    leading sites.  worst_pair is the offending (m, i).
    """

    mode: str
    max_sites: int
    worst_deviation: float
    worst_pair: tuple
    tol: float = SOURCE_CHECK_TOL

    @property
    def passed(self) -> bool:
        return self.worst_deviation <= self.tol


def _check_plan(source, max_sites: int, block: int) -> tuple:
    """The reduction checks' (max_sites, block), once both are whole counts, max_sites
    is at least two whole blocks and rho_max_sites fits the dense cap; nothing is built."""
    max_sites, block = _count(max_sites, "max_sites"), _count(block, "block")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    if max_sites < 2 * block or max_sites % block:
        raise ValueError(f"max_sites must be a multiple of {block} and at least {2 * block}, got {max_sites}")
    _check_cap(source.site_dim, max_sites)
    return max_sites, block


def _reduction_check(source: QuantumSource, max_sites: int, mode: str, block: int) -> SourceCheckReport:
    max_sites, block = _check_plan(source, max_sites, block)
    d = source.site_dim
    states = {m: source.density(m).entries for m in range(block, max_sites + 1, block)}
    worst = 0.0
    worst_pair = (block, block)
    for top in range(2 * block, max_sites + 1, block):
        current = states[top]
        for m in range(top - block, 0, -block):
            current = _trace_out(current, d**m, mode == "stationarity")
            dev = float(np.max(np.abs(current - states[m])))
            if dev > worst:
                worst = dev
                worst_pair = (m, top - m)
    return SourceCheckReport(f"block_{mode}" if block > 1 else mode, max_sites, worst, worst_pair)


def check_consistency(source: QuantumSource, max_sites: int = 4, block: int = 1) -> SourceCheckReport:
    """Verify tr(rho_m a) = tr(rho_{m+i} (a (x) I^(x i))) for all m + i <= max_sites,
    with m and i multiples of ``block`` (mode "block_consistency" when block > 1)."""
    return _reduction_check(source, max_sites, "consistency", block)


def check_stationarity(source: QuantumSource, max_sites: int = 4, block: int = 1) -> SourceCheckReport:
    """Verify tr(rho_m a) = tr(rho_{m+i} (I^(x i) (x) a)) for all m + i <= max_sites,
    with m and i multiples of ``block`` (mode "block_stationarity" when block > 1)."""
    return _reduction_check(source, max_sites, "stationarity", block)
