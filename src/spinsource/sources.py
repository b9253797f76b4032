"""Consistent families of chain states and their two-point correlations.

A source assigns to every site count m a density operator rho_m such
that tracing out trailing sites recovers the shorter states
(consistency) and, for stationary sources, tracing out leading sites
does too.  Each rho_m is a plain Operator, a state by construction.

Every library source is a hidden Markov chain, the MarkovProcess ``hidden``,
that emits the state S_h of a block of k = ``span`` sites from state h, so
rho_m = sum_h initial(h_1) P[h_1, h_2] .. S_h1 (x) .. (x) S_hj over j = m/k
blocks.  iid sigma is one hidden state with S_0 = sigma; a classically
correlated source shares its process's hidden chain, with
S_h = sum_x emission[h, x] |psi_x><psi_x|; a channel E on c sites emits
E(S_h) from the base's chain, shared, or regrouped over runs of blocks
when c is no multiple of the base's k (the blocking property of finitely
correlated states, Fannes, Nachtergaele and Werner 1992), so transforms
compose.  E never touches the chain, so the chain and the span exist before
the read-only (n, D, D) ``states``, which are built on first use.

A source keeps each rho_m it builds, read-only and without a copy (a convex
sum of products of validated states is a finite state), at most D^2/(D^2-1)
times the largest one, D = d^k; the n blocks one block short of the last
(n/D^2 times its memory), so the next site count costs one chain step; and
the dense correlations' two-block states, read-only, per (a, b) block counts
and gap, D^(2a+2b) entries each, so further observable pairs of those sizes
step the chain for new gaps only.

Correlations corr(gap) = tr(rho (a (x) I^gap (x) b)) run densely, forming
only rho_{a+gap+b}'s entries diagonal on the gap, bitwise as rho has them,
or on the transfer route, where the hidden chain's classical correlation
sweep carries a's and b's tables over hidden words across any gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from operator import index

import numpy as np

from .channels import KrausChannel, _block_sites, _require_trace_preserving, apply_channel, validate_alphabet
from .classical import (
    _ONE_STATE, ClassicalProcess, MarkovProcess, _check_word_cap, _gap_array, classical_correlation_sweep,
)
from .errors import AlignmentError, BackendError, CapExceededError, ShapeMismatchError
from .operators import (
    DENSE_CAP_ENV, DensityOperator, Operator, _check_cap, _owned_operator, dense_cap, density_operator,
    embed_observable, tensor_product, trace_pairing,
)

SOURCE_CHECK_TOL = 1e-9
_BACKENDS = ("auto", "dense", "transfer")  # correlation routes; "auto" is transfer


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


def _frozen(states) -> np.ndarray:
    """Block states stacked as a read-only (n, D, D) complex array."""
    states = np.array(states, dtype=complex)
    states.setflags(write=False)
    return states


def _run_ends(transition: np.ndarray, block_dim: int, runs: int) -> tuple:
    """(h, l, w) of a chain regrouped over runs of ``runs`` blocks, whose hidden states are each
    run's first and last, h and l, with w = P^(runs-1)[h, l] > 0: initial pi_h w(h, l) and
    transition P[l, h'] w(h', l').  The cap on up to n^2 such states' blocks comes first."""
    n = transition.shape[0]
    _check_chain_cap(block_dim**runs, n * n, 2)
    w = np.linalg.matrix_power(transition, runs - 1)
    h, l = np.nonzero(w > 0)
    return h, l, w[h, l]


def _regroup_states(transition: np.ndarray, states: np.ndarray, runs: int) -> np.ndarray:
    """The states the regrouped chain emits from (h, l): sum_paths prod P S_h1 (x) .. (x) S_hruns
    / w(h, l), capped before the n^2 path sums exist."""
    n, dim = states.shape[:2]
    h, l, w = _run_ends(transition, dim, runs)
    paths = np.eye(n)[:, :, None, None] * states[None]  # runs of one block: l = h
    for _ in range(runs - 1):
        mixed, side = np.einsum("hgab,gl->hlab", paths, transition), paths.shape[2] * dim
        paths = (mixed[:, :, :, None, :, None] * states[None, :, None, :, None, :]).reshape(n, n, side, side)
    return paths[h, l] / w[:, None, None]


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


def _step(hidden: MarkovProcess, states: np.ndarray, mixed: np.ndarray | None) -> np.ndarray:
    """M_{j+1} from M_j, stacked (n, R, C): M_j(h) = sum_g P[h, g] T_j(g) is the j-block
    state that follows hidden state h, and T_{j+1}(h) = S_h (x) M_j(h) what h emits over
    j + 1 blocks; None stands for M_0, with T_1 = S.  R = C for a whole M_j; the dense
    correlations also step blocks that keep only some of M_j's rows."""
    if mixed is None:
        return _mix(hidden.transition, states)
    (n, rows, cols), d = mixed.shape, states.shape[1]
    return _mix(hidden.transition, _emit(states, mixed).reshape(n, d * rows, d * cols))


def _chain_density(hidden: MarkovProcess, states: np.ndarray, mixed: np.ndarray | None) -> np.ndarray:
    """rho_m = sum_h initial(h) T_m(h) from M_{m-1}, elementwise from 0 in h order.  Each
    T_m(h) is formed in turn in one buffer, so no stack of blocks of rho's side exists."""
    if mixed is None:
        return sum(q * s for q, s in zip(hidden.initial, states))
    rho = t = None
    for q, s, m in zip(hidden.initial, states, mixed):
        t = np.multiply(q, _emit(s[None], m[None], t), out=t)
        rho = 0 + t if rho is None else np.add(rho, t, out=rho)
    d = states.shape[1]
    return rho.reshape(d * mixed.shape[1], d * mixed.shape[2])


def _chain_pairs(hidden: MarkovProcess, states: np.ndarray, a_sites: int, b_sites: int, gaps) -> dict:
    """gap -> the two-block state sum_z rho[(x, z, y), (x', z, y')] of rho_{a+gap+b}, as
    (da, db, da, db), for each distinct gap, stepped from the chain without rho.

    Only rho's entries that are diagonal on the gap sites are formed, each by the
    products and sums that form it in rho, in the same order, so the result is
    bitwise what tracing the gap out of the full rho gives.  The blocks climb from
    the right: M_b by whole steps; then one step per gap block, which keeps a gap
    block's diagonal S_h[z, z] only, so the kept blocks are (n, d^gap * db, db); then,
    for each requested gap, the a-block's whole steps and rho's level on those."""
    d = states.shape[1]
    diagonals = np.diagonal(states, axis1=1, axis2=2)[:, :, None, None]
    kept = None
    for _ in range(b_sites):
        kept = _step(hidden, states, kept)
    n, db = kept.shape[:2]
    da, wanted, pairs = d**a_sites, set(gaps), {}
    for gap in range(max(wanted, default=-1) + 1):
        if gap:  # S_h[z, z] M(h) for each z, as S_h (x) M(h) forms it, rows (z, earlier rows)
            kept = _mix(hidden.transition, np.multiply(diagonals, kept[:, None]).reshape(n, -1, db))
        if gap in wanted:
            mixed = kept
            for _ in range(a_sites - 1):
                mixed = _step(hidden, states, mixed)
            rho = _chain_density(hidden, states, mixed).reshape(da, d**gap, db, da, db)
            pairs[gap] = np.einsum("agbcd->abcd", rho)
    return pairs


def _count(value, what: str) -> int:
    """value as an int: operator.index refuses a float, and a bool, which it would
    take as 0 or 1, is refused here."""
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, not a boolean")
    return index(value)


def _whole_blocks(span: int, sites: int) -> int:
    """sites as a count of span-site blocks, or AlignmentError."""
    if sites % span:
        raise AlignmentError(f"the source's blocks span {span} sites, which does not divide {sites}")
    return sites // span


def _check_build_cap(source, sites: int) -> None:
    """rho_m over j blocks (rounded up) and the kept M_{j-1}, n blocks of D**(2j-2) entries, fit; no state is built."""
    span = source.span
    _check_chain_cap(source.site_dim**span, source.hidden.initial.size, 2 * -(-sites // span) - 2)


def _density(source, sites: int) -> Operator:
    """rho_m of a library source, built on the first call for m and kept with the source.
    The cap is checked on every call; a build that raises keeps nothing."""
    sites = _count(sites, "site count")
    if sites < 1:
        raise ValueError(f"site count must be >= 1, got {sites}")
    _check_build_cap(source, sites)
    built = source.__dict__.setdefault("_densities", {})
    if sites not in built:
        built[sites] = _build_density(source, sites)
    return built[sites]


def _build_density(source, sites: int) -> Operator:
    """rho_m from the source's chain in j = m/k steps of its k-site blocks.  M_{j-1} is
    stepped from the blocks kept from the source's last build when those are below it,
    else from M_0, and is kept once rho_m is built; rho_m is frozen in place, as built."""
    blocks, hidden, states = _whole_blocks(source.span, sites), source.hidden, source.states
    level, mixed = source.__dict__.get("_blocks", (0, None))
    if level >= blocks:
        level, mixed = 0, None
    for _ in range(level, blocks - 1):
        mixed = _step(hidden, states, mixed)
    state = _owned_operator(_chain_density(hidden, states, mixed), sites, source.site_dim)
    source.__dict__["_blocks"] = (blocks - 1, mixed)
    return state


def _state_table(states: np.ndarray, a: Operator) -> np.ndarray:
    """Table f[h_1..h_m] = tr((S_h1 (x) .. (x) S_hm) a) over words of a's length,
    for block states S of shape (n, D, D) and a on D-dimensional sites."""
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
    hidden = _ONE_STATE
    span = 1

    def __post_init__(self):
        state = density_operator(self.site_state)  # a raw matrix has no site count until validated
        if state.sites != 1:
            raise ShapeMismatchError("iid source takes a single-site state")
        object.__setattr__(self, "site_state", state)

    @cached_property
    def states(self) -> np.ndarray:
        return _frozen([self.site_state.entries])

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
    span = 1

    def __post_init__(self):
        if self.process.alphabet_size != self.alphabet.size:
            raise ShapeMismatchError(
                f"process alphabet size {self.process.alphabet_size} != "
                f"{self.alphabet.size} alphabet vectors"
            )

    @property
    def hidden(self) -> MarkovProcess:
        return self.process.hidden

    @cached_property
    def states(self) -> np.ndarray:
        pure = [np.outer(v, v.conj()) for v in self.alphabet.vectors]
        return _frozen([sum(q * r for q, r in zip(row, pure)) for row in self.process.emission])

    @property
    def site_dim(self) -> int:
        return self.alphabet.site_dim

    def density(self, sites: int) -> Operator:
        return _density(self, sites)


@dataclass(frozen=True, eq=False)
class ChannelTransformedSource:
    """rho_m = E^(x m/c)(base rho_m) for a trace-preserving E on c sites and a library
    base, both checked on construction.  E folds into the base's states, S_h -> E(S_h),
    each by one apply_channel call, over the base's hidden chain, regrouped over runs of
    its b-site blocks when c is no multiple of b; the span lcm(b, c) must divide m."""

    base: "QuantumSource"
    channel: KrausChannel
    span: int = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.base, QuantumSource):
            raise TypeError(f"a channel transforms a library source, not a {type(self.base).__name__}")
        object.__setattr__(self, "span", lcm(self.base.span, _block_sites(self.base.site_dim, self.channel.dim)))
        _require_trace_preserving(self.channel)

    @cached_property
    def hidden(self) -> MarkovProcess:
        base, runs = self.base.hidden, self.span // self.base.span
        if runs == 1:
            return base
        h, l, w = _run_ends(base.transition, self.site_dim**self.base.span, runs)
        return MarkovProcess(base.transition[l[:, None], h] * w, base.initial[h] * w)  # checked and frozen

    @cached_property
    def states(self) -> np.ndarray:
        states, runs = self.base.states, self.span // self.base.span
        if runs > 1:
            states = _regroup_states(self.base.hidden.transition, states, runs)
        return _frozen([apply_channel(self.channel, Operator(s, self.span, self.site_dim)).entries for s in states])

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


def _check_chain_cap(block_dim: int, hidden: int, exponent: int) -> None:
    """A level of states, D**2 x D**exponent entries (D the block dimension), and the hidden
    states' blocks beside it, hidden x D**exponent, fit dense_cap()**2, the densest state's."""
    cap, width = dense_cap() ** 2, max(hidden, block_dim**2)
    if exponent <= cap.bit_length() and width * block_dim**exponent <= cap:
        return
    raise CapExceededError(
        f"dense chain kernel array of {width} x {block_dim}**{exponent} entries ({hidden} hidden states) "
        f"exceeds cap {cap} (the dense cap squared; override with {DENSE_CAP_ENV})",
        cap=cap,
    )


def _correlation_route(source: QuantumSource, a_sites: int, b_sites: int, max_gap: int, backend: str) -> str:
    """The backend ("auto" is transfer) for a_sites- and b_sites-site observables at gaps up to
    max_gap, once its cap fits in whole blocks: the dense route's _chain_pairs arrays at the
    widest gap, or the transfer sweep's table of n**max(a, b) hidden words by n end states."""
    if backend not in _BACKENDS:
        raise BackendError(f"unknown backend {backend!r}")
    if not isinstance(source, QuantumSource):
        raise BackendError(f"correlations need a library source's chain, which a {type(source).__name__} lacks")
    hidden, span = source.hidden.initial.size, source.span
    a_blocks, b_blocks, widest = -(-a_sites // span), -(-b_sites // span), a_sites + max_gap + b_sites
    if backend == "dense":  # the widest a + gap + b in blocks, rounded down
        _check_chain_cap(source.site_dim**span, hidden, a_blocks + b_blocks + widest // span - 2)
        return "dense"
    _check_word_cap(hidden, max(a_blocks, b_blocks), hidden)
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

    backend "dense" traces the gap out of rho_{ma+gap+mb}, forming only the entries the
    trace reads, bitwise as rho has them; the source keeps the two-block states this
    leaves, which belong to the block sizes, not to a or b, so a later pair of the same
    sizes reuses them.  "transfer" (and "auto") takes the hidden chain's
    classical correlation of f[h_1..h_ma] = tr((S_h1 (x) .. (x) S_hma) a) and likewise g
    for b.  On k-site blocks, k must divide ma + gap + mb, a is padded on the right and b
    on the left to whole blocks, and where a's last block is b's first, the block mean.
    """
    gaps = _gap_array(gaps)
    if a.site_dim != source.site_dim or b.site_dim != source.site_dim:
        raise ShapeMismatchError("observable site dim does not match source")
    backend = _correlation_route(source, a.sites, b.sites, int(gaps.max(initial=0)), backend)
    span = source.span
    if span == 1:
        return _chain_correlation(source, a, b, gaps, backend)
    for sites in (a.sites + gaps + b.sites).tolist():
        _whole_blocks(span, sites)
    pad_a, pad_b = -a.sites % span, -b.sites % span
    shared, out = gaps == pad_a + pad_b - span, np.empty(gaps.size, dtype=complex)
    if shared.any():
        out[shared] = source_block_mean(source, tensor_product(embed_observable(a, 0, pad_a + pad_b - span), b))
    blocked = (embed_observable(a, 0, pad_a), embed_observable(b, pad_b, 0))
    a, b = (Operator(x.entries, x.sites // span, source.site_dim**span) for x in blocked)
    out[~shared] = _chain_correlation(source, a, b, (gaps[~shared] - pad_a - pad_b) // span, backend)
    return out


def _chain_correlation(source, a: Operator, b: Operator, gaps: np.ndarray, backend: str) -> np.ndarray:
    """source_correlation for a and b on whole blocks of source's chain and gaps in blocks.
    The dense route pairs a and b with the two-block states the source keeps for their
    block counts, stepping the chain once for the gaps it does not keep yet."""
    if backend == "dense":
        gaps = gaps.tolist()
        pairs = _kept_pairs(source, a.sites, b.sites, gaps)
        return np.array([np.einsum("abcd,ca,db->", pairs[gap], a.entries, b.entries) for gap in gaps], dtype=complex)
    f, g = (_state_table(source.states, x) for x in (a, b))
    return classical_correlation_sweep(source.hidden, f, g, gaps)


def _kept_pairs(source, a_blocks: int, b_blocks: int, gaps: list) -> dict:
    """gap -> the read-only two-block state of _chain_pairs for a_blocks and b_blocks, kept
    with the source; one _chain_pairs call makes the missing gaps, and one that raises adds
    no state."""
    kept = source.__dict__.setdefault("_pairs", {}).setdefault((a_blocks, b_blocks), {})
    missing = set(gaps).difference(kept)
    if missing:
        made = _chain_pairs(source.hidden, source.states, a_blocks, b_blocks, missing)
        for state in made.values():
            state.setflags(write=False)
        kept.update(made)
    return kept


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
    """The reduction checks' (max_sites, block), once both are whole counts, max_sites is at least
    two blocks and rho_max_sites fits the build cap (a non-library source's: the side cap)."""
    max_sites, block = _count(max_sites, "max_sites"), _count(block, "block")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    if max_sites < 2 * block or max_sites % block:
        raise ValueError(f"max_sites must be a multiple of {block} and at least {2 * block}, got {max_sites}")
    if isinstance(source, QuantumSource):
        _check_build_cap(source, max_sites)
    else:
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
