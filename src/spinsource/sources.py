"""Consistent families of chain states and their two-point correlations.

A source assigns to every site count m a density operator rho_m such
that tracing out trailing sites recovers the shorter states
(consistency) and, for stationary sources, tracing out leading sites
does too.  Each rho_m is a plain Operator, a state by construction.
Three families are provided:

* iid products of a fixed single-site state,
* classically correlated sources driven by a symbol process, with each
  symbol x emitting the pure state psi_x from a quantum alphabet,
* sitewise channel transforms of another source.

Correlations corr(gap) = tr(rho (a (x) I^gap (x) b)) can be evaluated
densely (explicit rho on a (x) pad (x) b) or through a transfer route
that reduces everything to exact classical chain algebra, so gaps in
the thousands cost no exponential memory.  Channel transforms always
reduce to the base source by replacing observables with their
Heisenberg duals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    KrausChannel, _block_sites, _require_trace_preserving, apply_channel, apply_dual, validate_alphabet
)
from .classical import ClassicalProcess, _check_word_cap, _gap_array, classical_correlation_sweep
from .errors import BackendError, ShapeMismatchError
from .operators import DensityOperator, Operator, _check_cap, density_operator, trace_pairing

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
    return AlphabetSpec(np.eye(d, dtype=complex)[:size])


# ---------------------------------------------------------------------------
# source families
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IIDSource:
    """rho_m = sigma^(x m) for a single-site state sigma, checked once on construction."""

    site_state: DensityOperator

    def __post_init__(self):
        if self.site_state.sites != 1:
            raise ShapeMismatchError("iid source takes a single-site state")
        object.__setattr__(self, "site_state", density_operator(self.site_state))

    @property
    def site_dim(self) -> int:
        return self.site_state.site_dim

    @property
    def kind(self) -> str:
        return "iid"

    def density(self, sites: int) -> Operator:
        _require_sites(sites, self.site_dim)
        out = np.array([[1.0 + 0j]])
        for _ in range(sites):
            out = np.kron(out, self.site_state.entries)
        return Operator(out, sites, self.site_dim)


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

    @property
    def site_dim(self) -> int:
        return self.alphabet.site_dim

    @property
    def kind(self) -> str:
        return "classically_correlated"

    def _emissions(self) -> list:
        return [np.outer(v, v.conj()) for v in self.alphabet.vectors]

    def density(self, sites: int) -> Operator:
        _require_sites(sites, self.site_dim)
        out = _correlated_density(self.process, self._emissions(), sites)
        return Operator(out, sites, self.site_dim)


@dataclass(frozen=True, eq=False)
class ChannelTransformedSource:
    """rho_m = E^(x m)(base rho_m) for a trace-preserving E, checked on construction;
    blocks of a block channel must divide m."""

    base: "QuantumSource"
    channel: KrausChannel

    def __post_init__(self):
        _block_sites(self.base.site_dim, self.channel.dim)
        _require_trace_preserving(self.channel)

    @property
    def site_dim(self) -> int:
        return self.base.site_dim

    @property
    def kind(self) -> str:
        return "channel_transformed"

    def density(self, sites: int) -> Operator:
        return apply_channel(self.channel, self.base.density(sites))


QuantumSource = IIDSource | ClassicallyCorrelatedSource | ChannelTransformedSource


def construct_classically_correlated(
    process: ClassicalProcess, alphabet
) -> ClassicallyCorrelatedSource:
    if not isinstance(alphabet, AlphabetSpec):
        alphabet = AlphabetSpec(np.asarray(alphabet))
    return ClassicallyCorrelatedSource(process, alphabet)


def channel_transform_source(source: QuantumSource, channel: KrausChannel) -> ChannelTransformedSource:
    return ChannelTransformedSource(source, channel)


def _require_sites(sites: int, site_dim: int) -> None:
    if sites < 1:
        raise ValueError(f"site count must be >= 1, got {sites}")
    _check_cap(site_dim**sites)


def _correlated_density(process: ClassicalProcess, emissions: list, sites: int) -> np.ndarray:
    # over the hidden chain (init, P, E), with S_h = sum_x E[h, x] R_x:
    # T_1(h) = S_h, T_j(h) = S_h (x) sum_g P[h, g] T_{j-1}(g); rho = sum_h init(h) T_m(h)
    init, p, e = process.chain
    states = [sum(q * r for q, r in zip(row, emissions)) for row in e]
    n = len(states)
    blocks = list(states)
    for _ in range(sites - 1):
        blocks = [
            np.kron(states[h], sum(p[h, g] * blocks[g] for g in range(n)))
            for h in range(n)
        ]
    return sum(init[h] * blocks[h] for h in range(n))


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


def _peel_transforms(source: QuantumSource, observables: list) -> tuple:
    """Rewrite a transformed-source correlation as a base-source one.

    tr(E^(x N)(rho) (a (x) I (x) b)) = tr(rho (dual(a) (x) I (x) dual(b)))
    because the dual of a trace-preserving channel fixes the identity.
    """
    while isinstance(source, ChannelTransformedSource):
        observables = [apply_dual(source.channel, o) for o in observables]
        source = source.base
    return source, observables


def _amplitude_rows(vectors: np.ndarray, blocks: int) -> np.ndarray:
    """Row w of the result is the product vector psi_w1 (x) ... (x) psi_wm."""
    k, d = vectors.shape
    _check_word_cap(k, blocks)
    v = vectors
    for _ in range(blocks - 1):
        v = (v[:, None, :, None] * vectors[None, :, None, :]).reshape(
            v.shape[0] * k, v.shape[1] * d
        )
    return v


def expectation_table(alphabet: AlphabetSpec, a: Operator) -> np.ndarray:
    """Table g[w] = <psi_w| a |psi_w> over all words w of a's length."""
    if a.site_dim != alphabet.site_dim:
        raise ShapeMismatchError("observable site dim does not match alphabet")
    v = _amplitude_rows(alphabet.vectors, a.sites)
    g = np.einsum("wi,ij,wj->w", v.conj(), a.entries, v)
    return g.reshape((alphabet.size,) * a.sites)


def _resolve_backend(source: QuantumSource, backend: str) -> str:
    """The backend a correlation on ``source`` runs on.

    "auto" picks transfer when the base under any channel transforms is an
    iid or classically correlated source, and dense otherwise.
    """
    if backend not in ("auto", "dense", "transfer"):
        raise BackendError(f"unknown backend {backend!r}")
    if backend != "auto":
        return backend
    base, _ = _peel_transforms(source, [])
    return "transfer" if isinstance(base, (IIDSource, ClassicallyCorrelatedSource)) else "dense"


def source_block_mean(source: QuantumSource, a: Operator) -> complex:
    """tr(rho_m a) for an m-site observable."""
    src, (obs,) = _peel_transforms(source, [a])
    return trace_pairing(src.density(obs.sites), obs)


def source_correlation(
    source: QuantumSource,
    a: Operator,
    b: Operator,
    gaps,
    backend: str = "auto",
) -> np.ndarray:
    """corr(gap) = tr(rho_{ma+gap+mb} (a (x) I^(x gap) (x) b)) for each gap.

    backend "dense" builds the padded state literally (site count limited
    by the dense cap); "transfer" peels channel transforms into dual
    observables and evaluates the rest through classical chain algebra
    (iid and classically correlated bases only); "auto" picks transfer
    when available.
    """
    gaps = _gap_array(gaps)
    if a.site_dim != source.site_dim or b.site_dim != source.site_dim:
        raise ShapeMismatchError("observable site dim does not match source")
    if _resolve_backend(source, backend) == "dense":
        if gaps.size:
            _check_cap(source.site_dim ** (a.sites + int(gaps.max()) + b.sites))
        out = np.empty(gaps.size, dtype=complex)
        for idx, gap in enumerate(gaps.tolist()):
            rho = source.density(a.sites + gap + b.sites)
            joint = a.entries
            if gap:
                joint = np.kron(joint, np.eye(source.site_dim**gap, dtype=complex))
            joint = np.kron(joint, b.entries)
            out[idx] = np.einsum("ij,ji->", rho.entries, joint)
        return out
    src, (ta, tb) = _peel_transforms(source, [a, b])
    if isinstance(src, IIDSource):
        val = trace_pairing(src.density(ta.sites), ta) * trace_pairing(
            src.density(tb.sites), tb
        )
        return np.full(gaps.size, val, dtype=complex)
    if isinstance(src, ClassicallyCorrelatedSource):
        f = expectation_table(src.alphabet, ta)
        g = expectation_table(src.alphabet, tb)
        return classical_correlation_sweep(src.process, f, g, gaps)
    raise BackendError(
        f"transfer backend does not apply to a {src.kind} base source"
    )


# ---------------------------------------------------------------------------
# family checks
# ---------------------------------------------------------------------------


def _trace_trailing(entries: np.ndarray, keep_dim: int) -> np.ndarray:
    drop = entries.shape[0] // keep_dim
    t = entries.reshape(keep_dim, drop, keep_dim, drop)
    return np.einsum("abcb->ac", t)


def _trace_leading(entries: np.ndarray, keep_dim: int) -> np.ndarray:
    drop = entries.shape[0] // keep_dim
    t = entries.reshape(drop, keep_dim, drop, keep_dim)
    return np.einsum("abad->bd", t)


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


def _reduction_check(source: QuantumSource, max_sites: int, mode: str, step: int) -> SourceCheckReport:
    if max_sites < 2 * step:
        raise ValueError(f"max_sites must be at least {2 * step}")
    d = source.site_dim
    _check_cap(d**max_sites)
    reduce = _trace_trailing if mode.endswith("consistency") else _trace_leading
    states = {m: source.density(m).entries for m in range(step, max_sites + 1, step)}
    worst = 0.0
    worst_pair = (step, step)
    for top in range(2 * step, max_sites + 1, step):
        current = states[top]
        for m in range(top - step, 0, -step):
            current = reduce(current, d**m)
            dev = float(np.max(np.abs(current - states[m])))
            if dev > worst:
                worst = dev
                worst_pair = (m, top - m)
    return SourceCheckReport(mode, max_sites, worst, worst_pair)


def check_consistency(source: QuantumSource, max_sites: int = 4) -> SourceCheckReport:
    """Verify tr(rho_m a) = tr(rho_{m+i} (a (x) I^(x i))) for all m + i <= max_sites."""
    return _reduction_check(source, max_sites, "consistency", 1)


def check_stationarity(source: QuantumSource, max_sites: int = 4) -> SourceCheckReport:
    """Verify tr(rho_m a) = tr(rho_{m+i} (I^(x i) (x) a)) for all m + i <= max_sites."""
    return _reduction_check(source, max_sites, "stationarity", 1)


def check_n_stationarity(source: QuantumSource, block: int, max_blocks: int = 3) -> SourceCheckReport:
    """Stationarity in steps of a block: compare rho_{jb} against leading
    reductions of rho_{(j+i)b} for all multiples up to max_blocks * block."""
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    mode = "block_stationarity" if block > 1 else "stationarity"
    return _reduction_check(source, max_blocks * block, mode, block)


def check_n_consistency(source: QuantumSource, block: int, max_blocks: int = 3) -> SourceCheckReport:
    """Consistency in steps of a block, for sources defined only on block
    multiples of the site lattice."""
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    mode = "block_consistency" if block > 1 else "consistency"
    return _reduction_check(source, max_blocks * block, mode, block)
