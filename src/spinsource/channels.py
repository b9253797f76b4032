"""Kraus channels: validation, sitewise application, duals, and a standard library.

A channel acts as E(rho) = sum_i A_i rho A_i^dag with completeness
sum_i A_i^dag A_i = I.  Applying a channel to a chain state means acting
with E on every site (or every aligned block for a block channel).  The
Heisenberg dual acts on observables as a -> sum_i A_i^dag a A_i and obeys
tr(E(rho) a) = tr(rho dual(a)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, AlphabetError, CapExceededError, ShapeMismatchError
from .operators import Operator, haar_unitary

KRAUS_TOL = 1e-10
KRAUS_COUNT_CAP = 4096
UNIT_NORM_TOL = 1e-12
GRAM_MIN_EIG = 1e-10


def _check_kraus_count(count: int) -> None:
    if count > KRAUS_COUNT_CAP:
        raise CapExceededError(
            f"{count} Kraus operators exceeds cap {KRAUS_COUNT_CAP}", cap=KRAUS_COUNT_CAP
        )


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A finite family of equal-shape square Kraus operators.

    Construction checks shapes and finiteness only; completeness is the
    job of validate_kraus (and of kraus_channel and channel-transformed
    sources).  This keeps deliberately broken families constructible.
    """

    operators: tuple
    dim: int

    def __post_init__(self):
        ops = tuple(np.array(a, dtype=complex) for a in self.operators)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        _check_kraus_count(len(ops))
        for a in ops:
            if a.shape != (self.dim, self.dim):
                raise ShapeMismatchError(
                    f"Kraus operator shape {a.shape} != ({self.dim}, {self.dim})"
                )
            if not np.all(np.isfinite(a)):
                raise ValueError("Kraus entries must be finite")
            a.setflags(write=False)
        object.__setattr__(self, "operators", ops)

    def __len__(self) -> int:
        return len(self.operators)


@dataclass(frozen=True)
class KrausReport:
    """Deviation of sum A_i^dag A_i from the identity."""

    completeness_deviation: float
    operator_count: int
    dim: int
    tol: float = KRAUS_TOL

    @property
    def passed(self) -> bool:
        return self.completeness_deviation <= self.tol


def validate_kraus(channel: KrausChannel) -> KrausReport:
    acc = np.zeros((channel.dim, channel.dim), dtype=complex)
    for a in channel.operators:
        acc += a.conj().T @ a
    dev = float(np.max(np.abs(acc - np.eye(channel.dim))))
    return KrausReport(dev, len(channel), channel.dim)


def kraus_channel(operators, dim: int | None = None) -> KrausChannel:
    """Build a channel and require completeness within KRAUS_TOL."""
    ops = [np.asarray(a, dtype=complex) for a in operators]
    if dim is None:
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
    return _require_trace_preserving(KrausChannel(tuple(ops), dim))


def _require_trace_preserving(channel: KrausChannel) -> KrausChannel:
    """Check completeness once per channel: a channel that passes is marked, and
    its read-only operators keep it complete, so a marked channel is not checked again."""
    if channel.__dict__.get("_trace_preserving"):
        return channel
    report = validate_kraus(channel)
    if not report.passed:
        raise ValueError(
            f"Kraus family is not trace preserving: completeness deviation "
            f"{report.completeness_deviation:.3e} > {report.tol}"
        )
    channel.__dict__["_trace_preserving"] = True
    return channel


def dual_channel(channel: KrausChannel) -> KrausChannel:
    """Heisenberg dual: the same family with every operator adjointed.

    The dual of a trace-preserving channel is unital, not necessarily
    trace preserving, so no completeness check applies here.
    """
    return KrausChannel(tuple(a.conj().T for a in channel.operators), channel.dim)


# ---------------------------------------------------------------------------
# sitewise application
# ---------------------------------------------------------------------------


def _block_sites(site_dim: int, channel_dim: int) -> int:
    """Sites one channel block spans, or raise AlignmentError."""
    block, d = 1, site_dim
    while d < channel_dim:
        d *= site_dim
        block += 1
    if d != channel_dim:
        raise AlignmentError(
            f"channel dim {channel_dim} is not a positive power of site dim {site_dim}"
        )
    return block


def _block_layout(op_sites: int, site_dim: int, channel_dim: int):
    """Number of channel blocks covering the chain, or raise AlignmentError."""
    block = _block_sites(site_dim, channel_dim)
    if op_sites % block != 0:
        raise AlignmentError(
            f"channel spans {block} sites, which does not divide {op_sites}"
        )
    return op_sites // block, channel_dim


def _apply_sitewise(kraus, entries: np.ndarray, n_blocks: int, block_dim: int) -> np.ndarray:
    out = entries
    shape = entries.shape
    for j in range(n_blocks):
        left = block_dim**j
        right = block_dim ** (n_blocks - j - 1)
        t = out.reshape(left, block_dim, right, left, block_dim, right)
        acc = np.zeros_like(t)
        for a in kraus:
            acc += np.einsum("ac,lcrmes,be->larmbs", a, t, a.conj())
        out = acc.reshape(shape)
    return out


def apply_channel(channel: KrausChannel, rho: Operator) -> Operator:
    """Schroedinger picture: act on every site (or block); maps states to states."""
    n_blocks, block_dim = _block_layout(rho.sites, rho.site_dim, channel.dim)
    out = _apply_sitewise(channel.operators, rho.entries, n_blocks, block_dim)
    return Operator(out, rho.sites, rho.site_dim)


def apply_dual(channel: KrausChannel, a: Operator) -> Operator:
    """Heisenberg picture: a -> sum_i A_i^dag a A_i on every site (or block)."""
    n_blocks, block_dim = _block_layout(a.sites, a.site_dim, channel.dim)
    duals = [k.conj().T for k in channel.operators]
    out = _apply_sitewise(duals, a.entries, n_blocks, block_dim)
    return Operator(out, a.sites, a.site_dim)


# ---------------------------------------------------------------------------
# quantum alphabets
# ---------------------------------------------------------------------------


def validate_alphabet(vectors, site_dim: int | None = None) -> np.ndarray:
    """Check a family of state vectors usable as a quantum alphabet.

    Rows must be unit norm (within 1e-12) and linearly independent
    (Gram matrix min eigenvalue above 1e-10).  Returns a read-only
    (k, d) complex array.
    """
    arr = np.array(vectors, dtype=complex)
    if arr.ndim != 2:
        raise AlphabetError(f"alphabet must be a (k, d) array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise AlphabetError("alphabet entries must be finite")
    k, d = arr.shape
    if site_dim is not None and d != site_dim:
        raise AlphabetError(f"alphabet vectors have dim {d}, expected {site_dim}")
    if k < 1:
        raise AlphabetError("alphabet must contain at least one vector")
    if k > d:
        raise AlphabetError(
            f"{k} vectors in dimension {d} cannot be linearly independent"
        )
    norms = np.linalg.norm(arr, axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    if worst > UNIT_NORM_TOL:
        raise AlphabetError(f"alphabet vectors must be unit norm, worst deviation {worst:.3e}")
    gram = arr.conj() @ arr.T
    min_eig = float(np.min(np.linalg.eigvalsh(gram)))
    if min_eig <= GRAM_MIN_EIG:
        raise AlphabetError(
            f"alphabet vectors are (near) linearly dependent: "
            f"Gram min eigenvalue {min_eig:.3e}"
        )
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# standard channels
# ---------------------------------------------------------------------------


def identity_channel(dim: int = 2) -> KrausChannel:
    return kraus_channel([np.eye(dim, dtype=complex)], dim)


def depolarizing_channel(p: float, dim: int = 2) -> KrausChannel:
    """rho -> (1 - p) rho + p I/dim.

    Qubit form uses the Pauli family; higher dimensions use the
    discrete Weyl (shift and clock) family.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength must be in [0, 1], got {p}")
    n = dim * dim
    _check_kraus_count(n)  # before building any of the n operators
    ops = [np.sqrt(1.0 - p * (n - 1) / n) * np.eye(dim, dtype=complex)]
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    w = np.sqrt(p / n)
    for j in range(dim):
        for k in range(dim):
            if j == 0 and k == 0:
                continue
            ops.append(w * (np.linalg.matrix_power(shift, j) @ np.linalg.matrix_power(clock, k)))
    return kraus_channel(ops, dim)


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    """Qubit decay toward |0>: K0 = diag(1, sqrt(1-g)), K1 = sqrt(g) |0><1|."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping rate must be in [0, 1], got {gamma}")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return kraus_channel([k0, k1], 2)


def phase_damping_channel(lam: float) -> KrausChannel:
    """Qubit dephasing: diagonals preserved, off-diagonals scaled by 1 - lam."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"dephasing rate must be in [0, 1], got {lam}")
    k0 = np.sqrt(1.0 - lam) * np.eye(2, dtype=complex)
    k1 = np.sqrt(lam) * np.diag([1.0, 0.0]).astype(complex)
    k2 = np.sqrt(lam) * np.diag([0.0, 1.0]).astype(complex)
    return kraus_channel([k0, k1, k2], 2)


def unitary_channel(u) -> KrausChannel:
    """Single-operator channel rho -> U rho U^dag; U must be unitary."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {u.shape}")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if dev > KRAUS_TOL:
        raise ValueError(f"matrix is not unitary: deviation {dev:.3e}")
    return kraus_channel([u], u.shape[0])


def random_unitary_channel(dim: int, seed: int) -> KrausChannel:
    return unitary_channel(haar_unitary(dim, seed))


def embedding_channel(alphabet, site_dim: int | None = None) -> KrausChannel:
    """Channel A_i = |psi_i><e_i| mapping basis state i to alphabet vector psi_i.

    For k alphabet vectors in dimension d with k < d, the family is
    completed with operators |psi_1><e_j| for the unused basis states j,
    so completeness holds exactly.  The completion never acts on states
    supported on the first k basis directions.
    """
    arr = validate_alphabet(alphabet, site_dim)
    k, d = arr.shape
    ops = []
    for i in range(k):
        a = np.zeros((d, d), dtype=complex)
        a[:, i] = arr[i]
        ops.append(a)
    for j in range(k, d):
        a = np.zeros((d, d), dtype=complex)
        a[:, j] = arr[0]
        ops.append(a)
    return kraus_channel(ops, d)


def _is_real(value) -> bool:
    """A real number; true and false are not read as 1 and 0.  Plain types, not numbers.Real:
    that abstract-class check on every config matrix entry lifted a dense run's peak RSS by 3 MB."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _is_seed(value) -> bool:
    return _is_real(value) and isinstance(value, (int, np.integer)) and value >= 0


# parameter kinds: (what a value must be, test of a value)
_NUMBER = ("a number", _is_real)
_SEED = ("an integer >= 0", _is_seed)
_MATRIX = ("a matrix", lambda value: True)  # embedding_channel validates the alphabet itself

# name -> ({parameter name: kind}, builder(params, dim))
_STANDARD_CHANNELS = {
    "identity": ({}, lambda params, dim: identity_channel(dim)),
    "depolarizing": ({"p": _NUMBER}, lambda params, dim: depolarizing_channel(float(params["p"]), dim)),
    "amplitude_damping": (
        {"gamma": _NUMBER}, lambda params, dim: amplitude_damping_channel(float(params["gamma"]))
    ),
    "phase_damping": ({"lam": _NUMBER}, lambda params, dim: phase_damping_channel(float(params["lam"]))),
    "random_unitary": (
        {"seed": _SEED}, lambda params, dim: random_unitary_channel(dim, int(params["seed"]))
    ),
    "embedding": ({"alphabet": _MATRIX}, lambda params, dim: embedding_channel(params["alphabet"], dim)),
}


def make_standard_channel(name: str, params: dict | None = None, dim: int = 2) -> KrausChannel:
    """Dispatch a channel by name; used by config-driven runs.

    Known names: identity, depolarizing(p), amplitude_damping(gamma),
    phase_damping(lam), random_unitary(seed), embedding(alphabet).  p, gamma
    and lam are numbers and seed an integer >= 0, as config loading checks;
    an unknown parameter or one of the wrong kind raises ValueError naming it.
    """
    params = params or {}
    try:
        kinds, make = _STANDARD_CHANNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown channel {name!r}; known: {sorted(_STANDARD_CHANNELS)}"
        ) from None
    for key, value in params.items():
        if key not in kinds:
            raise ValueError(f"channel {name!r} takes no parameter {key!r}; known: {list(kinds)}")
        what, ok = kinds[key]
        if not ok(value):
            raise ValueError(f"channel {name!r} parameter {key!r} must be {what}, got {value!r}")
    try:
        return make(params, dim)
    except KeyError as exc:
        raise ValueError(f"channel {name!r} is missing parameter {exc}") from None
