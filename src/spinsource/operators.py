"""Dense operator algebra for finite spin chains.

Everything lives on a chain of ``sites`` spins, each carrying a
``site_dim``-dimensional Hilbert space, so matrices have side length
``site_dim ** sites``.  Site 1 is the leftmost Kronecker factor.  All
values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ConfigError, ShapeMismatchError

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10

DEFAULT_DENSE_CAP = 4096  # max matrix side length; 2**12, i.e. 12 qubit sites
DENSE_CAP_ENV = "SPINSOURCE_DENSE_CAP"

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _p in (PAULI_X, PAULI_Y, PAULI_Z):
    _p.setflags(write=False)


def dense_cap() -> int:
    """Current dense matrix side-length cap (env override via SPINSOURCE_DENSE_CAP).

    A value that is not an integer >= 1 is a ConfigError naming the variable.
    """
    raw = os.environ.get(DENSE_CAP_ENV)
    if raw is None:
        return DEFAULT_DENSE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"must be an integer >= 1, not {raw!r}", DENSE_CAP_ENV)
    return cap


def _check_cap(dim: int, sites: int = 1) -> None:
    """The dense matrix side dim**sites fits the cap.

    With sites > 1, dim is a site dimension (>= 2), so a site count past the
    cap's bit length fails without computing the power, which a long
    horizon makes huge.
    """
    cap = dense_cap()
    short = sites <= cap.bit_length()
    if short and dim**sites <= cap:
        return
    side = dim**sites if short else f"{dim}**{sites}"
    raise CapExceededError(
        f"dense matrix side {side} exceeds cap {cap} (override with {DENSE_CAP_ENV})",
        cap=cap,
    )


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex square matrix on ``sites`` spins of dimension ``site_dim``."""

    entries: np.ndarray
    sites: int
    site_dim: int = 2

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeMismatchError(f"operator entries must be square, got {arr.shape}")
        if self.site_dim < 2:
            raise ValueError(f"site dimension must be >= 2, got {self.site_dim}")
        if self.sites < 1:
            raise ValueError(f"site count must be >= 1, got {self.sites}")
        if self.site_dim**self.sites != arr.shape[0]:
            raise ShapeMismatchError(
                f"matrix side {arr.shape[0]} != {self.site_dim}**{self.sites}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("operator entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_hermitian(self, tol: float = HERM_TOL) -> bool:
        return bool(np.max(np.abs(self.entries - self.entries.conj().T)) <= tol)


def _owned_operator(entries: np.ndarray, sites: int, site_dim: int) -> Operator:
    """An Operator around a complex square matrix the library has just built and hands
    over: frozen in place, with its shape checked against the site count, but neither
    copied nor scanned for non-finite entries.  For sums of products of validated
    states only; anything else goes through Operator."""
    if sites < 1 or entries.dtype != complex or entries.shape != (site_dim**sites,) * 2:
        raise ShapeMismatchError(f"{entries.dtype} matrix of shape {entries.shape} is no {site_dim}**{sites} operator")
    entries.setflags(write=False)
    op = object.__new__(Operator)
    op.__dict__.update(entries=entries, sites=sites, site_dim=site_dim)  # past the frozen __setattr__
    return op


@dataclass(frozen=True, eq=False)
class DensityOperator(Operator):
    """An Operator checked to be a state; for states that enter from outside the library."""

    def __post_init__(self):
        super().__post_init__()
        report = validate_density(self)
        if not report.passed:
            raise ValueError(f"not a valid density operator: {report}")


def as_operator(entries, site_dim: int = 2, sites: int | None = None) -> Operator:
    """Wrap a matrix, inferring the site count from its side length when omitted."""
    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {arr.shape}")
    if sites is None:
        dim = arr.shape[0]
        sites = round(np.log(dim) / np.log(site_dim))
        if site_dim**sites != dim:
            raise ShapeMismatchError(
                f"side {dim} is not a power of the site dimension {site_dim}"
            )
    return Operator(arr, sites, site_dim)


def density_operator(entries, site_dim: int = 2, sites: int | None = None) -> DensityOperator:
    """Wrap and validate a matrix (or an Operator) as a density operator; a
    DensityOperator is already valid and comes back unchanged."""
    if isinstance(entries, DensityOperator):
        return entries
    op = entries if isinstance(entries, Operator) else as_operator(entries, site_dim, sites)
    return DensityOperator(op.entries, op.sites, op.site_dim)


def identity_operator(sites: int, site_dim: int = 2) -> Operator:
    dim = site_dim**sites
    _check_cap(dim)
    return Operator(np.eye(dim, dtype=complex), sites, site_dim)


def word_projector(word, site_dim: int = 2) -> Operator:
    """Projector |w1...wm><w1...wm| onto a product basis word."""
    word = tuple(int(w) for w in word)
    if any(w < 0 or w >= site_dim for w in word):
        raise ValueError(f"word {word} has symbols outside range({site_dim})")
    dim = site_dim ** len(word)
    _check_cap(dim)
    idx = 0
    for w in word:
        idx = idx * site_dim + w
    mat = np.zeros((dim, dim), dtype=complex)
    mat[idx, idx] = 1.0
    return Operator(mat, len(word), site_dim)


def tensor_product(a: Operator, b: Operator) -> Operator:
    """Kronecker product with ``a`` on the lower (leftmost) site indices."""
    if a.site_dim != b.site_dim:
        raise ShapeMismatchError(
            f"site dimensions differ: {a.site_dim} vs {b.site_dim}"
        )
    _check_cap(a.dim * b.dim)
    return Operator(np.kron(a.entries, b.entries), a.sites + b.sites, a.site_dim)


def embed_observable(a: Operator, left_pad: int, right_pad: int) -> Operator:
    """Pad with identities: I^(x left_pad) (x) a (x) I^(x right_pad)."""
    if left_pad < 0 or right_pad < 0:
        raise ValueError("pads must be >= 0")
    d = a.site_dim
    dim = a.dim * d ** (left_pad + right_pad)
    _check_cap(dim)
    out = a.entries
    if left_pad:
        out = np.kron(np.eye(d**left_pad, dtype=complex), out)
    if right_pad:
        out = np.kron(out, np.eye(d**right_pad, dtype=complex))
    return Operator(out, a.sites + left_pad + right_pad, d)


def trace_pairing(rho: Operator, a: Operator) -> complex:
    """tr(rho a); real up to rounding when ``a`` is Hermitian and rho is a state."""
    rho_m = rho.entries if hasattr(rho, "entries") else np.asarray(rho)
    if rho_m.shape != a.entries.shape:
        raise ShapeMismatchError(f"dims differ: {rho_m.shape} vs {a.entries.shape}")
    return complex(np.einsum("ij,ji->", rho_m, a.entries))


@dataclass(frozen=True)
class DensityReport:
    """Deviations of a candidate matrix from the density-operator invariants."""

    hermiticity_deviation: float
    min_eigenvalue: float
    trace_deviation: float
    hermiticity_tol: float = HERM_TOL
    psd_tol: float = PSD_TOL
    trace_tol: float = TRACE_TOL

    @property
    def passed(self) -> bool:
        return (
            self.hermiticity_deviation <= self.hermiticity_tol
            and self.min_eigenvalue >= -self.psd_tol
            and self.trace_deviation <= self.trace_tol
        )


def validate_density(op: Operator) -> DensityReport:
    """Report Hermiticity, positivity, and trace deviations of a square matrix."""
    m = op.entries
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    min_eig = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)))
    trace_dev = float(abs(np.trace(m) - 1.0))
    return DensityReport(herm_dev, min_eig, trace_dev)


def random_observable(sites: int, seed: int, site_dim: int = 2, scale: float = 1.0) -> Operator:
    """Seeded random Hermitian operator with operator norm equal to ``scale``.

    Gaussian real and imaginary parts, symmetrized as (M + M†)/2, then
    rescaled so the spectral norm is exactly ``scale``.  Identical seeds
    give bit-identical matrices.
    """
    dim = site_dim**sites
    _check_cap(dim)
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (m + m.conj().T) / 2.0
    norm = np.max(np.abs(np.linalg.eigvalsh(h)))
    return Operator(h * (scale / norm), sites, site_dim)


def random_density(sites: int, seed: int, site_dim: int = 2) -> DensityOperator:
    """Seeded random full-rank density operator (normalized M M†)."""
    dim = site_dim**sites
    _check_cap(dim)
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    p = m @ m.conj().T
    return DensityOperator(p / np.trace(p).real, sites, site_dim)


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed random unitary (QR of a complex Ginibre matrix)."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases[None, :]
