"""Conditional expectation onto a product basis, and the state/measure bridge.

Fix one orthonormal basis u of the site space and use its tensor powers
as the chain basis {|w>}.  The pinching map

    E(a) = sum_w |w><w| a |w><w|

is the conditional expectation onto the maximal abelian subalgebra of
operators diagonal in that basis.  It is the sitewise product of the
complete-dephasing channel with Kraus operators |u_i><u_i|, so it runs
through the Kraus layer like any other channel, and a pinched source is
a channel-transformed source.  Diagonal entries of a state in the
same basis form a probability measure on words, mu(w) = <w| rho |w>,
and placing a measure back on the diagonal inverts the map.  The word
measure of a pinched source is the diagonal of its states, so the source
checks (check_consistency, check_stationarity) of
channel_transform_source(source, pinching_channel(basis)) test the measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, apply_dual, kraus_channel, unitary_channel
from .errors import ShapeMismatchError
from .operators import DensityOperator, Operator, density_operator

PINCH_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PinchingBasis:
    """A single-site orthonormal basis, used sitewise on any chain length.

    ``site_vectors`` holds the basis states as columns of a unitary.
    """

    site_vectors: np.ndarray

    def __post_init__(self):
        u = np.array(self.site_vectors, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ShapeMismatchError(f"basis must be a square matrix, got {u.shape}")
        dev = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
        if dev > PINCH_TOL:
            raise ValueError(f"basis columns are not orthonormal: deviation {dev:.3e}")
        u.setflags(write=False)
        object.__setattr__(self, "site_vectors", u)

    @property
    def site_dim(self) -> int:
        return self.site_vectors.shape[0]


def computational_basis(site_dim: int = 2) -> PinchingBasis:
    return PinchingBasis(np.eye(site_dim, dtype=complex))


def pinching_channel(basis: PinchingBasis) -> KrausChannel:
    """Complete dephasing in the basis: Kraus operators |u_i><u_i|.

    Every Kraus operator is a self-adjoint projector, so the channel is
    its own Heisenberg dual.
    """
    return kraus_channel(
        [np.outer(u, u.conj()) for u in basis.site_vectors.T], basis.site_dim
    )


def conditional_expectation(a: Operator, basis: PinchingBasis) -> Operator:
    """Zero every matrix element off the diagonal of the product basis.

    This is the dual of pinching_channel on every site.  In the
    computational basis every Kraus entry is 0 or 1, so the result is the
    exact diagonal mask and the map is exactly idempotent.
    """
    if a.site_dim != basis.site_dim:
        raise ShapeMismatchError("operator site dim does not match basis")
    return apply_dual(pinching_channel(basis), a)


def diagonal_observable(values, basis: PinchingBasis) -> Operator:
    """Member of the pinched subalgebra with the given word values.

    ``values`` is a (d,)*m array (complex allowed) of diagonal entries in
    the product basis.
    """
    arr = np.asarray(values, dtype=complex)
    d = basis.site_dim
    if arr.shape != (d,) * arr.ndim or arr.ndim < 1:
        raise ShapeMismatchError(f"values must have shape (d,)*m with d={d}, got {arr.shape}")
    # rotate out of the basis: U(x m) diag U^dag(x m)
    rotate = unitary_channel(basis.site_vectors.conj().T)
    return apply_dual(rotate, Operator(np.diag(arr.reshape(-1)), arr.ndim, d))


def state_to_measure(rho: Operator, basis: PinchingBasis) -> np.ndarray:
    """mu(w) = <w| rho |w> as a (d,)*m array of word probabilities."""
    if rho.site_dim != basis.site_dim:
        raise ShapeMismatchError("state site dim does not match basis")
    # rotate into the basis: U^dag(x m) rho U(x m)
    diag = np.diagonal(apply_dual(unitary_channel(basis.site_vectors), rho).entries)
    return np.real(diag).reshape((basis.site_dim,) * rho.sites)


def measure_to_state(values, basis: PinchingBasis) -> DensityOperator:
    """Diagonal state sum_w mu(w) |w><w| from a (d,)*m probability table."""
    arr = np.asarray(values, dtype=float)
    if np.any(arr < -PINCH_TOL):
        raise ValueError("word probabilities must be nonnegative")
    if abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError(f"word probabilities sum to {arr.sum()}, expected 1")
    return density_operator(diagonal_observable(np.clip(arr, 0.0, None), basis))


@dataclass(frozen=True)
class PinchingPropertyReport:
    """Numerical deviations of the pinching map from its defining properties.

    positivity: smallest eigenvalue of E(p) over random psd inputs p;
    idempotence: max |E(E(a)) - E(a)|; fixed points: max |E(b) - b| for
    diagonal b; module: max |E(a b) - E(a) b| for diagonal b; trace:
    max |tr E(a) - tr a|.
    """

    positivity_min_eig: float
    idempotence_deviation: float
    fixed_point_deviation: float
    module_deviation: float
    trace_deviation: float
    trials: int
    tol: float = PINCH_TOL

    @property
    def passed(self) -> bool:
        return (
            self.positivity_min_eig >= -self.tol
            and self.idempotence_deviation <= self.tol
            and self.fixed_point_deviation <= self.tol
            and self.module_deviation <= self.tol
            and self.trace_deviation <= self.tol
        )


def verify_expectation_properties(
    basis: PinchingBasis, sites: int, seed: int, trials: int = 8
) -> PinchingPropertyReport:
    """Exercise the conditional-expectation laws on seeded random operators."""
    d = basis.site_dim
    dim = d**sites
    rng = np.random.default_rng(seed)

    def pinch(x: np.ndarray) -> np.ndarray:
        return conditional_expectation(Operator(x, sites, d), basis).entries

    def dev(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.max(np.abs(x - y)))

    pos_min = np.inf
    idem = fixed = module = trace = 0.0
    for _ in range(trials):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = (m + m.conj().T) / 2.0
        diag_vals = rng.standard_normal((d,) * sites) + 1j * rng.standard_normal((d,) * sites)
        b = diagonal_observable(diag_vals, basis).entries

        ea = pinch(a)
        pos_min = min(pos_min, float(np.min(np.linalg.eigvalsh(pinch(m @ m.conj().T)))))
        idem = max(idem, dev(pinch(ea), ea))
        fixed = max(fixed, dev(pinch(b), b))
        module = max(module, dev(pinch(a @ b), ea @ b))
        trace = max(trace, float(abs(np.trace(ea) - np.trace(a))))
    return PinchingPropertyReport(float(pos_min), idem, fixed, module, trace, trials)
