"""Entropic uncertainty quantities for complementary qubit measurements.

For the two polarization components ``S_x`` and ``S_y`` measured on atom A,
with atom B kept as a quantum memory, the uncertainty bound reads

    H(S_x|B) + H(S_y|B) >= log2(1/c) + H(A|B),      c = 1/2,

where ``H(X|B) = H(rho_XB) - H(rho_B)`` are conditional von Neumann entropies
in bits.  The right-hand side ``mu = 1 + H(A|B)`` is the minimum uncertainty;
``mu < 1`` (negative conditional entropy) witnesses entanglement between A
and B.  Every function takes one 4x4 state or a ``(..., 4, 4)`` stack of them.
All functions are stateless and safe for concurrent use.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotDensityMatrix, ValidationError
from .linalg import TRACE_TOL, _as_matrix, _first, _where, matrix_entropy

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_IDENTITY_2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal eigenbasis of a measured observable on atom A.

    Only the eigenprojectors matter for every entropic quantity, so the
    observable's eigenvalues are not stored.  Global phases are fixed
    (first amplitude real positive) to keep derived numbers bit-stable.
    """

    label: str
    vectors: tuple[np.ndarray, np.ndarray]

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(np.outer(v, v.conj()) for v in self.vectors)


SX_BASIS = MeasurementBasis("Sx", (
    np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex),
    np.array([_SQRT_HALF, -_SQRT_HALF], dtype=complex),
))
SY_BASIS = MeasurementBasis("Sy", (
    np.array([_SQRT_HALF, 1j * _SQRT_HALF], dtype=complex),
    np.array([_SQRT_HALF, -1j * _SQRT_HALF], dtype=complex),
))


@dataclass(frozen=True)
class UncertaintyRecord:
    """Entropic uncertainty quantities in bits: floats for one state, arrays for a stack."""

    t: float | np.ndarray
    h_sx_b: float | np.ndarray
    h_sy_b: float | np.ndarray
    lhs: float | np.ndarray
    h_a_b: float | np.ndarray
    mu: float | np.ndarray


def partial_trace(rho, keep: str) -> np.ndarray:
    """Reduced 2x2 states of subsystem ``keep`` ("A" or "B") of 4x4 states."""
    a = _as_matrix(rho, "partial_trace", dims=(4,))
    tr = np.trace(a, axis1=-2, axis2=-1)
    i = _first(np.abs(tr - 1.0) > TRACE_TOL)
    if i is not None:
        raise ValidationError(f"partial_trace: trace = {tr[i]}, expected 1{_where(i)}")
    blocks = a.reshape(a.shape[:-2] + (2, 2, 2, 2))  # (A row, B row, A col, B col)
    if keep == "A":
        return np.trace(blocks, axis1=-3, axis2=-1)
    if keep == "B":
        return np.trace(blocks, axis1=-4, axis2=-2)
    raise ValidationError(f"keep: expected 'A' or 'B', got {keep!r}")


def post_measurement_state(rho, basis: MeasurementBasis) -> np.ndarray:
    """States after a projective measurement of ``basis`` on atom A.

    Returns ``sum_j (P_j (x) I) rho (P_j (x) I)``: block-diagonal in the
    measured basis on A, trace preserving, idempotent.
    """
    a = _as_matrix(rho, "post_measurement_state", dims=(4,))
    out = np.zeros_like(a)
    for p in basis.projectors():
        op = np.kron(p, _IDENTITY_2)
        out += op @ a @ op
    return out


def uncertainty_record(rho, t=0.0) -> UncertaintyRecord:
    """Both measured-side entropies, the bound ``mu``, and the left-hand side.

    ``mu = log2(1/c) + H(A|B)`` with ``log2(1/c) = 1`` exactly for the
    mutually unbiased pair; ``lhs = H(Sx|B) + H(Sy|B)``.  ``rho`` is one state
    or a stack with sample times ``t``; each entropy is one batched
    eigenvalue solve over the stack, and the memory's ``H(rho_B)`` is computed
    once, since measuring A leaves B's marginal unchanged.

    Raises
    ------
    NotDensityMatrix
        naming the first sample with ``mu`` outside [-1, 2] or with
        ``lhs < mu`` (beyond 1e-7): the state is not physical.
    """
    a = _as_matrix(rho, "rho", dims=(4,))
    h_joint = matrix_entropy(a)
    h_b = matrix_entropy(partial_trace(a, "B"))
    h_a_b = h_joint - h_b
    h_sx_b = matrix_entropy(post_measurement_state(a, SX_BASIS)) - h_b
    h_sy_b = matrix_entropy(post_measurement_state(a, SY_BASIS)) - h_b
    mu = 1.0 + h_a_b
    lhs = h_sx_b + h_sy_b
    mu_arr, lhs_arr = np.asarray(mu), np.asarray(lhs)
    times = np.broadcast_to(np.asarray(t, dtype=float), mu_arr.shape)
    i = _first(~((mu_arr >= -1.0 - 1e-7) & (mu_arr <= 2.0 + 1e-7)))
    if i is not None:
        raise NotDensityMatrix(f"mu = {mu_arr[i]} outside [-1, 2]{_where(i, times)}")
    i = _first(lhs_arr < mu_arr - 1e-7)
    if i is not None:
        raise NotDensityMatrix(f"uncertainty inequality violated: lhs = {lhs_arr[i]}, "
                               f"mu = {mu_arr[i]}{_where(i, times)}")
    return UncertaintyRecord(t=t, h_sx_b=h_sx_b, h_sy_b=h_sy_b, lhs=lhs, h_a_b=h_a_b, mu=mu)
