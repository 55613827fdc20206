"""Entropic uncertainty quantities for complementary qubit measurements.

For the two polarization components ``S_x`` and ``S_y`` measured on atom A,
with atom B kept as a quantum memory, the uncertainty bound reads

    H(S_x|B) + H(S_y|B) >= log2(1/c) + H(A|B),      c = 1/2,

where ``H(X|B) = H(rho_XB) - H(rho_B)`` are conditional von Neumann entropies
in bits.  The right-hand side ``mu = 1 + H(A|B)`` is the minimum uncertainty;
``mu < 1`` (negative conditional entropy) witnesses entanglement between A
and B.  All functions are stateless and safe for concurrent use.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import TRACE_TOL, _as_matrix, matrix_entropy

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

# Pre-embedded measurement operators P (x) I_B, one pair per basis.
_MEAS_OPS = {
    basis.label: tuple(np.kron(p, _IDENTITY_2) for p in basis.projectors())
    for basis in (SX_BASIS, SY_BASIS)
}


@dataclass(frozen=True)
class UncertaintyRecord:
    """Entropic uncertainty quantities of one two-qubit state, in bits."""

    t: float
    h_sx_b: float
    h_sy_b: float
    lhs: float
    h_a_b: float
    mu: float


def partial_trace(rho, keep: str) -> np.ndarray:
    """Reduced 2x2 state of subsystem ``keep`` ("A" or "B") of a 4x4 state."""
    a = _as_matrix(rho)
    if a.shape[0] != 4:
        raise ValidationError(f"partial_trace: expected 4x4, got {a.shape}")
    if abs(np.trace(a) - 1.0) > TRACE_TOL:
        raise ValidationError(f"partial_trace: trace = {np.trace(a)}, expected 1")
    blocks = a.reshape(2, 2, 2, 2)  # indices (A row, B row, A col, B col)
    if keep == "A":
        return np.trace(blocks, axis1=1, axis2=3)
    if keep == "B":
        return np.trace(blocks, axis1=0, axis2=2)
    raise ValidationError(f"keep: expected 'A' or 'B', got {keep!r}")


def post_measurement_state(rho, basis: MeasurementBasis) -> np.ndarray:
    """State after a projective measurement of ``basis`` on atom A.

    Returns ``sum_j (P_j (x) I) rho (P_j (x) I)``: block-diagonal in the
    measured basis on A, trace preserving, idempotent.
    """
    a = _as_matrix(rho)
    if a.shape[0] != 4:
        raise ValidationError(f"post_measurement_state: expected 4x4, got {a.shape}")
    ops = _MEAS_OPS.get(basis.label)
    if ops is None:
        ops = tuple(np.kron(p, _IDENTITY_2) for p in basis.projectors())
    out = np.zeros_like(a)
    for op in ops:
        out += op @ a @ op
    return out


def conditional_entropy(rho_xb) -> float:
    """``H(rho_XB) - H(rho_B)`` in bits, with B the right tensor factor."""
    return matrix_entropy(rho_xb) - matrix_entropy(partial_trace(rho_xb, "B"))


def uncertainty_record(rho, t: float = 0.0) -> UncertaintyRecord:
    """Both measured-side entropies, the bound ``mu``, and the left-hand side.

    ``mu = log2(1/c) + H(A|B)`` with ``log2(1/c) = 1`` exactly for the
    mutually unbiased pair; ``lhs = H(Sx|B) + H(Sy|B)``.
    """
    h_sx_b = conditional_entropy(post_measurement_state(rho, SX_BASIS))
    h_sy_b = conditional_entropy(post_measurement_state(rho, SY_BASIS))
    h_a_b = conditional_entropy(rho)
    mu = 1.0 + h_a_b
    lhs = h_sx_b + h_sy_b
    if not -1.0 - 1e-7 <= mu <= 2.0 + 1e-7:
        raise ValidationError(f"mu = {mu} outside [-1, 2]")
    if lhs < mu - 1e-7:
        raise ValidationError(f"uncertainty inequality violated: lhs = {lhs}, mu = {mu}")
    return UncertaintyRecord(t=t, h_sx_b=h_sx_b, h_sy_b=h_sy_b, lhs=lhs,
                             h_a_b=h_a_b, mu=mu)
