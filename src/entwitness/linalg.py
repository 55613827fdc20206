"""Dense complex linear algebra on 2x2 and 4x4 matrices.

Matrices are plain ``numpy`` arrays of dtype ``complex128``.  Everything here
is a pure function over its arguments and safe to call concurrently.
"""

import numpy as np

from .errors import NoConvergence, NotDensityMatrix, NotHermitian, ValidationError

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-9


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex square array of dimension 2 or 4 with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 4):
        raise ValidationError(f"{name}: expected a 2x2 or 4x4 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValidationError(f"{name}: non-finite entries")
    return a


def hermitian_eigenvalues(m) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, sorted ascending.

    Raises
    ------
    NotHermitian
        if ``max |m - m^dag|`` exceeds ``HERMITIAN_TOL``.
    NoConvergence
        if the underlying iterative solver fails.
    """
    a = _as_matrix(m)
    if np.abs(a - a.conj().T).max() > HERMITIAN_TOL:
        raise NotHermitian(f"max |m - m^dag| = {np.abs(a - a.conj().T).max():.3e}")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def matrix_entropy(m) -> float:
    """Von Neumann entropy ``-sum(lambda * log2(lambda))`` in bits.

    The input must be Hermitian with unit trace (within ``TRACE_TOL``) and
    eigenvalues above ``EIGENVALUE_FLOOR``; eigenvalues in the noise band
    ``[EIGENVALUE_FLOOR, 0)`` are clamped to zero and ``0 * log2(0) = 0``.

    Raises
    ------
    NotDensityMatrix
        if the trace or positivity tolerance is violated.
    """
    a = _as_matrix(m)
    tr = np.trace(a)
    if abs(tr - 1.0) > TRACE_TOL:
        raise NotDensityMatrix(f"trace = {tr}, expected 1 within {TRACE_TOL}")
    ev = hermitian_eigenvalues(a)
    if ev[0] < EIGENVALUE_FLOOR:
        raise NotDensityMatrix(f"eigenvalue {ev[0]:.3e} below floor {EIGENVALUE_FLOOR}")
    ev = np.clip(ev, 0.0, None)
    nz = ev[ev > 0.0]
    return float(-np.sum(nz * np.log2(nz)))
