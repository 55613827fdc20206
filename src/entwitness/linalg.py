"""Dense complex linear algebra on stacks of 2x2 and 4x4 matrices.

Matrices are plain ``numpy`` arrays of dtype ``complex128`` with shape
``(..., d, d)``: a stack of samples, or a single matrix (a stack of one, which
gives scalars).  Every check is a vectorised mask that raises on the first
offending sample and names its index.  Everything here is a pure function over
its arguments and safe to call concurrently.
"""

import numpy as np

from .errors import NoConvergence, NotDensityMatrix, NotHermitian, ValidationError

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-9


def _first(bad):
    """Index of the first set entry of a per-sample mask, or None if none is set."""
    bad = np.asarray(bad)
    return np.unravel_index(int(np.argmax(bad)), bad.shape) if bad.any() else None


def _where(index, times=None) -> str:
    """Name a sample of a stack (empty for a single matrix), with its time if known."""
    text = f" at sample {index[0] if len(index) == 1 else index}" if index else ""
    return text if times is None else f"{text} (t = {float(times[index]):.6g})"


def _scalar_or_stack(x):
    """A per-sample result: a float for a single matrix, else the array."""
    return float(x) if np.ndim(x) == 0 else x


def _as_matrix(m, name: str = "matrix", dims=(2, 4)) -> np.ndarray:
    """Coerce to a complex stack of ``d x d`` matrices, ``d`` in ``dims``, with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] not in dims:
        raise ValidationError(f"{name}: expected d x d matrices, d in {dims}, got {a.shape}")
    i = _first(~np.isfinite(a.view(float)).all(axis=(-2, -1)))
    if i is not None:
        raise ValidationError(f"{name}: non-finite entries{_where(i)}")
    return a


def hermitian_eigenvalues(m) -> np.ndarray:
    """Real eigenvalues of each Hermitian matrix, sorted ascending along the last axis.

    Raises
    ------
    NotHermitian
        if ``max |m - m^dag|`` of any matrix exceeds ``HERMITIAN_TOL``.
    NoConvergence
        if the underlying iterative solver fails.
    """
    a = _as_matrix(m)
    defect = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    i = _first(defect > HERMITIAN_TOL)
    if i is not None:
        raise NotHermitian(f"max |m - m^dag| = {defect[i]:.3e}{_where(i)}")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def matrix_entropy(m):
    """Von Neumann entropy ``-sum(lambda * log2(lambda))`` in bits, per matrix.

    Each input must be Hermitian with unit trace (within ``TRACE_TOL``) and
    eigenvalues above ``EIGENVALUE_FLOOR``; eigenvalues in the noise band
    ``[EIGENVALUE_FLOOR, 0)`` are clamped to zero and ``0 * log2(0) = 0``.

    Raises
    ------
    NotDensityMatrix
        if the trace or positivity tolerance is violated.
    """
    a = _as_matrix(m)
    tr = np.trace(a, axis1=-2, axis2=-1)
    i = _first(np.abs(tr - 1.0) > TRACE_TOL)
    if i is not None:
        raise NotDensityMatrix(f"trace = {tr[i]}, expected 1 within {TRACE_TOL}{_where(i)}")
    ev = hermitian_eigenvalues(a)
    i = _first(ev[..., 0] < EIGENVALUE_FLOOR)
    if i is not None:
        raise NotDensityMatrix(
            f"eigenvalue {ev[i][0]:.3e} below floor {EIGENVALUE_FLOOR}{_where(i)}")
    ev = np.clip(ev, 0.0, None)
    positive = ev > 0.0
    terms = np.where(positive, ev * np.log2(np.where(positive, ev, 1.0)), 0.0)
    return _scalar_or_stack(-np.sum(terms, axis=-1))
