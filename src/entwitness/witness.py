"""Concurrence and the entropic entanglement-witness report.

The witness succeeds while ``mu < 1``.  A report records the first crossing
time ``t_ew`` (so the witness works on ``[0, t_ew)``), the concurrence at the
crossing (the witnessed-concurrence interval is ``(threshold, 1]`` for a
maximally entangled start), and the time at which entanglement dies.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .dynamics import SystemState, Trajectory, channel_states
from .errors import EmptyTrajectory, NotXState
from .information import uncertainty_record
from .linalg import _as_matrix, _first, _scalar_or_stack, _where

_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)
_X_MASK = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]

X_STATE_TOL = 1e-10
CONCURRENCE_ZERO_TOL = 3e-3
CROSSING_TIME_TOL = 1e-10


def _psd_sqrt(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (h + h.conj().swapaxes(-1, -2)))
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)


def concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix, or of each in a stack.

    From the spectrum ``lambda_1 >= ... >= lambda_4`` of
    ``rho @ (sigma_y (x) sigma_y) conj(rho) (sigma_y (x) sigma_y)``:
    ``max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4))``, in [0, 1].

    The square roots are evaluated as singular values of
    ``sqrt(rho_tilde) @ sqrt(rho)`` (whose Gram matrix is similar to the
    product above), which keeps them accurate near zero where a direct
    eigenvalue solve of the non-Hermitian product loses half the digits.
    The spin flip is a real unitary involution, so
    ``sqrt(rho_tilde) = YY conj(sqrt(rho)) YY`` needs no second eigensolve.
    """
    sqrt_rho = _psd_sqrt(_as_matrix(rho, "rho", dims=(4,)))
    roots = np.linalg.svd(_YY @ sqrt_rho.conj() @ _YY @ sqrt_rho, compute_uv=False)
    c = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    return _scalar_or_stack(np.maximum(0.0, c))


def concurrence_x_state(rho):
    """Closed-form concurrence for X-form states (analytic cross-check).

    ``2 max(0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44))``
    (1-indexed entries).  Raises :class:`NotXState` if any entry outside the
    main diagonal and anti-diagonal exceeds ``X_STATE_TOL``.
    """
    a = _as_matrix(rho, "rho", dims=(4,))
    off = np.abs(np.where(_X_MASK, 0.0, a)).max(axis=(-2, -1))
    i = _first(off > X_STATE_TOL)
    if i is not None:
        raise NotXState(f"non-X entry of magnitude {off[i]:.3e}{_where(i)}")
    p = np.clip(a.diagonal(axis1=-2, axis2=-1).real, 0.0, None)
    outer = np.abs(a[..., 0, 3]) - np.sqrt(p[..., 1] * p[..., 2])
    inner = np.abs(a[..., 1, 2]) - np.sqrt(p[..., 0] * p[..., 3])
    return _scalar_or_stack(2.0 * np.maximum(np.maximum(0.0, outer), inner))


@dataclass
class WitnessReport:
    """Outcome of scanning a trajectory for the ``mu = 1`` witness boundary."""

    crossing_found: bool
    t_ew: float | None
    c_ew_threshold: float | None
    death_time: float | None
    mu_series_max: float
    notes: str = ""


def _require_samples(traj: Trajectory) -> None:
    if len(traj) == 0:
        raise EmptyTrajectory("trajectory has no samples")
    if traj.mu is None or len(traj.mu) == 0:
        raise EmptyTrajectory("trajectory has no derived samples")


def _exact_crossing(traj: Trajectory, lo: float, hi: float) -> tuple[float, float]:
    """Root of the exact ``mu(t) - 1`` in ``[lo, hi]`` and the concurrence there.

    The objective holds only a copy of the initial state and the reservoirs,
    not the trajectory: ``brentq`` wraps it in a self-referencing closure, so
    whatever it holds stays alive until the next full garbage collection.
    """
    initial = SystemState(float(traj.times[0]), traj.rhos[0].copy())
    r_a, r_b = traj.r_a, traj.r_b

    def state_at(t: float) -> np.ndarray:
        return channel_states(initial, r_a, r_b, t)[0]

    t_ew = float(brentq(lambda t: uncertainty_record(state_at(t), t).mu - 1.0, lo, hi,
                        xtol=CROSSING_TIME_TOL))
    return t_ew, concurrence(state_at(t_ew))


def witness_report(traj: Trajectory) -> WitnessReport:
    """Locate the first time ``mu`` reaches 1 and the concurrence there.

    The first sample with ``mu >= 1`` brackets the crossing together with the
    sample before it; inside that bracket one root-find on the exact ``mu(t)``
    of the closed-form state places ``t_ew`` to ``CROSSING_TIME_TOL``, and the
    threshold is the concurrence of the exact state at ``t_ew``.  Only the
    first crossing is reported; re-entry below 1 afterwards (seen on the
    samples) is flagged in ``notes``.
    """
    _require_samples(traj)
    times, mus, concs = traj.times, traj.mu, traj.concurrence
    death = entanglement_death_time(traj)
    mu_max = float(mus.max())

    above = mus >= 1.0
    if not above.any():
        return WitnessReport(crossing_found=False, t_ew=None, c_ew_threshold=None,
                             death_time=death, mu_series_max=mu_max)
    idx = int(np.argmax(above))
    notes = []
    if idx == 0:
        t_ew, threshold = float(times[0]), float(concs[0])
        notes.append("mu starts at or above 1")
    else:
        t_ew, threshold = _exact_crossing(traj, times[idx - 1], times[idx])
    if (mus[idx:] < 1.0).any():
        notes.append("mu re-enters below 1 after the first crossing")
    return WitnessReport(crossing_found=True, t_ew=t_ew,
                         c_ew_threshold=min(max(threshold, 0.0), 1.0),
                         death_time=death, mu_series_max=mu_max,
                         notes="; ".join(notes))


def entanglement_death_time(traj: Trajectory, zero_tol: float = CONCURRENCE_ZERO_TOL,
                            confirm_samples: int = 10) -> float | None:
    """First sampled time at which concurrence falls to zero and stays there.

    "Zero" means below ``zero_tol`` (the model's concurrence decays to zero
    asymptotically without an exact root, and near machine zero the general
    eigensolver route is noise-limited); the drop must persist for the next
    ``confirm_samples`` samples so that a transient dip during a revival
    oscillation is not flagged.  Returns None if entanglement survives the
    whole trajectory.
    """
    _require_samples(traj)
    window = confirm_samples + 1
    below = np.concatenate([[0], np.cumsum(traj.concurrence <= zero_tol)])
    starts = np.flatnonzero(below[window:] - below[:-window] == window)
    return float(traj.times[starts[0]]) if starts.size else None
