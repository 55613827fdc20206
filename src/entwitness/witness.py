"""Concurrence and the entropic entanglement-witness report.

The witness succeeds while ``mu < 1``.  A report records the first crossing
time ``t_ew`` (so the witness works on ``[0, t_ew)``), the concurrence at the
crossing (the witnessed-concurrence interval is ``(threshold, 1]`` for a
maximally entangled start), and the time at which entanglement dies.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, excited_population
from .errors import EmptyTrajectory
from .information import minimum_uncertainty
from .numerics import bracketed_root

CONCURRENCE_ZERO_TOL = 3e-3
CROSSING_TIME_TOL = 1e-10


def concurrence(p_a, p_b):
    """Wootters concurrence of the X state with excited populations ``p_a``, ``p_b``.

    ``2 max(0, |rho_00,11| - sqrt(rho_01,01 rho_10,10))`` for the damped Bell
    start, that is ``sqrt(p_A p_B) (1 - sqrt((1 - p_A)(1 - p_B)))`` (Bellomo,
    Lo Franco & Compagno, PRL 99, 160502 (2007)), element by element; in [0, 1].
    """
    p_a, p_b = np.asarray(p_a, dtype=float), np.asarray(p_b, dtype=float)
    return np.sqrt(p_a * p_b) * (1.0 - np.sqrt(np.maximum((1.0 - p_a) * (1.0 - p_b), 0.0)))


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


def _exact_crossing(traj: Trajectory, idx: int) -> tuple[float, float]:
    """Root of the exact ``mu(t) - 1`` between samples ``idx - 1`` and ``idx``, and ``C`` there.

    The objective runs the same element-wise array code as the sampled ``mu``
    column (on one-element arrays: numpy's scalar kernels may round
    differently), and the bracket's end values are taken from that column,
    so the root-find sees the sign change the samples show.  It holds only
    the two reservoirs, not the trajectory.
    """
    r_a, r_b = traj.r_a, traj.r_b

    def excess(t):
        return minimum_uncertainty(excited_population(r_a, t), excited_population(r_b, t)) - 1.0

    lo, hi = slice(idx - 1, idx), slice(idx, idx + 1)
    t_ew = bracketed_root(excess, traj.times[lo], traj.times[hi],
                          traj.mu[lo] - 1.0, traj.mu[hi] - 1.0, CROSSING_TIME_TOL)
    return float(t_ew[0]), float(concurrence(excited_population(r_a, t_ew),
                                             excited_population(r_b, t_ew))[0])


def witness_report(traj: Trajectory) -> WitnessReport:
    """Locate the first time ``mu`` reaches 1 and the concurrence there.

    The first sample with ``mu >= 1`` brackets the crossing together with the
    sample before it; inside that bracket one root-find on the exact
    ``mu(t)`` places ``t_ew`` to ``CROSSING_TIME_TOL``, and the threshold is
    the exact concurrence at ``t_ew``.  Only the first crossing is reported;
    re-entry below 1 afterwards (seen on the samples) is flagged in ``notes``.
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
        t_ew, threshold = _exact_crossing(traj, idx)
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
    asymptotically without an exact root); the drop must persist for the next
    ``confirm_samples`` samples so that a transient dip during a revival
    oscillation is not flagged.  Returns None if entanglement survives the
    whole trajectory.
    """
    _require_samples(traj)
    window = confirm_samples + 1
    below = np.concatenate([[0], np.cumsum(traj.concurrence <= zero_tol)])
    starts = np.flatnonzero(below[window:] - below[:-window] == window)
    return float(traj.times[starts[0]]) if starts.size else None
