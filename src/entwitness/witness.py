"""Concurrence and the entropic entanglement-witness report.

The witness succeeds while ``mu < 1``.  A report records the first crossing
time ``t_ew`` (so the witness works on ``[0, t_ew)``), the concurrence at the
crossing (the witnessed-concurrence interval is ``(threshold, 1]`` for a
maximally entangled start), and the time at which entanglement dies.
Reports are made for a ``(G, N)`` batch of rows at once (:func:`witness_rows`),
with one bracketed root-find for every crossing of the batch; a single
trajectory is the batch with ``G = 1``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ReservoirColumns, Trajectory, excited_population
from .errors import EmptyTrajectory, NoConvergence
from .information import minimum_uncertainty
from .numerics import MAX_EVALUATIONS, bracketed_root, raise_first

CONCURRENCE_ZERO_TOL = 3e-3
CONFIRM_SAMPLES = 10
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


def death_times(times, concs, zero_tol: float = CONCURRENCE_ZERO_TOL,
                confirm_samples: int = CONFIRM_SAMPLES) -> list[float | None]:
    """Each row's first sampled time at which the concurrence falls to zero and stays there.

    ``concs`` is a ``(G, N)`` batch of concurrence rows sampled at ``times``.
    "Zero" means below ``zero_tol`` (the model's concurrence decays to zero
    asymptotically without an exact root); the drop must persist for the next
    ``confirm_samples`` samples so that a transient dip during a revival
    oscillation is not flagged.  A row whose entanglement survives the whole
    grid gets None.
    """
    window = confirm_samples + 1
    below = np.zeros((len(concs), concs.shape[-1] + 1), dtype=np.intp)
    np.cumsum(concs <= zero_tol, axis=-1, out=below[:, 1:])
    dead = below[:, window:] - below[:, :-window] == window
    if dead.shape[-1] == 0:                    # the grid is shorter than the window
        return [None] * len(concs)
    starts = np.argmax(dead, axis=-1)
    return [float(times[k]) if found else None
            for k, found in zip(starts.tolist(), np.any(dead, axis=-1).tolist())]


def witness_rows(times, mu, concs, r_a: ReservoirColumns, r_b: ReservoirColumns,
                 errors) -> list[WitnessReport | None]:
    """Witness reports of a ``(G, N)`` batch: first time each row's ``mu`` reaches 1.

    ``mu`` and ``concs`` hold each row's samples at ``times``; ``r_a``, ``r_b``
    are the rows' reservoirs, for the exact ``mu(t)`` between samples.  A row's
    first sample with ``mu >= 1`` brackets its crossing together with the
    sample before it; one root-find over all these brackets places every
    ``t_ew`` to ``CROSSING_TIME_TOL``, and the threshold is the exact
    concurrence at ``t_ew``.  Only the first crossing is reported; re-entry
    below 1 afterwards (seen on the samples) is flagged in ``notes``.

    A row with an error in ``errors`` gets None.  So does a row whose
    root-find does not converge, and its entry in ``errors`` becomes a
    :class:`NoConvergence`; every other row is unaffected.
    """
    above = mu >= 1.0
    crossed = np.any(above, axis=-1)
    first = np.argmax(above, axis=-1)
    reenters = np.any(~above & (np.arange(mu.shape[-1]) > first[:, None]), axis=-1)
    good = np.array([error is None for error in errors], dtype=bool)
    rows = np.flatnonzero(good & crossed & (first > 0))
    hi = first[rows]
    cut_a, cut_b = r_a.take(rows), r_b.take(rows)

    def excess(t):
        # the same element-wise code as the sampled mu, so the root-find sees
        # the sign change that the samples show
        return minimum_uncertainty(excited_population(cut_a, t),
                                   excited_population(cut_b, t)) - 1.0

    t_ew = bracketed_root(excess, times[hi - 1], times[hi], mu[rows, hi - 1] - 1.0,
                          mu[rows, hi] - 1.0, CROSSING_TIME_TOL)
    c_ew = concurrence(excited_population(cut_a, t_ew), excited_population(cut_b, t_ew))
    crossing = dict(zip(rows.tolist(), zip(t_ew.tolist(), c_ew.tolist())))

    for g, (t, _) in crossing.items():
        if math.isnan(t):
            errors[g] = NoConvergence(f"crossing root-find not done after "
                                      f"{MAX_EVALUATIONS} evaluations")

    deaths = death_times(times, concs)
    mu_max = np.max(mu, axis=-1).tolist()
    reports = []
    for g, (error, found, again) in enumerate(zip(errors, crossed.tolist(), reenters.tolist())):
        if error is not None:
            reports.append(None)
            continue
        if not found:
            reports.append(WitnessReport(crossing_found=False, t_ew=None, c_ew_threshold=None,
                                         death_time=deaths[g], mu_series_max=mu_max[g]))
            continue
        notes = []
        if g in crossing:
            t, threshold = crossing[g]
        else:
            t, threshold = float(times[0]), float(concs[g, 0])
            notes.append("mu starts at or above 1")
        if again:
            notes.append("mu re-enters below 1 after the first crossing")
        reports.append(WitnessReport(crossing_found=True, t_ew=t,
                                     c_ew_threshold=min(max(threshold, 0.0), 1.0),
                                     death_time=deaths[g], mu_series_max=mu_max[g],
                                     notes="; ".join(notes)))
    return reports


def witness_report(traj: Trajectory) -> WitnessReport:
    """The :func:`witness_rows` report of one trajectory, whose ``mu`` column is filled.

    Raises
    ------
    NoConvergence
        if the crossing root-find does not converge.
    """
    _require_samples(traj)
    errors = [None]
    reports = witness_rows(traj.times, traj.mu[None], traj.concurrence[None],
                           ReservoirColumns.stack([traj.r_a]),
                           ReservoirColumns.stack([traj.r_b]), errors)
    raise_first(errors)
    return reports[0]


def entanglement_death_time(traj: Trajectory, zero_tol: float = CONCURRENCE_ZERO_TOL,
                            confirm_samples: int = CONFIRM_SAMPLES) -> float | None:
    """The :func:`death_times` entry of one trajectory, or None if entanglement survives."""
    _require_samples(traj)
    return death_times(traj.times, traj.concurrence[None], zero_tol, confirm_samples)[0]
