"""Concurrence and the entropic entanglement-witness report.

The witness succeeds while ``mu < 1``.  A report records the first crossing
time ``t_ew`` (so the witness works on ``[0, t_ew)``), the concurrence at the
crossing (the witnessed-concurrence interval is ``(threshold, 1]`` for a
maximally entangled start), and the time at which entanglement dies.
Reports are made for a ``(G, N)`` batch of rows at once (:func:`witness_rows`),
as ``(G,)`` columns with one bracketed root-find for every crossing of the
batch; a single run is the batch with ``G = 1``.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import ReservoirColumns, excited_population
from .information import minimum_uncertainty
from .numerics import bracketed_root

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


class WitnessColumns(NamedTuple):
    """G rows' witness reports as ``(G,)`` columns, NaN for "none" (void in a failed row)."""

    crossing_found: np.ndarray
    t_ew: np.ndarray
    c_ew_threshold: np.ndarray
    death_time: np.ndarray
    mu_series_max: np.ndarray
    reenters: np.ndarray

    def report(self, g: int) -> WitnessReport:
        """Row ``g``'s :class:`WitnessReport`: None for each NaN, the note if ``reenters``."""
        found, t_ew, c_ew, death, mu_max, reenters = (c[g].item() for c in self)
        t_ew, c_ew, death = (None if math.isnan(x) else x for x in (t_ew, c_ew, death))
        return WitnessReport(found, t_ew, c_ew, death, mu_max,
                             "mu re-enters below 1 after the first crossing" if reenters else "")


def death_times(times, concs) -> np.ndarray:
    """Each row's first sampled time at which the concurrence falls to zero and stays there.

    ``concs`` is a ``(G, N)`` batch of concurrence rows sampled at ``times``.
    "Zero" means below ``CONCURRENCE_ZERO_TOL`` (the model's concurrence
    decays to zero asymptotically without an exact root); the drop must
    persist for the next ``CONFIRM_SAMPLES`` samples so that a transient dip
    during a revival oscillation is not flagged.  A row whose entanglement
    survives the whole grid gets NaN.
    """
    window = CONFIRM_SAMPLES + 1
    below = np.zeros((len(concs), concs.shape[-1] + 1), dtype=np.intp)
    np.cumsum(concs <= CONCURRENCE_ZERO_TOL, axis=-1, out=below[:, 1:])
    dead = below[:, window:] - below[:, :-window] == window
    deaths = np.full(len(concs), np.nan)
    if dead.shape[-1]:                         # else the grid is shorter than the window
        found = np.any(dead, axis=-1)
        deaths[found] = times[np.argmax(dead[found], axis=-1)]
    return deaths


def witness_rows(times, mu, concs, reservoirs: ReservoirColumns, good) -> WitnessColumns:
    """Witness reports of a ``(G, N)`` batch: first time each row's ``mu`` reaches 1.

    ``mu`` and ``concs`` hold each row's samples at ``times``; ``reservoirs`` are the
    rows' ``(2, G, 1)`` reservoir columns, for the exact ``mu(t)`` between samples.  A row's
    first sample with ``mu >= 1`` brackets its crossing together with the
    sample before it; one root-find over all these brackets places every
    ``t_ew`` to ``CROSSING_TIME_TOL``, and the threshold is the exact
    concurrence at ``t_ew``.  Only the first crossing is reported; re-entry
    below 1 afterwards (seen on the samples) is flagged in ``reenters``.
    Every row must start below 1, as every run does (at ``t = 0`` the decay integral
    is exactly 0, so ``p = 1`` and ``mu = 0``): each crossing has a sample before it.

    Only the rows set in the ``(G,)`` mask ``good`` get a root-find.  A row
    whose root-find does not finish keeps a NaN ``t_ew`` and threshold,
    though it crossed; every other row is unaffected.
    """
    above = mu >= 1.0
    crossed = np.any(above, axis=-1)
    first = np.argmax(above, axis=-1)
    reenters = crossed & np.any(~above & (np.arange(mu.shape[-1]) > first[:, None]), axis=-1)
    rows = np.flatnonzero(good & crossed)
    hi = first[rows]
    cut = reservoirs.take(rows)

    def excess(t):
        # the same element-wise code as the sampled mu, so the root-find sees
        # the sign change that the samples show
        return minimum_uncertainty(*excited_population(cut, t)) - 1.0

    t_ew, c_ew = np.full(len(mu), np.nan), np.full(len(mu), np.nan)
    t_ew[rows] = bracketed_root(excess, times[hi - 1], times[hi], mu[rows, hi - 1] - 1.0,
                                mu[rows, hi] - 1.0, CROSSING_TIME_TOL)
    c_ew[rows] = concurrence(*excited_population(cut, t_ew[rows]))
    return WitnessColumns(crossed, t_ew, np.minimum(np.maximum(c_ew, 0.0), 1.0),
                          death_times(times, concs), np.max(mu, axis=-1), reenters)
