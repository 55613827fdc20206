"""Everything read off the two excited populations: uncertainty, concurrence, witness.

For the two polarization components ``S_x`` and ``S_y`` measured on atom A,
with atom B kept as a quantum memory, the uncertainty bound reads

    H(S_x|B) + H(S_y|B) >= log2(1/c) + H(A|B),      c = 1/2,

where ``H(X|B) = H(rho_XB) - H(rho_B)`` are conditional von Neumann entropies
in bits.  The right-hand side ``mu = 1 + H(A|B)`` is the minimum uncertainty;
``mu < 1`` (negative conditional entropy) witnesses entanglement between A
and B (Berta et al., Nat. Phys. 6, 659 (2010)).

Under two local amplitude dampings the Bell start stays an X state whose
entries depend only on the excited-state populations ``p_A``, ``p_B``
(:func:`entwitness.dynamics.excited_population`):

    rho_11,11 = p_A p_B / 2,   rho_10,10 = p_A (1 - p_B) / 2,
    rho_01,01 = (1 - p_A) p_B / 2,   |rho_00,11| = sqrt(p_A p_B) / 2,

and ``rho_00,00`` the rest.  Its spectrum is that of the ``{|00>, |11>}``
block plus the two middle populations; the memory's marginal is
``diag(1 - p_B/2, p_B/2)``; and measuring ``S_x`` or ``S_y`` on A leaves two
2x2 blocks of weight 1/2 with the common spectrum
``1/2 +- sqrt((1 - p_B)^2 / 4 + p_A p_B / 4)``, so ``H(S_x|B) = H(S_y|B)``.
Every quantity is therefore a short element-wise function of ``p_A`` and
``p_B``, given as scalars, per-sample columns or ``(G, N)`` batches of rows.

The witness succeeds while ``mu < 1``.  A report records the first crossing
time ``t_ew`` (so the witness works on ``[0, t_ew)``), the concurrence at the
crossing (the witnessed-concurrence interval is ``(threshold, 1]`` for a
maximally entangled start), and the time at which entanglement dies.
Reports are made for a ``(G, N)`` batch of rows at once (:func:`witness_rows`),
as ``(G,)`` columns with one bracketed root-find (:func:`bracketed_root`) for
every crossing of the batch; a single run is the batch with ``G = 1``.  The
root-find's objective, :func:`minimum_uncertainty`, stacks its six entropy
terms as one array and sums them in the order of the sampled column
(:func:`uncertainty_columns`), so both give the same bits; the sampled
columns sum term by term, so that a ``(G, N)`` block keeps few arrays of its
size alive.  For identical reservoirs, decided once per root-find, the
objective evaluates one atom's populations for both.  All functions are
stateless and safe to call concurrently on distinct arguments.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import ReservoirColumns, excited_population

CONCURRENCE_ZERO_TOL = 3e-3
CONFIRM_SAMPLES = 10
CROSSING_TIME_TOL = 1e-10


def entropy_bits(*probs):
    """Shannon entropy ``-sum(p * log2(p))`` in bits over ``probs``, element by element.

    Each argument is one probability (or column of probabilities) of the
    distribution; ``0 * log2(0) = 0``, and a rounding-level negative entry
    counts as zero.
    """
    total = 0.0
    for p in probs:
        p = np.asarray(p, dtype=float)
        total = total - p * np.log2(np.where(p > 0.0, p, 1.0))
    return total


def _memory_spectrum(p_b):
    """The spectrum of the memory's marginal ``diag(1 - p_B/2, p_B/2)``."""
    return 1.0 - 0.5 * p_b, 0.5 * p_b


def _joint_spectrum(p_a, p_b):
    """The X state's four eigenvalues.

    The ``{|00>, |11>}`` block has eigenvalues ``big`` and ``det / big``; taking
    the smaller one from the determinant keeps it accurate where it nears 0.
    The two middle populations follow.
    """
    both_decayed = (1.0 - p_a) * (1.0 - p_b)
    excited = 0.5 * p_a * p_b                     # rho_11,11; also 2 |rho_00,11|^2
    ground = 0.5 + 0.5 * both_decayed             # rho_00,00
    big = 0.5 * (ground + excited) + np.sqrt((0.5 * (ground - excited)) ** 2 + 0.5 * excited)
    small = 0.5 * excited * both_decayed / big    # (rho_00,00 rho_11,11 - |rho_00,11|^2) / big
    return big, small, 0.5 * (1.0 - p_a) * p_b, 0.5 * p_a * (1.0 - p_b)


def minimum_uncertainty(p_a, p_b):
    """``mu = 1 + H(A|B)`` of the X state with excited populations ``p_a``, ``p_b``.

    The crossing root-find's objective: its six Shannon terms are taken as one
    stacked array, a few numpy calls in all, and summed in the order of
    :func:`uncertainty_columns`, which gives the same bits.
    """
    p_a, p_b = np.asarray(p_a, dtype=float), np.asarray(p_b, dtype=float)
    if p_a.shape != p_b.shape:
        p_a, p_b = np.broadcast_arrays(p_a, p_b)
    probs = np.array((*_joint_spectrum(p_a, p_b), *_memory_spectrum(p_b)))
    terms = probs * np.log2(np.where(probs > 0.0, probs, 1.0))
    h_joint = 0.0 - terms[0] - terms[1] - terms[2] - terms[3]
    return 1.0 + h_joint - (0.0 - terms[4] - terms[5])


def uncertainty_columns(p_a, p_b):
    """The bound ``mu`` and ``lhs = H(Sx|B) + H(Sy|B) = 2 H(Sx|B)``, element by element.

    The entropies are summed a term at a time, each spectrum as it is made, so
    that a ``(G, N)`` batch keeps few arrays of its size alive.
    """
    p_a, p_b = np.asarray(p_a, dtype=float), np.asarray(p_b, dtype=float)
    h_memory = entropy_bits(*_memory_spectrum(p_b))
    mu = 1.0 + entropy_bits(*_joint_spectrum(p_a, p_b)) - h_memory
    big = 0.5 + 0.5 * np.sqrt((1.0 - p_b) ** 2 + p_a * p_b)
    small = 0.25 * p_b * (2.0 - p_a - p_b) / big  # (1/4 - radius^2) / big
    lhs = 2.0 * (1.0 + entropy_bits(big, small) - h_memory)
    return mu, lhs


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
    """G rows' witness reports as ``(G,)`` columns, NaN for "none".  ``crossing_found``,
    ``death_time``, ``mu_series_max`` and ``reenters`` are filled in a failed row too;
    only :func:`entwitness.scenario.write_sweep_csv` leaves its report cells empty."""

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


# Every three evaluations at least halve a bracket (see bracketed_root), so
# this covers any bracket up to 2**66 times as wide as its tolerance.
MAX_EVALUATIONS = 200


def bracketed_root(f, lo, hi, f_lo, f_hi, xtol: float):
    """Roots of ``f`` inside each bracket ``[lo, hi]``, by Chandrupatla's method.

    ``lo``, ``hi`` and the end values ``f_lo``, ``f_hi`` (of opposite signs,
    or zero) are arrays of brackets; ``f`` maps an array of abscissae to the
    array of its values, one per bracket.  Every step takes the inverse
    quadratic interpolation through the last three points where Chandrupatla's
    criterion (Adv. Eng. Software 28, 145 (1997)) deems it safe and bisects
    otherwise; it also bisects whenever the last two evaluations together did
    not halve the bracket, so every three evaluations at least halve it while
    the bracket always holds a sign change.  A bracket is done when it is
    narrower than ``xtol + 4 eps |x|`` or an end is an exact root.  The root
    returned is where the chord through the final bracket's ends crosses zero:
    inside the bracket, and on a smooth root far closer to it than ``xtol``.
    A bracket that is not done after ``MAX_EVALUATIONS`` evaluations of ``f``
    gets NaN, so each caller decides which of its rows failed.  On a few
    brackets each numpy call costs more than its arithmetic, so a pass forms
    each difference once, the chord root only when some bracket finishes, and
    the interpolation only when some bracket takes it.
    """
    x1, x2, f1, f2 = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi, f_lo, f_hi))
    x3, f3 = np.full_like(x1, np.nan), np.full_like(x1, np.nan)  # no third point yet
    root = np.full_like(x1, np.nan)
    done = np.zeros(x1.shape, dtype=bool)
    finished = 0                    # np.count_nonzero(done)
    last_widths = (np.inf, np.inf)  # bracket widths one and two evaluations ago
    relative_tol = 4.0 * np.finfo(float).eps
    half = np.full_like(x1, 0.5)
    sign1 = np.sign(f1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for evaluations in range(MAX_EVALUATIONS + 1):
            span = x2 - x1
            width = np.abs(span)
            tol = xtol + relative_tol * np.abs(x1)
            # a bracket that goes on keeps a nonzero end value as x2, so only
            # the first pass looks at f2
            newly = (width < tol) | (f1 == 0.0)
            if not evaluations:
                newly |= f2 == 0.0
            if finished:
                newly &= ~done
            if np.count_nonzero(newly):
                root[newly] = (x1 - f1 * span / (f2 - f1))[newly]
                done |= newly
                finished = np.count_nonzero(done)
            if finished == done.size or evaluations == MAX_EVALUATIONS:
                return root
            t = half
            if evaluations:  # else x3 is NaN and no bracket interpolates
                df12, df32 = f1 - f2, f3 - f2
                xi = (x1 - x2) / (x3 - x2)
                phi = df12 / df32
                interpolate = ((1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
                               & (width <= 0.5 * last_widths[1]))
                if np.count_nonzero(interpolate):
                    alpha = (x3 - x1) / span
                    t = np.where(interpolate, f1 / df12 * f3 / df32
                                 - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), half)
            last_widths = (width, last_widths[0])
            t_min = 0.5 * tol / width
            t = np.clip(t, t_min, 1.0 - t_min)
            if finished:
                t = np.where(done, half, t)
            x = x1 + t * span
            fx = np.asarray(f(x), dtype=float)
            sign_x = np.sign(fx)
            same_side = sign_x == sign1
            x3, f3 = np.where(same_side, x1, x2), np.where(same_side, f1, f2)
            x2, f2 = np.where(same_side, x2, x1), np.where(same_side, f2, f1)
            x1, f1, sign1 = x, fx, sign_x


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
    # the samples before the first above 1 are below it, so one more is a re-entry
    reenters = crossed & (np.count_nonzero(~above, axis=-1) > first)
    rows = np.flatnonzero(good & crossed)
    hi = first[rows]
    cut = reservoirs.take(rows)
    if cut.atoms_alike():   # atom A's populations serve both, as in the sampled columns
        atom_a = ReservoirColumns(cut.scale[:1], cut.z[:1])

        def populations(t):
            p = excited_population(atom_a, t)[0]
            return p, p
    else:
        def populations(t):
            return excited_population(cut, t)

    def excess(t):
        # the same element-wise code as the sampled mu, so the root-find sees
        # the sign change that the samples show
        return minimum_uncertainty(*populations(t)) - 1.0

    t_ew, c_ew = np.full(len(mu), np.nan), np.full(len(mu), np.nan)
    t_ew[rows] = bracketed_root(excess, times[hi - 1], times[hi], mu[rows, hi - 1] - 1.0,
                                mu[rows, hi] - 1.0, CROSSING_TIME_TOL)
    c_ew[rows] = concurrence(*populations(t_ew[rows]))
    return WitnessColumns(crossed, t_ew, np.minimum(np.maximum(c_ew, 0.0), 1.0),
                          death_times(times, concs), np.max(mu, axis=-1), reenters)
