"""Element-wise numerics over per-sample columns.

Shannon entropies of probability columns and a bracketed root-finder that
works on an array of brackets at once.  Everything here works only on its
arguments and is safe to call concurrently on distinct arguments.
"""

import numpy as np


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
    gets NaN, so each caller decides which of its rows failed.
    """
    x1, x2, f1, f2 = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi, f_lo, f_hi))
    x3, f3 = np.full_like(x1, np.nan), np.full_like(x1, np.nan)  # no third point yet
    root = np.full_like(x1, np.nan)
    done = np.zeros(x1.shape, dtype=bool)
    last_widths = (np.inf, np.inf)  # bracket widths one and two evaluations ago
    with np.errstate(divide="ignore", invalid="ignore"):
        for evaluations in range(MAX_EVALUATIONS + 1):
            width = np.abs(x2 - x1)
            tol = xtol + 4.0 * np.finfo(float).eps * np.abs(x1)
            newly = ~done & ((width < tol) | (f1 == 0.0) | (f2 == 0.0))
            root[newly] = (x1 - f1 * (x2 - x1) / (f2 - f1))[newly]
            done |= newly
            if done.all() or evaluations == MAX_EVALUATIONS:
                return root
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            interpolate = ((1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
                           & (width <= 0.5 * last_widths[1]))
            last_widths = (width, last_widths[0])
            t = np.where(interpolate, f1 / (f1 - f2) * f3 / (f3 - f2)
                         - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            t_min = 0.5 * tol / width
            t = np.where(done, 0.5, np.clip(t, t_min, 1.0 - t_min))
            x = x1 + t * (x2 - x1)
            fx = np.asarray(f(x), dtype=float)
            same_side = np.sign(fx) == np.sign(f1)
            x3, f3 = np.where(same_side, x1, x2), np.where(same_side, f1, f2)
            x2, f2 = np.where(same_side, x2, x1), np.where(same_side, f2, f1)
            x1, f1 = x, fx
