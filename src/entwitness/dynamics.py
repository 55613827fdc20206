"""Time-local (TCL2) dissipative dynamics of two qubits in independent reservoirs.

Each two-level atom couples to its own zero-temperature bosonic reservoir with
a Lorentzian coupling spectrum

    J(omega) = (1 / 2 pi) * gamma0 * lam**2 / ((omega0 - omega - delta)**2 + lam**2),

where ``lam`` is the spectral width, ``delta`` the detuning of the spectrum's
center from the atomic transition frequency ``omega0``, and ``gamma0`` the
Markovian decay rate in the flat-spectrum limit and the unit of every rate
here (``gamma0 = 1``).  The reduced state obeys the second-order
time-convolutionless master equation

    d rho / dt = L_A rho + L_B rho,
    L_j rho = f_j(t) [S_j^- rho, S_j^+] + conj(f_j(t)) [S_j^-, rho S_j^+],

with the zero-temperature correlation function

    f_j(t) = lam / (2 (lam - i delta)) * (1 - exp((i delta - lam) t)).

A negative real part of ``f`` signals information backflow from the reservoir
(non-Markovian regime, ``lam < 2``).  Both terms are local,
phase-covariant amplitude dampings, so the equation is solved exactly by the
tensor product of two single-qubit amplitude-damping channels with coherence
factors ``u_j(t) = exp(-integral_0^t f_j)`` (Breuer & Petruccione, *The
Theory of Open Quantum Systems*, ch. 10).  From the Bell start the state stays
an X state fixed by the two excited-state populations
``p_j(t) = |u_j(t)|^2 = exp(-2 Re integral_0^t f_j)``, sampled in closed form,
and every observable is an element-wise function of them
(:mod:`entwitness.information`, :mod:`entwitness.witness`).

The closed form broadcasts over parameter columns: :class:`ReservoirColumns`
holds the prefactor and exponent of ``f`` for G reservoirs as ``(G, 1)``
columns, and :func:`populations` evaluates G reservoir pairs on one shared
``(N,)`` grid (:meth:`entwitness.scenario.ScenarioConfig.sample_times`) as
``(G, N)`` arrays, with a separate error per row.  A sweep is one such batch;
a single run (:func:`entwitness.scenario.run_scenario`) is the batch with
``G = 1``.

Conventions fixed package-wide: two-qubit basis ordering |00>, |01>, |10>, |11>
with atom A as the left (slow) tensor factor, |1> the excited state.

All functions are pure; trajectories for different parameter sets may be
computed fully in parallel.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotDensityMatrix, QuadratureUnconverged, ValidationError
from .numerics import flag_rows

POPULATION_TOL = 1e-9
# Node counts of the quadrature's nested Simpson grids: each rung and every
# other node of it odd, as Simpson's rule needs (3128 = 4 * 782), and every
# other node of a rung is the rung below it.
QUADRATURE_LADDER = tuple(3128 * 2**k + 1 for k in range(7))   # 3 129 ... 200 193


def is_finite(x) -> bool:
    """``math.isfinite``, but False, not OverflowError, for an integer beyond the float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class ReservoirParams:
    """Lorentzian reservoir parameters in units of ``gamma0``, the Markovian decay rate.

    ``lam`` is the spectral width (> 0), ``delta`` the detuning (>= 0).
    """

    lam: float
    delta: float = 0.0

    def __post_init__(self):
        if not (is_finite(self.lam) and self.lam > 0):
            raise ValidationError(f"lam: must be finite and > 0, got {self.lam}")
        if not (is_finite(self.delta) and self.delta >= 0):
            raise ValidationError(f"delta: must be finite and >= 0, got {self.delta}")

    @property
    def scale(self) -> complex:
        """Prefactor ``lam / (2 (lam - i delta))`` of ``f``, halved last so no ``2 lam`` overflows."""
        return 0.5 * (self.lam / (self.lam - 1j * self.delta))

    @property
    def z(self) -> complex:
        """Exponent ``i delta - lam`` of ``f``."""
        return 1j * self.delta - self.lam


class ReservoirColumns(NamedTuple):
    """``f``'s ``scale`` and ``z`` for G reservoirs, as arrays that broadcast against times.

    :meth:`stack` gives ``(G, 1)`` columns for a ``(G, N)`` batch over a
    shared ``(N,)`` grid; :meth:`take` picks ``(K,)`` rows, one per abscissa
    of a ``(K,)`` array of times.  :func:`correlation_integral` and
    :func:`excited_population` take these columns wherever they take a
    :class:`ReservoirParams`.
    """

    scale: np.ndarray
    z: np.ndarray

    @classmethod
    def stack(cls, reservoirs) -> "ReservoirColumns":
        # Each prefactor comes from Python complex arithmetic, one reservoir at
        # a time: numpy's complex division of stacked columns rounds some of
        # them differently by an ulp, which would move the written columns.
        reservoirs = list(reservoirs)
        return cls(np.array([r.scale for r in reservoirs], dtype=complex)[:, None],
                   np.array([r.z for r in reservoirs], dtype=complex)[:, None])

    def take(self, rows) -> "ReservoirColumns":
        return ReservoirColumns(self.scale[rows, 0], self.z[rows, 0])


@dataclass
class Trajectory:
    """Sampled evolution of the Bell start, as built by the scenario runner.

    The excited populations ``p_a``, ``p_b`` and the derived columns ``mu``,
    ``lhs``, ``concurrence``, ``f_a`` and ``f_b`` hold one entry per sample
    time in ``times``.
    """

    times: np.ndarray
    p_a: np.ndarray
    p_b: np.ndarray
    mu: np.ndarray
    lhs: np.ndarray
    concurrence: np.ndarray
    f_a: np.ndarray
    f_b: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


def correlation_f(r: ReservoirParams, t):
    """Zero-temperature reservoir correlation function ``f(t)``.

    ``f(t) = lam / (2 (lam - i delta)) * (1 - exp((i delta - lam) t))``;
    the thermal counterpart ``k(t)`` vanishes identically at zero temperature.
    Accepts a scalar or an array of times ``t >= 0``.  Where ``z t``
    overflows, ``exp(z t)`` is taken as 0 (see :func:`_finite_or_zero`).
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValidationError(f"t: must be >= 0, got {t.min()}")
    out = r.scale * (1.0 - _finite_or_zero(r.z, t, np.exp))
    return complex(out) if out.ndim == 0 else out


def correlation_f_quadrature(r: ReservoirParams, t: float) -> complex:
    """``f(t)`` by direct numerical integration over the Lorentzian spectrum.

    Evaluates ``i * integral J(omega) (1 - exp(i (omega0 - omega) t)) / (omega0 - omega) domega``
    in the detuning variable ``x = omega0 - omega``, by Simpson's rule on
    uniform nodes over an interval that covers both the spectral peak at
    ``x = delta`` (within ``120 lam + 20``, so more than 50 widths) and the
    resonance feature at ``x = 0``.  The lower frequency limit is extended to
    minus infinity, matching the closed form; this routine serves as an
    independent cross-check of :func:`correlation_f`.

    The node counts climb the nested ladder ``QUADRATURE_LADDER``
    (``3128 * 2**k + 1`` for ``k = 0 .. 6``, so 3 129 to 200 193: every rung
    and every other node of it is an odd count, as Simpson's rule needs),
    starting at the coarsest rung whose spacing is at most
    ``min(lam / 4, 1 / t)``: 8 nodes across the peak's full width and 2 pi
    nodes per period of ``exp(i x t)``, so that no rung aliases the
    oscillation.  On each rung the result on all nodes is compared with the
    result on every other node; it is returned once the two agree within
    1e-5, else the next rung is tried.

    On a rung of ``n`` nodes ``x_k = lo + k h``, ``exp(i x t)`` is the
    product ``exp(i x_{j b} t) exp(i m h t)`` of two tables of ``b`` exps,
    ``k = j b + m`` with ``b = isqrt(n) + 1``.  Its phase error, about
    ``eps |lo| t``, is harmless where ``|x| t > 1``.  On the nodes within
    ``1 / t`` of ``x = 0``, where ``1 - exp(i x t)`` cancels before the
    division by ``x``, ``exp(i x t)`` is evaluated directly, and at ``x = 0``
    the limit ``-i t`` of ``(1 - exp(i x t)) / x`` is used.

    Raises
    ------
    QuadratureUnconverged
        if ``lam**2`` or the integrand's denominator overflows on the
        interval, or ``x t`` does, before any grid is built; or if on the top
        rung the result on every other node differs from it by more than
        1e-5, or either is NaN.
    """
    if not (is_finite(t) and t >= 0):
        raise ValidationError(f"t: must be finite and >= 0, got {t}")
    window = 120.0 * r.lam + 20.0
    lo, hi = min(0.0, r.delta) - window, max(0.0, r.delta) + window
    lam2, span = r.lam * r.lam, hi - lo
    # |x - delta| and |x| are at most span on the interval, so the
    # denominator ((x - delta)**2 + lam**2) x is at most this bound
    if not (is_finite(span * t) and is_finite((span * span + lam2) * span)):
        raise QuadratureUnconverged(
            f"the integrand overflows on [{lo:g}, {hi:g}] at lam = {r.lam:g}, t = {t:g}")
    spacings = [span / (n - 1) for n in QUADRATURE_LADDER]
    start = next((k for k, h in enumerate(spacings) if h <= r.lam / 4 and h * t <= 1),
                 len(spacings) - 1)
    reach = 1.0 / t if t > 0 else math.inf
    for n, h in zip(QUADRATURE_LADDER[start:], spacings[start:]):
        x = np.linspace(lo, hi, n)
        b = math.isqrt(n) + 1
        # built in place: every fresh temporary of n nodes costs page faults
        g = np.multiply.outer(np.exp(x[::b] * (1j * t)),
                              np.exp(np.arange(b) * (h * t) * 1j)).ravel()[:n]
        near = slice(*np.searchsorted(x, (-reach, reach)))
        g[near] = np.exp(x[near] * (1j * t))
        np.subtract(1.0, g, out=g)
        w = np.subtract(x, r.delta)
        w *= w
        w += lam2
        w *= x
        zero = near.start + np.flatnonzero(x[near] == 0.0)
        w[zero] = np.inf
        np.divide(lam2 / (2.0 * np.pi), w, out=w)
        g *= w
        q = r.delta / r.lam   # the limit in this form has no 0 / 0 where lam**2 underflows
        g[zero] = -1j * t / (2.0 * np.pi) / (q * q + 1.0)
        # g is the integrand over i: the gate compares |i fine - i coarse|
        fine, coarse = _simpson(g, h), _simpson(g[::2], 2 * h)
        if abs(fine - coarse) <= 1e-5:
            return 1j * fine
    raise QuadratureUnconverged(
        f"node doubling moved the result by {abs(fine - coarse):.3e} > 1e-5")


def _simpson(y, dx) -> complex:
    """Composite Simpson's rule on an odd node count."""
    return complex(dx / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum()))


def correlation_integral(r, t):
    """Closed form of ``integral_0^t f(s) ds``.

    ``r`` is a :class:`ReservoirParams` (scalar or array ``t``) or
    :class:`ReservoirColumns` that broadcast against ``t``.  Where ``z t``
    overflows, ``expm1(z t) / z`` is taken as 0 (see :func:`_finite_or_zero`).
    """
    return r.scale * (t - _finite_or_zero(r.z, t, lambda zt: np.expm1(zt) / r.z))


def _finite_or_zero(z, t, term):
    """``term(z t)`` where ``z t`` is finite, else 0, with no overflow warning.

    ``z t`` overflows only at a width or detuning near the float limit, where
    ``|z| t > 1.7e308``.  As ``|exp(z t)| = exp(-lam t)`` and
    ``|scale| = lam / (2 |z|)``, the dropped ``scale exp(z t)`` of ``f`` is
    at most ``lam t exp(-lam t) / (2 |z| t) < 1e-308``, and the dropped
    ``scale expm1(z t) / z`` of its integral at most ``1 / |z| < 1e-308 t``.
    Finite ``z t`` gives the same bits as ``term(z * t)``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        zt = z * t
        return np.where(np.isfinite(zt), term(zt), 0.0)


def excited_population(r, t):
    """Excited-state population ``p(t) = |u(t)|^2 = exp(-2 Re integral_0^t f)``.

    The population at ``t`` of an atom that starts excited; in [0, 1], since
    the accumulated decay ``2 Re integral_0^t f`` is a spectral average of
    ``(1 - cos)`` terms and so never negative.  ``r`` and ``t`` as in
    :func:`correlation_integral`.
    """
    return np.exp(-2.0 * correlation_integral(r, t).real)


def populations(r_a: ReservoirColumns, r_b: ReservoirColumns, times: np.ndarray):
    """Exact excited populations ``p_a``, ``p_b`` of G reservoir pairs at ``times``.

    Returns the two ``(G, N)`` arrays and a list of G errors: None for a good
    row, or a :class:`NotDensityMatrix` naming the row's first sample (and
    its time) whose ``p_a`` or ``p_b`` lies outside [0, 1] by more than
    ``POPULATION_TOL``.  Every sample is the closed form at its time; no error
    accumulates along the grid.
    """
    p_a, p_b = excited_population(r_a, times), excited_population(r_b, times)
    errors = [None] * len(p_a)
    for name, p in (("p_a", p_a), ("p_b", p_b)):
        flag_rows(errors, ~((p >= -POPULATION_TOL) & (p <= 1.0 + POPULATION_TOL)), times,
                  lambda g, k, where: NotDensityMatrix(f"{name} = {p[g, k]} outside [0, 1]{where}"))
    return p_a, p_b, errors
