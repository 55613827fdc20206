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
``(N,)`` grid (:func:`sample_times`) as ``(G, N)`` arrays, with a separate
error per row.  A sweep is one such batch; a single run
(:func:`entwitness.scenario.run_scenario`) is the batch with ``G = 1``.

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
QUADRATURE_NODES = 100_001   # odd, as Simpson's rule needs; doubling checks it on 2n - 1


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
        """Prefactor ``lam / (2 (lam - i delta))`` of ``f``."""
        return self.lam / (2.0 * (self.lam - 1j * self.delta))

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
    time in ``times``.  The generating reservoir parameters are kept so that
    the exact populations, and so the witness crossing, can be evaluated
    between samples.
    """

    times: np.ndarray
    p_a: np.ndarray
    p_b: np.ndarray
    r_a: ReservoirParams
    r_b: ReservoirParams
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
    Accepts a scalar or an array of times ``t >= 0``.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValidationError(f"t: must be >= 0, got {t.min()}")
    out = r.scale * (1.0 - np.exp(r.z * t))
    return complex(out) if out.ndim == 0 else out


def correlation_f_quadrature(r: ReservoirParams, t: float) -> complex:
    """``f(t)`` by direct numerical integration over the Lorentzian spectrum.

    Evaluates ``i * integral J(omega) (1 - exp(i (omega0 - omega) t)) / (omega0 - omega) domega``
    in the detuning variable ``x = omega0 - omega``, by Simpson's rule on
    ``QUADRATURE_NODES`` uniform nodes, over an interval that covers both the
    spectral peak at ``x = delta`` (within ``120 lam + 20``, so more than 50
    widths) and the resonance feature at ``x = 0``.  The lower frequency
    limit is extended to minus infinity, matching the closed form; this
    routine serves as an independent cross-check of :func:`correlation_f`.

    Raises
    ------
    QuadratureUnconverged
        if doubling the node count moves the result by more than 1e-5, or
        makes it NaN.
    """
    if not (is_finite(t) and t >= 0):
        raise ValidationError(f"t: must be finite and >= 0, got {t}")
    window = 120.0 * r.lam + 20.0
    n = 2 * QUADRATURE_NODES - 1         # the doubled grid; every other node is the base grid
    lo, hi = min(0.0, r.delta) - window, max(0.0, r.delta) + window
    x = np.linspace(lo, hi, n)
    at_zero = x == 0.0
    # built in place: every fresh temporary of n nodes costs page faults
    integrand = np.multiply(x, 1j * t)
    np.exp(integrand, out=integrand)
    np.subtract(1.0, integrand, out=integrand)
    integrand /= np.where(at_zero, 1.0, x)
    integrand[at_zero] = -1j * t
    integrand /= (x - r.delta) ** 2 + r.lam ** 2
    integrand *= 1j * r.lam ** 2 / (2.0 * np.pi)
    spacing = (hi - lo) / (n - 1)

    def simpson(y, dx) -> complex:       # composite Simpson's rule on an odd node count
        return complex(dx / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum()))

    coarse = simpson(integrand[::2], 2 * spacing)
    fine = simpson(integrand, spacing)
    if not abs(fine - coarse) <= 1e-5:
        raise QuadratureUnconverged(
            f"node doubling moved the result by {abs(fine - coarse):.3e} > 1e-5")
    return fine


def correlation_integral(r, t):
    """Closed form of ``integral_0^t f(s) ds``.

    ``r`` is a :class:`ReservoirParams` (scalar or array ``t``) or
    :class:`ReservoirColumns` that broadcast against ``t``.
    """
    return r.scale * (t - np.expm1(r.z * t) / r.z)


def excited_population(r, t):
    """Excited-state population ``p(t) = |u(t)|^2 = exp(-2 Re integral_0^t f)``.

    The population at ``t`` of an atom that starts excited; in [0, 1], since
    the accumulated decay ``2 Re integral_0^t f`` is a spectral average of
    ``(1 - cos)`` terms and so never negative.  ``r`` and ``t`` as in
    :func:`correlation_integral`.
    """
    return np.exp(-2.0 * correlation_integral(r, t).real)


def sample_times(t_max: float, dt: float = 1e-2, sample_every: int = 1) -> np.ndarray:
    """The sample grid ``k * dt * sample_every`` from 0 to ``t_max``.

    ``t_max`` and ``dt`` are positive and ``sample_every`` >= 1, as a
    :class:`entwitness.scenario.ScenarioConfig` holds them.  The grid lands
    on ``t_max`` (the duration of the run), so ``t_max`` must be a whole
    number of sample spacings ``dt * sample_every``, within 1e-9 relative.
    """
    spacing = dt * sample_every
    n_samples = round(t_max / spacing)
    if n_samples < 1 or abs(n_samples * spacing - t_max) > 1e-9 * t_max:
        raise ValidationError(
            f"t_max: must be a whole number of sample spacings dt * sample_every = "
            f"{spacing:.6g}, got {t_max}")
    return np.arange(0, n_samples * sample_every + 1, sample_every) * dt


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
