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
(:mod:`entwitness.witness`).

The closed form takes only parameter columns: :class:`ReservoirColumns`
holds the prefactor and exponent of ``f`` for both atoms of G rows as
``(2, G, 1)`` arrays, atom A first, and :func:`excited_population` evaluates
them on one shared ``(N,)`` grid (:meth:`entwitness.scenario.ScenarioConfig.sample_times`)
as a ``(2, G, N)`` array.  A sweep is one such batch; a single run
(:func:`entwitness.scenario.run_scenario`) is the batch with ``G = 1``.  Where
atom A's and atom B's columns hold the same bits, as for identical reservoirs,
:func:`excited_population` and :func:`correlation_f` evaluate atom A's half only
and copy it to atom B: the same bits for half the work.

Conventions fixed package-wide: two-qubit basis ordering |00>, |01>, |10>, |11>
with atom A as the left (slow) tensor factor, |1> the excited state.

All functions are pure; trajectories for different parameter sets may be
computed fully in parallel.
"""

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import QuadratureUnconverged, ValidationError

# The smallest spectral width, the smallest normal float: numpy's complex
# division by a subnormal z = i delta - lam overflows to NaN.
MIN_WIDTH = sys.float_info.min
# Node counts of the quadrature's nested Simpson grids: each rung and every
# other node of it odd, as Simpson's rule needs (3128 = 4 * 782), and every
# other node of a rung is the rung below it.
QUADRATURE_LADDER = tuple(3128 * 2**k + 1 for k in range(7))   # 3 129 ... 200 193
# Below this |z t|, the integral of f takes its series (see correlation_integral).
SERIES_LIMIT = 1e-5


def is_number(value) -> bool:
    """Whether ``value`` is a finite real number (Python or numpy, not a bool).

    An integer beyond the float range is not finite: False, not OverflowError.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def checked_value(key: str, value) -> float:
    """``value`` as a float if it is a finite real number in range, else a ValidationError.

    A detuning (``delta_a``, ``delta_b``, ``delta``) must be >= 0, any other value
    > 0, and a width (``lambda_a``, ``lambda_b``, ``lam``) at least ``MIN_WIDTH``.
    """
    if not is_number(value):
        raise ValidationError(f"{key}: must be a finite number, got {value!r}")
    value = float(value)
    if key.startswith("delta"):
        if value < 0:
            raise ValidationError(f"{key}: must be >= 0, got {value}")
    elif value <= 0:
        raise ValidationError(f"{key}: must be > 0, got {value}")
    if key.startswith("lam") and value < MIN_WIDTH:
        raise ValidationError(
            f"{key}: must be >= {MIN_WIDTH!r}, the smallest normal float, got {value}")
    return value


def _scale(lam: float, delta: float) -> complex:
    """Prefactor ``lam / (2 (lam - i delta))`` of ``f``, halved last so no ``2 lam`` overflows."""
    return 0.5 * (lam / (lam - 1j * delta))


@dataclass(frozen=True)
class ReservoirParams:
    """Lorentzian reservoir parameters of :func:`correlation_f_quadrature`, in units of ``gamma0``.

    ``lam`` is the spectral width, ``delta`` the detuning, stored as :func:`checked_value` returns.
    The closed form takes :class:`ReservoirColumns` instead.
    """

    lam: float
    delta: float = 0.0

    def __post_init__(self):
        for key in ("lam", "delta"):
            object.__setattr__(self, key, checked_value(key, getattr(self, key)))


class ReservoirColumns(NamedTuple):
    """``f``'s ``scale`` and ``z`` for G reservoirs, as arrays that broadcast against times.

    :meth:`of` is the one place where widths and detunings become ``scale`` and ``z``:
    it gives the ``(2, G, 1)`` columns, atom A first, of ``(2, G)`` checked widths and
    detunings (``(G, 1)`` of ``(G,)``, ``(1,)`` of one reservoir's 0-d arrays) for a batch
    on a shared ``(N,)`` grid; :meth:`take` the ``(2, K)`` rows for a ``(K,)`` array of times.
    """

    scale: np.ndarray
    z: np.ndarray

    @classmethod
    def of(cls, lams: np.ndarray, deltas: np.ndarray) -> "ReservoirColumns":
        # Prefactors in Python complex arithmetic, row by row: numpy's complex division of
        # whole columns is off by an ulp on some rows, which would move the written values.
        scale = list(map(_scale, lams.ravel().tolist(), deltas.ravel().tolist()))
        return cls(np.array(scale, dtype=complex).reshape(lams.shape)[..., None],
                   (1j * deltas - lams)[..., None])

    def take(self, rows) -> "ReservoirColumns":
        return ReservoirColumns(self.scale[..., rows, 0], self.z[..., rows, 0])

    def atoms_alike(self) -> bool:
        """Whether the leading axis holds two atoms whose columns hold the same bits.

        Bits, not values, because a zero's sign can change the sign of a zero in a result.
        """
        return (len(self.scale) == len(self.z) == 2
                and self.scale[0].tobytes() == self.scale[1].tobytes()
                and self.z[0].tobytes() == self.z[1].tobytes())


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


def _equal_halves_once(function):
    """``function(r, t)``, of atom A's half only where ``r``'s two atoms hold the same bits.

    ``r``'s leading axis is the atom axis of :class:`ReservoirColumns` when it
    has 2 entries and ``t`` does not reach it; the halves are compared by
    :meth:`ReservoirColumns.atoms_alike`.  The half's result is copied once to
    both atoms, so that each atom's rows are writeable and share no memory.
    """
    @functools.wraps(function)
    def per_atom(r, t):
        if r.scale.ndim > np.ndim(t) and r.atoms_alike():
            return function(ReservoirColumns(r.scale[:1], r.z[:1]), t).repeat(2, axis=0)
        return function(r, t)

    return per_atom


@_equal_halves_once
def correlation_f(r: ReservoirColumns, t):
    """Zero-temperature reservoir correlation function ``f(t)``.

    ``f(t) = lam / (2 (lam - i delta)) * (1 - exp((i delta - lam) t))``;
    the thermal counterpart ``k(t)`` vanishes identically at zero temperature.
    ``r`` and the times ``t >= 0`` as in :func:`correlation_integral`.  Where
    ``z t`` overflows, ``exp(z t)`` is taken as 0 (see :func:`_where_finite`).
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValidationError(f"t: must be >= 0, got {t.min()}")
    return r.scale * (1.0 - _where_finite(r.z, t, np.exp))


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

    On a rung of ``n`` nodes ``x_k = lo + k h`` the nodes are laid out as a
    real ``(rows, b)`` array ``x[j, m] = x_{j b + m} = x_{j b} + m h``,
    with ``b`` a multiple of 4 (see :func:`_simpson_classes`) and the padding
    past ``n`` given weight 0, so that a node's Simpson weights on all nodes
    and on every other node follow from ``m`` (the two ends weigh half).  The real spectral weight
    ``w`` is built in place on that layout, and one product ``w @ table``
    with the ``(b, 6)`` table [fine, coarse weight] x [``cos(m h t)``,
    ``sin(m h t)``, 1] gives per row the sums that a turn by
    ``exp(i x_{j b} t)`` makes into both Simpson sums of
    ``w (1 - exp(i x t))``: the same two-table factorisation of
    ``exp(i x t)``, with no complex array of ``n`` nodes.  Its phase error,
    about ``eps |lo| t``, is harmless where ``|x| t > 1``.  The nodes within
    ``1 / t`` of ``x = 0``, where ``1 - exp(i x t)`` cancels before the
    division by ``x``, get weight 0 in the layout and are summed directly
    with ``exp(i x t)`` of their own argument, and at ``x = 0`` with the
    limit ``-i t`` of ``(1 - exp(i x t)) / x``.

    Raises
    ------
    QuadratureUnconverged
        if ``lam**2`` or the integrand's denominator overflows on the
        interval, or ``x t`` does, before any grid is built; or if on the top
        rung the result on every other node differs from it by more than
        1e-5, or either is NaN.
    """
    if not (is_number(t) and t >= 0):
        raise ValidationError(f"t: must be finite and >= 0, got {t!r}")
    window = 120.0 * r.lam + 20.0
    lo, hi = min(0.0, r.delta) - window, max(0.0, r.delta) + window
    lam2, span = r.lam * r.lam, hi - lo
    # |x - delta| and |x| are at most span on the interval, so the
    # denominator ((x - delta)**2 + lam**2) x is at most this bound
    if not (math.isfinite(span * t) and math.isfinite((span * span + lam2) * span)):
        raise QuadratureUnconverged(
            f"the integrand overflows on [{lo:g}, {hi:g}] at lam = {r.lam:g}, t = {t:g}")
    spacings = [span / (n - 1) for n in QUADRATURE_LADDER]
    start = next((k for k, h in enumerate(spacings) if h <= r.lam / 4 and h * t <= 1),
                 len(spacings) - 1)
    reach = 1.0 / t if t > 0 else math.inf
    q = r.delta / r.lam   # the x = 0 limit in this form has no 0 / 0 where lam**2 underflows
    limit = -1j * t / (2.0 * np.pi) / (q * q + 1.0)
    for n, h in zip(QUADRATURE_LADDER[start:], spacings[start:]):
        m, classes = _simpson_classes(n)
        b = len(m)
        x = np.arange(-(-n // b) * b, dtype=float).reshape(-1, b)   # (rows, b)
        x *= h
        x += lo                                    # x_k = lo + k h, as np.linspace
        nodes = x.reshape(-1)
        # the last node is hi, as in np.linspace, and so is the padding, whose
        # denominators then stay under the overflow bound
        nodes[n - 1:] = hi
        near = slice(*nodes[:n].searchsorted((-reach, reach)))
        zero = nodes[near] == 0.0
        # the real spectral weight lam**2 / (2 pi ((x - delta)**2 + lam**2) x),
        # built in place: every fresh temporary of n nodes costs page faults
        w = np.subtract(x, r.delta)
        w *= w
        w += lam2
        w *= x
        weights = w.reshape(-1)
        weights[near][zero] = np.inf
        weights[n:] = np.inf
        np.divide(lam2 / (2.0 * np.pi), w, out=w)
        weights[0] *= 0.5                          # an end's Simpson weight is half its class's
        weights[n - 1] *= 0.5
        # the nodes within 1 / t of x = 0 are summed directly, then left out of the layout
        g = np.exp(nodes[near] * (1j * t))
        np.subtract(1.0, g, out=g)
        g *= weights[near]
        g[zero] = limit
        weights[near] = 0.0
        near_fine, near_coarse = (classes[:, 2].take(np.arange(near.start, near.stop), axis=0,
                                                     mode="wrap").T @ g).tolist()
        # the rest: per row j, sums of w, and of w exp(i m h t) to turn by exp(i x_{j b} t)
        table = classes.copy()
        table[:, :2] *= np.exp(m * (1j * h * t)).view(float).reshape(b, 1, 2)
        sums = (w @ table.reshape(b, 6)).view(complex)
        turned_fine, turned_coarse = (np.exp(x[:, 0] * (1j * t)) @ sums[:, :2]).tolist()
        plain = complex(sums[:, 2].sum())
        # both sums are of the integrand over i: the gate compares |i fine - i coarse|
        fine = h / 3 * (plain.real - turned_fine + near_fine)
        coarse = h / 3 * (plain.imag - turned_coarse + near_coarse)
        if abs(fine - coarse) <= 1e-5:
            return 1j * fine
    raise QuadratureUnconverged(
        f"node doubling moved the result by {abs(fine - coarse):.3e} > 1e-5")


@functools.cache
def _simpson_classes(n):
    """Row width and class weights of the quadrature's ``(rows, b)`` node layout on ``n`` nodes.

    Returns ``m = 0 .. b - 1`` as floats, for ``b`` the multiple of 4 just
    above ``sqrt(n)``, and the ``(b, 3, 2)`` class weights in units of
    ``h / 3``.  As ``b`` and ``n - 1`` are multiples of 4, node ``k = j b + m``
    has ``k mod 4 = m mod 4``, and apart from the two ends, whose weight is
    half their class's, its Simpson weight depends on ``m`` alone: ``2, 4, 2,
    4`` on all nodes (``fine``) and ``4, 0, 8, 0`` on every other node at
    spacing ``2 h`` (``coarse``).  Entry ``[m]`` holds ``(fine, fine)``,
    ``(coarse, coarse)`` and ``(fine, coarse)``: the first two pairs weight
    the real and imaginary parts of a phase, the last a plain sum.
    """
    b = 4 * (math.isqrt(n) // 4 + 1)
    fine, coarse = np.resize([2.0, 4.0], b), np.resize([4.0, 0.0, 8.0, 0.0], b)
    classes = np.stack([fine, fine, coarse, coarse, fine, coarse], axis=1).reshape(b, 3, 2)
    m = np.arange(b, dtype=float)
    m.flags.writeable = classes.flags.writeable = False
    return m, classes


def correlation_integral(r: ReservoirColumns, t):
    """Closed form of ``integral_0^t f(s) ds = scale (t - expm1(z t) / z)``.

    ``r`` is a :class:`ReservoirColumns` that broadcasts against ``t``.  Where ``t > 0``
    and ``|z t| < SERIES_LIMIT``, ``t - expm1(z t) / z`` cancels to ``-z t**2 / 2``
    (a width of 1e-100 over t = 1e49 loses every digit), so the two-term series
    ``-t (z t / 2 + (z t)**2 / 6)`` is used; the next term is below
    ``SERIES_LIMIT**2 / 12 = 8e-12`` of it.  Where ``z t`` overflows,
    ``expm1(z t) / z`` is taken as 0 (see :func:`_where_finite`).
    """
    def bracket(zt):
        direct = t - np.expm1(zt) / r.z
        small = np.abs(zt) < SERIES_LIMIT
        if np.count_nonzero(small):
            small &= t != 0   # both forms give 0 at t = 0, the first sample of every grid
            if np.count_nonzero(small):
                return np.where(small, -t * (zt / 2 + zt * zt / 6), direct)
        return direct

    return r.scale * _where_finite(r.z, t, bracket, t)


def _where_finite(z, t, term, otherwise=0.0):
    """``term(z t)`` where ``z t`` is finite, else ``otherwise``, with no overflow warning.

    ``z t`` overflows only at a width or detuning near the float limit, where
    ``|z| t > 1.7e308``.  As ``|exp(z t)| = exp(-lam t)`` and
    ``|scale| = lam / (2 |z|)``, the dropped ``scale exp(z t)`` of ``f`` is
    at most ``lam t exp(-lam t) / (2 |z| t) < 1e-308``, and the dropped
    ``scale expm1(z t) / z`` of its integral at most ``1 / |z| < 1e-308 t``.
    Finite ``z t`` gives the same bits as ``term(z * t)``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        zt = z * t
        value, finite = term(zt), np.isfinite(zt)
        if np.count_nonzero(finite) == finite.size:   # the usual case: nothing to replace
            return value
        return np.where(finite, value, otherwise)


@_equal_halves_once
def excited_population(r: ReservoirColumns, t):
    """Excited-state population ``p(t) = |u(t)|^2 = exp(-2 Re integral_0^t f)``.

    The population at ``t`` of an atom that starts excited; in [0, 1], since
    the accumulated decay ``2 Re integral_0^t f`` is a spectral average of
    ``(1 - cos)`` terms and so never negative.  ``r`` and ``t`` as in
    :func:`correlation_integral`.
    """
    return np.exp(-2.0 * correlation_integral(r, t).real)
