"""Time-local (TCL2) dissipative dynamics of two qubits in independent reservoirs.

Each two-level atom couples to its own zero-temperature bosonic reservoir with
a Lorentzian coupling spectrum

    J(omega) = (1 / 2 pi) * gamma0 * lam**2 / ((omega0 - omega - delta)**2 + lam**2),

where ``lam`` is the spectral width, ``delta`` the detuning of the spectrum's
center from the atomic transition frequency ``omega0``, and ``gamma0`` the
Markovian decay rate in the flat-spectrum limit.  The reduced state obeys the
second-order time-convolutionless master equation

    d rho / dt = L_A rho + L_B rho,
    L_j rho = f_j(t) [S_j^- rho, S_j^+] + conj(f_j(t)) [S_j^-, rho S_j^+],

with the zero-temperature correlation function

    f_j(t) = gamma0 * lam / (2 (lam - i delta)) * (1 - exp((i delta - lam) t)).

A negative real part of ``f`` signals information backflow from the reservoir
(non-Markovian regime, ``lam < 2 gamma0``).  Both terms are local,
phase-covariant amplitude dampings, so the equation is solved exactly by the
tensor product of two single-qubit amplitude-damping channels with coherence
factors ``u_j(t) = exp(-integral_0^t f_j)`` (Breuer & Petruccione, *The
Theory of Open Quantum Systems*, ch. 10); :func:`propagate` evaluates that
closed form instead of integrating.

Conventions fixed package-wide: two-qubit basis ordering |00>, |01>, |10>, |11>
with atom A as the left (slow) tensor factor, |1> the excited state; all rates
and times are expressed in units of ``gamma0`` (``gamma0 = 1`` by default).

All functions are pure; trajectories for different parameter sets may be
computed fully in parallel.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .errors import QuadratureUnconverged, ValidationError

GAMMA0_DEFAULT = 1.0


@dataclass(frozen=True)
class ReservoirParams:
    """Lorentzian reservoir parameters, all in units of ``gamma0``.

    ``lam`` is the spectral width (> 0), ``delta`` the detuning (>= 0),
    ``gamma0`` the Markovian decay rate (> 0, 1 by default).
    """

    lam: float
    delta: float = 0.0
    gamma0: float = GAMMA0_DEFAULT

    def __post_init__(self):
        for name in ("lam", "delta", "gamma0"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValidationError(f"{name}: must be finite, got {v}")
        if self.lam <= 0:
            raise ValidationError(f"lam: must be > 0, got {self.lam}")
        if self.gamma0 <= 0:
            raise ValidationError(f"gamma0: must be > 0, got {self.gamma0}")
        if self.delta < 0:
            raise ValidationError(f"delta: must be >= 0, got {self.delta}")


@dataclass
class SystemState:
    """Two-qubit state ``rho`` at dimensionless time ``t``."""

    t: float
    rho: np.ndarray


@dataclass
class Trajectory:
    """Sampled evolution: ``(N, 4, 4)`` states ``rhos`` at ``times``, plus derived columns.

    The per-sample columns ``mu``, ``lhs``, ``concurrence``, ``f_a`` and ``f_b``
    are filled by the scenario runner; ``propagate`` leaves them None.  The
    generating reservoir parameters are kept so that the exact state, and so
    the witness crossing, can be evaluated between samples.
    """

    times: np.ndarray
    rhos: np.ndarray
    r_a: ReservoirParams
    r_b: ReservoirParams
    mu: np.ndarray | None = None
    lhs: np.ndarray | None = None
    concurrence: np.ndarray | None = None
    f_a: np.ndarray | None = None
    f_b: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.times)


def correlation_f(r: ReservoirParams, t):
    """Zero-temperature reservoir correlation function ``f(t)``.

    ``f(t) = gamma0 lam / (2 (lam - i delta)) * (1 - exp((i delta - lam) t))``;
    the thermal counterpart ``k(t)`` vanishes identically at zero temperature.
    Accepts a scalar or an array of times ``t >= 0``.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError(f"t: must be >= 0, got {t.min()}")
    scale = r.gamma0 * r.lam / (2.0 * (r.lam - 1j * r.delta))
    out = scale * (1.0 - np.exp((1j * r.delta - r.lam) * t))
    return complex(out) if out.ndim == 0 else out


def correlation_f_quadrature(r: ReservoirParams, t: float,
                             omega_window: float | None = None,
                             n_points: int = 100_001) -> complex:
    """``f(t)`` by direct numerical integration over the Lorentzian spectrum.

    Evaluates ``i * integral J(omega) (1 - exp(i (omega0 - omega) t)) / (omega0 - omega) domega``
    in the detuning variable ``x = omega0 - omega``, over an interval that
    covers both the spectral peak at ``x = delta`` (within ``omega_window``,
    which must span at least 50 widths) and the resonance feature at ``x = 0``.
    The lower frequency limit is extended to minus infinity, matching the
    closed form; this routine serves as an independent cross-check of
    :func:`correlation_f`.

    Raises
    ------
    QuadratureUnconverged
        if doubling ``n_points`` moves the result by more than 1e-5.
    """
    if t < 0:
        raise ValidationError(f"t: must be >= 0, got {t}")
    if n_points < 1000:
        raise ValidationError(f"n_points: must be >= 1000, got {n_points}")
    if omega_window is None:
        omega_window = 120.0 * r.lam + 20.0 * r.gamma0
    if omega_window < 50.0 * r.lam:
        raise ValidationError(
            f"omega_window: must span at least 50 widths ({50.0 * r.lam}), got {omega_window}")

    def integrate(n: int) -> complex:
        if n % 2 == 0:
            n += 1  # Simpson needs an odd node count
        x = np.linspace(min(0.0, r.delta) - omega_window,
                        max(0.0, r.delta) + omega_window, n)
        spectrum = (r.gamma0 * r.lam ** 2 / (2.0 * np.pi)) / ((x - r.delta) ** 2 + r.lam ** 2)
        safe_x = np.where(x == 0.0, 1.0, x)
        kernel = np.where(x == 0.0, -1j * t, (1.0 - np.exp(1j * x * t)) / safe_x)
        integrand = 1j * spectrum * kernel
        return complex(simpson(integrand.real, x=x) + 1j * simpson(integrand.imag, x=x))

    coarse = integrate(n_points)
    fine = integrate(2 * n_points)
    if abs(fine - coarse) > 1e-5:
        raise QuadratureUnconverged(
            f"node doubling moved the result by {abs(fine - coarse):.3e} > 1e-5")
    return fine


def correlation_integral(r: ReservoirParams, t):
    """Closed form of ``integral_0^t f(s) ds`` for a scalar or an array of times."""
    z = 1j * r.delta - r.lam
    scale = r.gamma0 * r.lam / (2.0 * (r.lam - 1j * r.delta))
    return scale * (t - np.expm1(z * t) / z)


def _damping_map(u: np.ndarray) -> np.ndarray:
    """Amplitude-damping channels with coherence factors ``u``, shape ``(N, 2, 2, 2, 2)``.

    Entry ``[n, a, g, c, e]`` maps the input element ``rho[c, e]`` to the output
    element ``[a, g]``; it is ``sum_k K_k[a, c] conj(K_k[g, e])`` over the Kraus
    pair ``K_0 = diag(1, u)``, ``K_1 = sqrt(1 - |u|^2) |0><1|``.
    """
    m = np.zeros(u.shape + (2, 2, 2, 2), dtype=complex)
    decayed = np.abs(u) ** 2
    m[:, 0, 0, 0, 0] = 1.0
    m[:, 0, 0, 1, 1] = 1.0 - decayed
    m[:, 1, 1, 1, 1] = decayed
    m[:, 0, 1, 0, 1] = u.conj()
    m[:, 1, 0, 1, 0] = u
    return m


def channel_states(initial: SystemState, r_a: ReservoirParams, r_b: ReservoirParams,
                   times) -> np.ndarray:
    """Exact solution of the master equation at ``times >= initial.t``, shape ``(N, 4, 4)``.

    The generator splits over the two atoms, and each term is a phase-covariant
    amplitude damping, so the state at ``t`` is ``(Lambda_A (x) Lambda_B) rho(t0)``
    with coherence factors ``u_j = exp(-integral_t0^t f_j)``.  Each output
    element is summed in the same order whatever the length of ``times``, so a
    single time gives bit for bit the state a whole grid gives there; the
    witness root-find relies on this to see the same sign of ``mu - 1`` at a
    sample as the sampled series does.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    t0 = initial.t
    maps = [_damping_map(np.exp(correlation_integral(r, t0) - correlation_integral(r, times)))
            for r in (r_a, r_b)]
    rho0 = np.asarray(initial.rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("nagce,nbhdf,cdef->nabgh", *maps, rho0).reshape(-1, 4, 4)


def propagate(initial: SystemState, r_a: ReservoirParams, r_b: ReservoirParams,
              t_max: float, dt: float = 1e-2, sample_every: int = 1) -> Trajectory:
    """Exact states on the sample grid ``initial.t + k * dt * sample_every``.

    The grid lands on ``t_max`` (the duration of the run), so ``t_max`` must be
    a whole number of sample spacings ``dt * sample_every``, within 1e-9
    relative.  Every stored state is the closed-form solution at its time; no
    error accumulates along the grid.
    """
    if dt <= 0:
        raise ValidationError(f"dt: must be > 0, got {dt}")
    if t_max <= 0:
        raise ValidationError(f"t_max: must be > 0, got {t_max}")
    if sample_every < 1:
        raise ValidationError(f"sample_every: must be >= 1, got {sample_every}")
    spacing = dt * sample_every
    n_samples = round(t_max / spacing)
    if n_samples < 1 or abs(n_samples * spacing - t_max) > 1e-9 * t_max:
        raise ValidationError(
            f"t_max: must be a whole number of sample spacings dt * sample_every = "
            f"{spacing:.6g}, got {t_max}")
    times = initial.t + np.arange(0, n_samples * sample_every + 1, sample_every) * dt
    return Trajectory(times=times, rhos=channel_states(initial, r_a, r_b, times),
                      r_a=r_a, r_b=r_b)


def bell_initial() -> SystemState:
    """Maximally entangled initial state |Phi+> = (|00> + |11>)/sqrt(2) at t = 0."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = rho[0, 3] = rho[3, 0] = 0.5
    return SystemState(t=0.0, rho=rho)

