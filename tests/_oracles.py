"""Independent oracles and state factories for the test suite.

The evolution oracle integrates the master equation itself, ``L_A + L_B``
assembled from explicit atom operators, with classical fixed-step RK4.  It
shares nothing with the closed-form channel solution under test except the
correlation function ``f(t)``, which has its own quadrature cross-check.
"""

import math

import numpy as np

from entwitness import correlation_f

# Single-qubit operators in the basis (|0>, |1>), |1> = excited.
IDENTITY_2 = np.eye(2, dtype=complex)
S_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)   # |1><0|
S_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
S_Z = 0.5 * np.array([[-1, 0], [0, 1]], dtype=complex)  # (|1><1| - |0><0|)/2

# Two-qubit embeddings, atom A on the left factor.
S_A_PLUS = np.kron(S_PLUS, IDENTITY_2)
S_A_MINUS = np.kron(S_MINUS, IDENTITY_2)
S_B_PLUS = np.kron(IDENTITY_2, S_PLUS)
S_B_MINUS = np.kron(IDENTITY_2, S_MINUS)
N_A = S_A_PLUS @ S_A_MINUS  # excited-state projector of atom A
N_B = S_B_PLUS @ S_B_MINUS


def liouvillian_apply(rho: np.ndarray, f_a: complex, f_b: complex) -> np.ndarray:
    """Apply ``L_A + L_B`` to a 4x4 state for given correlation-function values.

    ``L_j rho = f_j [S_j^- rho, S_j^+] + conj(f_j) [S_j^-, rho S_j^+]``.  The
    result is traceless, and Hermitian whenever ``rho`` is.
    """
    out = ((f_a + np.conj(f_a)) * (S_A_MINUS @ rho @ S_A_PLUS)
           - f_a * (N_A @ rho) - np.conj(f_a) * (rho @ N_A))
    out += ((f_b + np.conj(f_b)) * (S_B_MINUS @ rho @ S_B_PLUS)
            - f_b * (N_B @ rho) - np.conj(f_b) * (rho @ N_B))
    return out


def rk4_step(f, t: float, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical 4-stage Runge-Kutta step for ``dy/dt = f(t, y)``.

    ``f`` is evaluated at the substage times ``t``, ``t + dt/2`` and ``t + dt``,
    which preserves fourth order for non-autonomous systems.  Exact for
    derivative fields polynomial in ``t`` of degree <= 3.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_evolve(rho: np.ndarray, r_a, r_b, t0: float, t1: float, max_step: float) -> np.ndarray:
    """State at ``t1`` from ``rho`` at ``t0`` by RK4 on the master equation.

    Takes the fewest equal steps no longer than ``max_step``, so the last one
    lands exactly on ``t1``.
    """
    def deriv(t, y):
        return liouvillian_apply(y, correlation_f(r_a, t), correlation_f(r_b, t))

    n = math.ceil((t1 - t0) / max_step - 1e-9)
    y = np.array(rho, dtype=complex)
    for k in range(n):
        y = rk4_step(deriv, t0 + k * (t1 - t0) / n, y, (t1 - t0) / n)
    return y


def rk4_states(rho0: np.ndarray, r_a, r_b, times, max_step: float) -> np.ndarray:
    """RK4 states at the increasing ``times`` (the first one holds ``rho0``)."""
    out = [np.array(rho0, dtype=complex)]
    for t_prev, t in zip(times[:-1], times[1:]):
        out.append(rk4_evolve(out[-1], r_a, r_b, t_prev, t, max_step))
    return np.array(out)


def bell_rho() -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = rho[0, 3] = rho[3, 0] = 0.5
    return rho


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a @ a.conj().T
    return h / np.trace(h).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    from scipy.linalg import expm
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return expm(1j * 0.5 * (a + a.conj().T))
