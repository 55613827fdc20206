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


# Per-sample reference for the batched observables: one matrix at a time,
# each entropy from its own eigvalsh, the partial trace and the measured
# states written out element by element.
_PLUS_MINUS = {
    "Sx": (np.array([1, 1]) / math.sqrt(2), np.array([1, -1]) / math.sqrt(2)),
    "Sy": (np.array([1, 1j]) / math.sqrt(2), np.array([1, -1j]) / math.sqrt(2)),
}
_SIGMA_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)


def entropy_reference(rho: np.ndarray) -> float:
    ev = np.linalg.eigvalsh(rho)
    return -sum(x * math.log2(x) for x in ev if x > 0.0)


def memory_marginal_reference(rho: np.ndarray) -> np.ndarray:
    """``tr_A rho``: element ``[b, d] = sum_a rho[2a + b, 2a + d]``."""
    out = np.zeros((2, 2), dtype=complex)
    for b in range(2):
        for d in range(2):
            out[b, d] = rho[b, d] + rho[2 + b, 2 + d]
    return out


def measured_reference(rho: np.ndarray, basis: str) -> np.ndarray:
    """``sum_j (|v_j><v_j| (x) I) rho (|v_j><v_j| (x) I)`` with explicit projectors."""
    out = np.zeros((4, 4), dtype=complex)
    for v in _PLUS_MINUS[basis]:
        proj = np.kron(np.outer(v, v.conj()), np.eye(2))
        out += proj @ rho @ proj
    return out


def concurrence_reference(rho: np.ndarray) -> float:
    """Wootters concurrence from the Takagi form of the spin flip.

    With ``rho = W W^dag`` (``W = V sqrt(diag(w))`` from one eigendecomposition),
    the square roots of the eigenvalues of ``rho rho_tilde`` are the singular
    values of the complex-symmetric ``W^T (sigma_y (x) sigma_y) W``.  Noise in
    the null space of a rank-deficient state enters both factors alike, so the
    result stays accurate to rounding, where two independent square roots of
    ``rho`` and ``rho_tilde`` can disagree by ``sqrt(eps)``.
    """
    w, v = np.linalg.eigh(rho)
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    roots = np.linalg.svd(factor.T @ _SIGMA_YY @ factor, compute_uv=False)
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def observables_reference(rho: np.ndarray) -> tuple[float, float, float]:
    """``(mu, lhs, concurrence)`` of one 4x4 state."""
    h_b = entropy_reference(memory_marginal_reference(rho))
    mu = 1.0 + entropy_reference(rho) - h_b
    lhs = sum(entropy_reference(measured_reference(rho, basis)) - h_b for basis in ("Sx", "Sy"))
    return mu, lhs, concurrence_reference(rho)


def death_time_loop(times, concs, zero_tol: float, confirm_samples: int):
    """First time from which ``confirm_samples + 1`` samples in a row are below ``zero_tol``."""
    below = np.asarray(concs) <= zero_tol
    for i in range(max(len(below) - confirm_samples, 0)):
        if below[i : i + confirm_samples + 1].all():
            return float(times[i])
    return None
