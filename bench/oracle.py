"""Independent oracle for the benchmark's correctness checks.

Uses only numpy and nothing from ``entwitness`` or the test suite.  The model's
generator splits over the two atoms, so the exact two-qubit state is the
tensor product of two amplitude-damping channels with coherence factors
``u_j(t) = exp(-integral_0^t f_j)`` applied to the Bell state
``(|00> + |11>)/sqrt(2)``.  Entropies come from batched ``eigvalsh``, the
concurrence from the X-state closed form, and the witness crossing from
bisection on the exact ``mu(t)``.

Conventions: basis ``|00>, |01>, |10>, |11>``, atom A (measured) on the left,
``|1>`` excited, every rate and time in units of ``gamma0``.
"""

import numpy as np

CONCURRENCE_ZERO = 3e-3  # the documented "entanglement death" level
DEATH_CONFIRM = 10       # the drop must persist for this many further samples

_H = 1.0 / np.sqrt(2.0)
# Eigenvectors of Sx and Sy on atom A; only their projectors matter.
_BASES = (
    np.array([[_H, _H], [_H, -_H]], dtype=complex),
    np.array([[_H, 1j * _H], [_H, -1j * _H]], dtype=complex),
)


def _bell():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = rho[0, 3] = rho[3, 0] = 0.5
    return rho


def correlation_f(lam, delta, t, gamma0=1.0):
    """Closed-form Lorentzian correlation function ``f(t)``."""
    t = np.asarray(t, dtype=float)
    return gamma0 * lam / (2.0 * (lam - 1j * delta)) * (1.0 - np.exp((1j * delta - lam) * t))


def coherence_factor(lam, delta, t, gamma0=1.0):
    """``u(t) = exp(-integral_0^t f)`` of one amplitude-damping channel."""
    t = np.asarray(t, dtype=float)
    z = 1j * delta - lam
    integral = gamma0 * lam / (2.0 * (lam - 1j * delta)) * (t - np.expm1(z * t) / z)
    return np.exp(-integral)


def _kraus(u):
    k = np.zeros(u.shape + (2, 2, 2), dtype=complex)
    k[..., 0, 0, 0] = 1.0
    k[..., 0, 1, 1] = u
    k[..., 1, 0, 1] = np.sqrt(np.clip(1.0 - np.abs(u) ** 2, 0.0, None))
    return k


def states(params, t):
    """Exact states ``rho(t)``, shape ``(len(t), 4, 4)``.

    ``params`` is ``(lambda_a, delta_a, lambda_b, delta_b)``.
    """
    lam_a, delta_a, lam_b, delta_b = params
    t = np.atleast_1d(np.asarray(t, dtype=float))
    ka = _kraus(coherence_factor(lam_a, delta_a, t))
    kb = _kraus(coherence_factor(lam_b, delta_b, t))
    r0 = _bell().reshape(2, 2, 2, 2)
    out = np.einsum("niac,njbd,cdef,nige,njhf->nabgh",
                    ka, kb, r0, ka.conj(), kb.conj(), optimize=True)
    return out.reshape(len(t), 4, 4)


def _entropy(rho):
    ev = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    safe = np.where(ev > 0.0, ev, 1.0)
    return -np.sum(ev * np.log2(safe), axis=-1)


def _memory_marginal(rho):
    return np.einsum("nabac->nbc", rho.reshape(-1, 2, 2, 2, 2))


def _measured(rho, basis):
    """State after measuring atom A in ``basis`` (rows are the eigenvectors)."""
    r = rho.reshape(-1, 2, 2, 2, 2)
    out = np.zeros_like(r)
    for v in basis:
        p = np.outer(v, v.conj())
        out += np.einsum("ac,ncdef,eg->nadgf", p, r, p)
    return out.reshape(-1, 4, 4)


def observables(rho):
    """``(mu, lhs, concurrence)`` arrays for a stack of X-form states."""
    s_b = _entropy(_memory_marginal(rho))
    mu = 1.0 + _entropy(rho) - s_b
    lhs = sum(_entropy(_measured(rho, basis)) - s_b for basis in _BASES)
    p = rho.real
    outer = np.abs(rho[:, 0, 3]) - np.sqrt(np.clip(p[:, 1, 1] * p[:, 2, 2], 0.0, None))
    inner = np.abs(rho[:, 1, 2]) - np.sqrt(np.clip(p[:, 0, 0] * p[:, 3, 3], 0.0, None))
    conc = 2.0 * np.maximum(0.0, np.maximum(outer, inner))
    return mu, lhs, conc


def _mu_at(params, t):
    return observables(states(params, t))[0][0]


def _crossing(params, lo, hi):
    """Bisection on the exact ``mu(t) - 1`` inside ``[lo, hi]``."""
    while hi - lo > 1e-12 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if _mu_at(params, mid) >= 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class Expected:
    """Exact series on a sample grid plus the witness quantities derived from it."""

    def __init__(self, params, times):
        self.params = tuple(float(p) for p in params)
        self.times = np.asarray(times, dtype=float)
        self.mu, self.lhs, self.conc = observables(states(self.params, self.times))
        lam_a, delta_a, lam_b, delta_b = self.params
        self.f_a = correlation_f(lam_a, delta_a, self.times)
        self.f_b = correlation_f(lam_b, delta_b, self.times)
        self.mu_max = float(self.mu.max())
        above = self.mu >= 1.0
        self.crossing_found = bool(above.any())
        self.t_ew = self.c_ew = None
        if self.crossing_found:
            idx = int(np.argmax(above))
            if idx == 0:
                self.t_ew = float(self.times[0])
            else:
                self.t_ew = _crossing(self.params, self.times[idx - 1], self.times[idx])
            self.c_ew = float(observables(states(self.params, self.t_ew))[2][0])
        self.death_time = None
        below = self.conc <= CONCURRENCE_ZERO
        for i in range(len(below) - DEATH_CONFIRM):
            if below[i:i + DEATH_CONFIRM + 1].all():
                self.death_time = float(self.times[i])
                break
