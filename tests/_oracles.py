"""Independent oracles and state factories for the test suite.

Two oracles check the closed forms of the package:

* the evolution oracle integrates the master equation itself, ``L_A + L_B``
  assembled from explicit atom operators, with classical fixed-step RK4, and
  ``f(t)`` written out here (:func:`correlation_f`);
* the general-state oracle applies the exact two-channel solution, with
  the integral of ``f`` written out here (:func:`correlation_integral`), to
  any initial 4x4 state and reads every observable from the full density
  matrix: entropies from ``eigvalsh``, the partial trace and the measured
  states written out, the concurrence from the Takagi form of the spin flip.
  It knows nothing of the X-state structure the package's formulas rest on.

Neither calls ``entwitness.dynamics``: a reservoir is a ``(lam, delta)`` pair
here, and :func:`one_reservoir` builds the package's columns of one.

A third, :func:`sweep_loop`, runs a parameter sweep one grid point at a time
through ``run_scenario``, against which the batched sweep is compared;
:func:`sweep_csv_reference` writes its rows one at a time, against which the
column-wise sweep writer is compared; :func:`quadrature_direct` evaluates the
f(t) quadrature with one ``np.exp`` per node and :func:`simpson` as written,
against which the package's two-table phase and class-weight layout are
compared; and :func:`emit_reference` formats every CSV cell on its own,
against which the writer's chunked orjson passes are compared;
:func:`bracketed_root_reference` is the crossing root-find as first written,
with every quantity formed anew in every pass, against which the package's
root-find is compared bit for bit.
:func:`load_yaml` loads a config with PyYAML's safe loader and no checks,
against which ``parse_config`` is compared on flat configs of known keys.

Matrices are ``(..., d, d)`` stacks; a single matrix gives scalars.  Input
checks name the first offending sample; a matrix that is not Hermitian, or
not of X form where that is required, raises ``ValueError``, and the other
checks raise the package's error types.
"""

import dataclasses
import math
import re
from dataclasses import dataclass

import numpy as np
import yaml

from entwitness import (EntwitnessError, NotDensityMatrix, QuadratureUnconverged,
                        ValidationError, run_scenario)
from entwitness.dynamics import QUADRATURE_LADDER, ReservoirColumns, checked_value, is_number
from entwitness.scenario import CSV_HEADER, SWEEP_KEYS
from entwitness.witness import MAX_EVALUATIONS

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


def correlation_f(lam, delta, t):
    """``f(t) = lam / (2 (lam - i delta)) (1 - exp((i delta - lam) t))``, as written."""
    return lam / (2.0 * (lam - 1j * delta)) * (1.0 - np.exp((1j * delta - lam) * t))


def correlation_integral(lam, delta, t):
    """``integral_0^t f = lam / (2 (lam - i delta)) (t - expm1(z t) / z)``, as written."""
    z = 1j * delta - lam
    return lam / (2.0 * (lam - 1j * delta)) * (t - np.expm1(z * t) / z)


def one_reservoir(lam, delta=0.0) -> ReservoirColumns:
    """The package's ``(1,)`` columns of one reservoir, its width and detuning checked."""
    return ReservoirColumns.of(np.array(checked_value("lam", lam)),
                               np.array(checked_value("delta", delta)))


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

    ``r_a`` and ``r_b`` are ``(lam, delta)`` pairs.  Takes the fewest equal
    steps no longer than ``max_step``, so the last one lands exactly on ``t1``.
    """
    def deriv(t, y):
        return liouvillian_apply(y, correlation_f(*r_a, t), correlation_f(*r_b, t))

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
    """``exp(i H)`` of a random Hermitian ``H = V diag(w) V^H``, as ``V diag(exp(i w)) V^H``."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    return (v * np.exp(1j * w)) @ v.conj().T


# ---------------------------------------------------------------- general-state oracle

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-9
X_STATE_TOL = 1e-10

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)
_X_MASK = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]


def _first(bad):
    bad = np.asarray(bad)
    return np.unravel_index(int(np.argmax(bad)), bad.shape) if bad.any() else None


def _at(index) -> str:
    return f" at sample {index[0] if len(index) == 1 else index}" if index else ""


def _scalar_or_stack(x):
    return float(x) if np.ndim(x) == 0 else x


def _as_matrix(m, name: str = "matrix", dims=(2, 4)) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] not in dims:
        raise ValidationError(f"{name}: expected d x d matrices, d in {dims}, got {a.shape}")
    i = _first(~np.isfinite(a.view(float)).all(axis=(-2, -1)))
    if i is not None:
        raise ValidationError(f"{name}: non-finite entries{_at(i)}")
    return a


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix (``ValueError`` beyond 1e-10)."""
    a = _as_matrix(m)
    defect = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    i = _first(defect > HERMITIAN_TOL)
    if i is not None:
        raise ValueError(f"not Hermitian: max |m - m^dag| = {defect[i]:.3e}{_at(i)}")
    return np.linalg.eigvalsh(a)


def matrix_entropy(m):
    """Von Neumann entropy in bits of each density matrix.

    Unit trace within ``TRACE_TOL`` and eigenvalues above ``EIGENVALUE_FLOOR``
    are required; the noise band below zero is clamped, ``0 log 0 = 0``.
    """
    a = _as_matrix(m)
    tr = np.trace(a, axis1=-2, axis2=-1)
    i = _first(np.abs(tr - 1.0) > TRACE_TOL)
    if i is not None:
        raise NotDensityMatrix(f"trace = {tr[i]}, expected 1 within {TRACE_TOL}{_at(i)}")
    ev = hermitian_eigenvalues(a)
    i = _first(ev[..., 0] < EIGENVALUE_FLOOR)
    if i is not None:
        raise NotDensityMatrix(f"eigenvalue {ev[i][0]:.3e} below floor {EIGENVALUE_FLOOR}{_at(i)}")
    ev = np.clip(ev, 0.0, None)
    return _scalar_or_stack(-np.sum(ev * np.log2(np.where(ev > 0.0, ev, 1.0)), axis=-1))


def partial_trace(rho, keep: str) -> np.ndarray:
    """Reduced 2x2 states of subsystem ``keep`` ("A" or "B") of 4x4 states."""
    a = _as_matrix(rho, "partial_trace", dims=(4,))
    tr = np.trace(a, axis1=-2, axis2=-1)
    i = _first(np.abs(tr - 1.0) > TRACE_TOL)
    if i is not None:
        raise ValidationError(f"partial_trace: trace = {tr[i]}, expected 1{_at(i)}")
    blocks = a.reshape(a.shape[:-2] + (2, 2, 2, 2))  # (A row, B row, A col, B col)
    if keep == "A":
        return np.trace(blocks, axis1=-3, axis2=-1)
    if keep == "B":
        return np.trace(blocks, axis1=-4, axis2=-2)
    raise ValidationError(f"keep: expected 'A' or 'B', got {keep!r}")


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal eigenbasis of an observable measured on atom A."""

    label: str
    vectors: tuple[np.ndarray, np.ndarray]

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(np.outer(v, v.conj()) for v in self.vectors)


SX_BASIS = MeasurementBasis("Sx", (np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex),
                                   np.array([_SQRT_HALF, -_SQRT_HALF], dtype=complex)))
SY_BASIS = MeasurementBasis("Sy", (np.array([_SQRT_HALF, 1j * _SQRT_HALF], dtype=complex),
                                   np.array([_SQRT_HALF, -1j * _SQRT_HALF], dtype=complex)))


def post_measurement_state(rho, basis: MeasurementBasis) -> np.ndarray:
    """``sum_j (P_j (x) I) rho (P_j (x) I)`` for the projectors of ``basis`` on atom A."""
    a = _as_matrix(rho, "post_measurement_state", dims=(4,))
    out = np.zeros_like(a)
    for p in basis.projectors():
        op = np.kron(p, IDENTITY_2)
        out += op @ a @ op
    return out


@dataclass(frozen=True)
class Record:
    """Every entropic quantity of the uncertainty bound, in bits."""

    h_sx_b: float | np.ndarray
    h_sy_b: float | np.ndarray
    lhs: float | np.ndarray
    h_a_b: float | np.ndarray
    mu: float | np.ndarray


def uncertainty_record(rho) -> Record:
    """``mu = 1 + H(A|B)`` and ``lhs = H(Sx|B) + H(Sy|B)`` from the full states."""
    a = _as_matrix(rho, "rho", dims=(4,))
    h_b = matrix_entropy(partial_trace(a, "B"))
    h_a_b = matrix_entropy(a) - h_b
    h_sx_b = matrix_entropy(post_measurement_state(a, SX_BASIS)) - h_b
    h_sy_b = matrix_entropy(post_measurement_state(a, SY_BASIS)) - h_b
    return Record(h_sx_b=h_sx_b, h_sy_b=h_sy_b, lhs=h_sx_b + h_sy_b, h_a_b=h_a_b,
                  mu=1.0 + h_a_b)


def concurrence(rho):
    """Wootters concurrence from the Takagi form of the spin flip.

    With ``rho = W W^dag`` (``W = V sqrt(diag(w))`` from one eigendecomposition),
    the square roots of the eigenvalues of ``rho rho_tilde`` are the singular
    values of the complex-symmetric ``W^T (sigma_y (x) sigma_y) W``.  Noise in
    the null space of a rank-deficient state enters both factors alike, so the
    result stays accurate to rounding, where two independent square roots of
    ``rho`` and ``rho_tilde`` can disagree by ``sqrt(eps)``.
    """
    a = _as_matrix(rho, "rho", dims=(4,))
    w, v = np.linalg.eigh(0.5 * (a + a.conj().swapaxes(-1, -2)))
    factor = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    roots = np.linalg.svd(factor.swapaxes(-1, -2) @ _YY @ factor, compute_uv=False)
    c = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    return _scalar_or_stack(np.maximum(0.0, c))


def concurrence_x_state(rho):
    """``2 max(0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44))`` (1-indexed).

    Raises ``ValueError`` if an entry off the diagonal and anti-diagonal exceeds
    ``X_STATE_TOL``.
    """
    a = _as_matrix(rho, "rho", dims=(4,))
    off = np.abs(np.where(_X_MASK, 0.0, a)).max(axis=(-2, -1))
    i = _first(off > X_STATE_TOL)
    if i is not None:
        raise ValueError(f"not an X state: non-X entry of magnitude {off[i]:.3e}{_at(i)}")
    p = np.clip(a.diagonal(axis1=-2, axis2=-1).real, 0.0, None)
    outer = np.abs(a[..., 0, 3]) - np.sqrt(p[..., 1] * p[..., 2])
    inner = np.abs(a[..., 1, 2]) - np.sqrt(p[..., 0] * p[..., 3])
    return _scalar_or_stack(2.0 * np.maximum(np.maximum(0.0, outer), inner))


def damped_states(rho0, u_a, u_b) -> np.ndarray:
    """``(Lambda_A (x) Lambda_B) rho0`` for amplitude dampings with coherence factors ``u``.

    Each channel has the Kraus pair ``K_0 = diag(1, u)``,
    ``K_1 = sqrt(1 - |u|^2) |0><1|``; ``u_a``, ``u_b`` are equal-length arrays
    and the result is an ``(N, 4, 4)`` stack.
    """
    def kraus(u):
        k = np.zeros(u.shape + (2, 2, 2), dtype=complex)
        k[:, 0, 0, 0] = 1.0
        k[:, 0, 1, 1] = u
        k[:, 1, 0, 1] = np.sqrt(np.clip(1.0 - np.abs(u) ** 2, 0.0, None))
        return k

    k_a = kraus(np.atleast_1d(np.asarray(u_a, dtype=complex)))
    k_b = kraus(np.atleast_1d(np.asarray(u_b, dtype=complex)))
    r0 = np.asarray(rho0, dtype=complex).reshape(2, 2, 2, 2)
    out = np.einsum("niac,njbd,cdef,nige,njhf->nabgh", k_a, k_b, r0, k_a.conj(), k_b.conj(),
                    optimize=True)
    return out.reshape(-1, 4, 4)


def reservoirs(cfg):
    """The ``(lam, delta)`` pairs of a config's atoms A and B."""
    return (cfg.lambda_a, cfg.delta_a), (cfg.lambda_b, cfg.delta_b)


def channel_states(rho0, r_a, r_b, times) -> np.ndarray:
    """Exact solution of the master equation from ``rho0`` at ``t = 0``, shape ``(N, 4, 4)``.

    The generator splits into two local, phase-covariant amplitude dampings, so
    the state at ``t`` is ``(Lambda_A (x) Lambda_B) rho0`` with coherence
    factors ``u_j = exp(-integral_0^t f_j)``; ``r_a`` and ``r_b`` are
    ``(lam, delta)`` pairs.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return damped_states(rho0, *(np.exp(-correlation_integral(*r, times)) for r in (r_a, r_b)))


def observables(rhos):
    """``(mu, lhs, concurrence)`` of each state in a stack."""
    rec = uncertainty_record(rhos)
    return rec.mu, rec.lhs, concurrence(rhos)


def death_time_loop(times, concs, zero_tol: float, confirm_samples: int):
    """First time from which ``confirm_samples + 1`` samples in a row are below ``zero_tol``."""
    below = np.asarray(concs) <= zero_tol
    for i in range(max(len(below) - confirm_samples, 0)):
        if below[i : i + confirm_samples + 1].all():
            return float(times[i])
    return None


def sweep_loop(lambdas, deltas, base):
    """``sweep`` one grid point at a time: a ``run_scenario`` per point.

    Returns one ``((lambda, delta), report, error)`` per point: the report of
    a good point and None, or None and a failed point's ``"Type: message"``.
    """
    rows = []
    for lam in list(lambdas) if lambdas else [None]:
        for delta in list(deltas) if deltas else [None]:
            overrides = {}
            if lam is not None:
                overrides["lambda_a"] = overrides["lambda_b"] = lam
            if delta is not None:
                overrides["delta_a"] = overrides["delta_b"] = delta
            try:
                _, report = run_scenario(dataclasses.replace(base, **overrides))
                rows.append(((lam, delta), report, None))
            except EntwitnessError as exc:
                rows.append(((lam, delta), None, f"{type(exc).__name__}: {exc}"))
    return rows


def sweep_csv_reference(rows) -> str:
    """The sweep CSV text of ``(point, report, error)`` rows, one row at a time.

    A grid value a config accepts is written as the float it holds, any other
    as given; a report value as true/false, its float, or empty for None and
    for every value of a failed row.  A text cell (an error, a value as given)
    that holds a comma, a double quote, CR or LF is written in double quotes,
    each inner quote doubled, as RFC 4180 has it.
    """
    def text(s):
        if any(c in s for c in ',"\r\n'):
            return '"' + "".join('""' if c == '"' else c for c in s) + '"'
        return s

    def value(v):
        return "" if v is None else repr(float(v)) if is_number(v) else text(str(v))

    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        return "" if v is None else repr(float(v))

    lines = [",".join(("lambda", "delta", *SWEEP_KEYS, "error"))]
    for (lam, delta), report, error in rows:
        cells = [cell(None if report is None else getattr(report, key)) for key in SWEEP_KEYS]
        lines.append(",".join([value(lam), value(delta), *cells, text(error or "")]))
    return "\n".join(lines) + "\n"


def emit_reference(traj) -> str:
    """The CSV text of ``emit_csv``: one ``repr`` per float of all eight columns, one join per row."""
    columns = (traj.times, traj.mu, traj.lhs, traj.concurrence,
               traj.f_a.real, traj.f_a.imag, traj.f_b.real, traj.f_b.imag)
    cells = [[repr(x) for x in column.tolist()] for column in columns]
    return CSV_HEADER + "\n" + "".join(",".join(row) + "\n" for row in zip(*cells))


def bracketed_root_reference(f, lo, hi, f_lo, f_hi, xtol: float):
    """``entwitness.witness.bracketed_root`` as first written: every quantity formed in every pass.

    Chandrupatla's method on each bracket ``[lo, hi]``, with the package's
    arguments, done test and ``MAX_EVALUATIONS``; NaN for a bracket not done.
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


def simpson(y, dx) -> complex:
    """Composite Simpson's rule on an odd node count, as written: ends, odd nodes, even nodes."""
    return complex(dx / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum()))


def quadrature_direct(r, t: float) -> complex:
    """``correlation_f_quadrature`` with ``exp(i x t)`` evaluated at each node.

    The same interval, node ladder, start rung and 1e-5 node-doubling gate,
    with the integrand evaluated as written: one ``np.exp`` per node, the
    limit ``-i t`` of ``(1 - exp(i x t)) / x`` at ``x = 0``, and two complex
    divisions.
    """
    window = 120.0 * r.lam + 20.0
    lo, hi = min(0.0, r.delta) - window, max(0.0, r.delta) + window
    spacings = [(hi - lo) / (n - 1) for n in QUADRATURE_LADDER]
    start = next((k for k, h in enumerate(spacings) if h <= r.lam / 4 and h * t <= 1),
                 len(spacings) - 1)
    for n in QUADRATURE_LADDER[start:]:
        x = np.linspace(lo, hi, n)
        at_zero = x == 0.0
        integrand = 1.0 - np.exp(x * (1j * t))
        integrand /= np.where(at_zero, 1.0, x)
        integrand[at_zero] = -1j * t
        integrand /= (x - r.delta) ** 2 + r.lam ** 2
        integrand *= 1j * r.lam ** 2 / (2.0 * np.pi)
        spacing = (hi - lo) / (n - 1)
        fine, coarse = simpson(integrand, spacing), simpson(integrand[::2], 2 * spacing)
        if abs(fine - coarse) <= 1e-5:
            return fine
    raise QuadratureUnconverged(
        f"node doubling moved the result by {abs(fine - coarse):.3e} > 1e-5")


class _ExponentLoader(yaml.SafeLoader):
    pass


_ExponentLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def load_yaml(text: str):
    """``text`` as PyYAML's safe loader reads it, exponent spellings (``1e-3``) as floats."""
    return yaml.load(text, Loader=_ExponentLoader)
