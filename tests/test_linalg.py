"""The test oracles' own numerics: the general-state oracle's eigenvalue and
entropy routines with their input checks, and the RK4 step of the evolution
oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwitness import NoConvergence, NotDensityMatrix, ValidationError
from _oracles import (bell_rho, hermitian_eigenvalues, matrix_entropy, random_density,
                      random_unitary, rk4_step)

_finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def density_matrices(draw, dim=4):
    re = draw(st.lists(_finite, min_size=dim * dim, max_size=dim * dim))
    im = draw(st.lists(_finite, min_size=dim * dim, max_size=dim * dim))
    a = (np.array(re) + 1j * np.array(im)).reshape(dim, dim)
    h = a @ a.conj().T + 1e-3 * np.eye(dim)
    return h / np.trace(h).real


def test_hermitian_eigenvalues_identity():
    assert np.allclose(hermitian_eigenvalues(np.eye(4, dtype=complex)), np.ones(4))


def test_hermitian_eigenvalues_pauli_x():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(hermitian_eigenvalues(sx), [-1.0, 1.0])


def test_hermitian_eigenvalues_perturbed_diagonal():
    # Oracle: the coupling only mixes levels 1 and 2, so the spectrum is
    # {0.1, 0.4} plus the roots of the explicit 2x2 block via the quadratic
    # formula: 0.25 -/+ sqrt(0.05**2 + 0.05**2).
    eps = 0.05
    m = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    m[1, 2] = m[2, 1] = eps
    split = np.sqrt(0.05 ** 2 + eps ** 2)
    expected = np.sort([0.1, 0.25 - split, 0.25 + split, 0.4])
    assert np.allclose(hermitian_eigenvalues(m), expected, atol=1e-12)


def test_hermitian_eigenvalues_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigenvalues(m)


def test_hermitian_eigenvalues_rejects_non_finite():
    m = np.eye(4, dtype=complex)
    m[2, 2] = np.nan
    with pytest.raises(ValidationError):
        hermitian_eigenvalues(m)


def test_hermitian_eigenvalues_rejects_odd_shape():
    with pytest.raises(ValidationError):
        hermitian_eigenvalues(np.eye(3, dtype=complex))


@settings(max_examples=25, deadline=None)
@given(density_matrices())
def test_eigenvalue_sum_matches_trace(rho):
    ev = hermitian_eigenvalues(rho)
    assert abs(ev.sum() - np.trace(rho).real) < 1e-9
    assert np.all(np.diff(ev) >= 0)


def test_unitary_invariance_of_spectrum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = random_density(rng, 4)
        u = random_unitary(rng, 4)
        rotated = u @ h @ u.conj().T
        assert np.allclose(hermitian_eigenvalues(h),
                           hermitian_eigenvalues(rotated), atol=1e-8)


def test_rk4_zero_derivative():
    y = bell_rho()
    out = rk4_step(lambda t, m: np.zeros_like(m), 0.0, y, 0.5)
    assert np.array_equal(out, y)


def test_rk4_exponential_single_step():
    y = np.array(1.0 + 0j)
    out = rk4_step(lambda t, v: -v, 0.0, y, 0.1)
    assert abs(out - 0.9048375) < 1e-9          # RK4 truncation of exp(-0.1)
    assert abs(out - np.exp(-0.1)) < 1e-7


def test_rk4_exact_on_cubic():
    y = np.array(0.0 + 0j)
    out = rk4_step(lambda t, v: np.array(3.0 * t ** 2 + 0j), 0.0, y, 1.0)
    assert out == pytest.approx(1.0, abs=0)


def test_rk4_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        rk4_step(lambda t, v: -v, 0.0, np.array(1.0 + 0j), 0.0)


def _integrate_exp(dt):
    y = np.array(1.0 + 0j)
    t = 0.0
    for _ in range(int(round(1.0 / dt))):
        y = rk4_step(lambda tt, v: -v, t, y, dt)
        t += dt
    return abs(y - np.exp(-1.0))


def test_rk4_fourth_order_convergence():
    err_coarse = _integrate_exp(0.01)
    err_fine = _integrate_exp(0.005)
    factor = err_coarse / err_fine
    assert 16 * 0.8 <= factor <= 16 * 1.2


def test_matrix_entropy_pure_state():
    assert matrix_entropy(bell_rho()) == pytest.approx(0.0, abs=1e-12)


def test_matrix_entropy_maximally_mixed():
    assert matrix_entropy(np.eye(4, dtype=complex) / 4) == pytest.approx(2.0, abs=1e-12)


def test_matrix_entropy_half_half():
    assert matrix_entropy(np.diag([0.5, 0.5, 0, 0]).astype(complex)) == pytest.approx(1.0, abs=1e-12)


def test_matrix_entropy_clamps_noise_band():
    rho = np.diag([1.0 + 5e-10, -5e-10, 0.0, 0.0]).astype(complex)
    assert matrix_entropy(rho) == pytest.approx(0.0, abs=1e-8)


def test_matrix_entropy_rejects_bad_trace():
    with pytest.raises(NotDensityMatrix):
        matrix_entropy(np.eye(4, dtype=complex))


def test_matrix_entropy_rejects_negative_eigenvalue():
    rho = np.diag([1.0 + 1e-6, -1e-6, 0.0, 0.0]).astype(complex)
    with pytest.raises(NotDensityMatrix):
        matrix_entropy(rho)


@settings(max_examples=25, deadline=None)
@given(density_matrices())
def test_matrix_entropy_bounded_and_unitarily_invariant(rho):
    s = matrix_entropy(rho)
    assert -1e-12 <= s <= 2.0 + 1e-12
    u = random_unitary(np.random.default_rng(3), 4)
    assert matrix_entropy(u @ rho @ u.conj().T) == pytest.approx(s, abs=1e-8)


def test_no_convergence_is_exported():
    assert issubclass(NoConvergence, Exception)
