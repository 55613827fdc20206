import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import entwitness as ew
from entwitness import (SX_BASIS, SY_BASIS, NotDensityMatrix, ValidationError,
                        concurrence, matrix_entropy, partial_trace,
                        post_measurement_state, uncertainty_record)
from _oracles import bell_rho, observables_reference, random_density

_finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def density_matrices(draw, dim=4):
    re = draw(st.lists(_finite, min_size=dim * dim, max_size=dim * dim))
    im = draw(st.lists(_finite, min_size=dim * dim, max_size=dim * dim))
    a = (np.array(re) + 1j * np.array(im)).reshape(dim, dim)
    h = a @ a.conj().T + 1e-3 * np.eye(dim)
    return h / np.trace(h).real


@st.composite
def product_states(draw):
    a = draw(density_matrices(dim=2))
    b = draw(density_matrices(dim=2))
    return a, b


def test_basis_orthonormality_and_complementarity():
    for basis in (SX_BASIS, SY_BASIS):
        v0, v1 = basis.vectors
        assert abs(np.vdot(v0, v0) - 1) < 1e-15
        assert abs(np.vdot(v1, v1) - 1) < 1e-15
        assert abs(np.vdot(v0, v1)) < 1e-15
    overlaps = [abs(np.vdot(psi, phi)) ** 2
                for psi in SX_BASIS.vectors for phi in SY_BASIS.vectors]
    assert max(overlaps) == pytest.approx(0.5, abs=1e-12)
    assert min(overlaps) == pytest.approx(0.5, abs=1e-12)


def test_partial_trace_bell_is_maximally_mixed():
    assert np.allclose(partial_trace(bell_rho(), "B"), np.eye(2) / 2, atol=1e-15)
    assert np.allclose(partial_trace(bell_rho(), "A"), np.eye(2) / 2, atol=1e-15)


def test_partial_trace_product_basis_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0  # |01><01|
    assert np.allclose(partial_trace(rho, "A"), np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(partial_trace(rho, "B"), np.diag([0.0, 1.0]), atol=1e-15)


def test_partial_trace_recovers_product_factors():
    rng = np.random.default_rng(13)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    joint = np.kron(rho_a, rho_b)
    assert np.abs(partial_trace(joint, "B") - rho_b).max() < 1e-12
    assert np.abs(partial_trace(joint, "A") - rho_a).max() < 1e-12


def test_partial_trace_validates_input():
    with pytest.raises(ValidationError):
        partial_trace(np.eye(2, dtype=complex) / 2, "B")
    with pytest.raises(ValidationError):
        partial_trace(bell_rho(), "C")


def test_post_measurement_bell_sx():
    # |Phi+> = (|++> + |-->)/sqrt(2), so measuring Sx on A leaves an even
    # mixture of |++><++| and |--><--|, one bit of entropy.
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    expected = 0.5 * (np.outer(np.kron(plus, plus), np.kron(plus, plus).conj())
                      + np.outer(np.kron(minus, minus), np.kron(minus, minus).conj()))
    out = post_measurement_state(bell_rho(), SX_BASIS)
    assert np.abs(out - expected).max() < 1e-14
    assert matrix_entropy(out) == pytest.approx(1.0, abs=1e-12)


def test_post_measurement_maximally_mixed_unchanged():
    rho = np.eye(4, dtype=complex) / 4
    for basis in (SX_BASIS, SY_BASIS):
        assert np.abs(post_measurement_state(rho, basis) - rho).max() < 1e-15


@settings(max_examples=25, deadline=None)
@given(density_matrices())
def test_post_measurement_idempotent_trace_preserving(rho):
    once = post_measurement_state(rho, SY_BASIS)
    twice = post_measurement_state(once, SY_BASIS)
    assert np.abs(once - twice).max() < 1e-12
    assert abs(np.trace(once) - np.trace(rho)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(density_matrices())
def test_post_measurement_commutes_and_entropy_grows(rho):
    out = post_measurement_state(rho, SX_BASIS)
    for p in SX_BASIS.projectors():
        op = np.kron(p, np.eye(2))
        assert np.abs(op @ out - out @ op).max() < 1e-12
    assert matrix_entropy(out) >= matrix_entropy(rho) - 1e-9


def test_conditional_entropy_landmarks():
    # H(A|B) = -1 for a Bell state, 1 for the maximally mixed state, 0 for |00>
    assert uncertainty_record(bell_rho()).h_a_b == pytest.approx(-1.0, abs=1e-12)
    assert uncertainty_record(np.eye(4) / 4).h_a_b == pytest.approx(1.0, abs=1e-12)
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    assert uncertainty_record(rho00).h_a_b == pytest.approx(0.0, abs=1e-12)


def test_uncertainty_record_bell():
    rec = uncertainty_record(bell_rho(), t=0.0)
    assert rec.mu == pytest.approx(0.0, abs=1e-10)
    assert rec.lhs == pytest.approx(0.0, abs=1e-10)
    assert rec.h_a_b == pytest.approx(-1.0, abs=1e-10)


def test_uncertainty_record_maximally_mixed():
    rec = uncertainty_record(np.eye(4, dtype=complex) / 4)
    assert rec.mu == pytest.approx(2.0, abs=1e-12)
    assert rec.lhs == pytest.approx(2.0, abs=1e-12)


def test_uncertainty_record_ground_product():
    # both measured entropies are one full bit while H(A|B) = 0, so the
    # inequality is strict: lhs = 2 > mu = 1
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    rec = uncertainty_record(rho00)
    assert rec.h_sx_b == pytest.approx(1.0, abs=1e-12)
    assert rec.h_sy_b == pytest.approx(1.0, abs=1e-12)
    assert rec.mu == pytest.approx(1.0, abs=1e-12)
    assert rec.lhs == pytest.approx(2.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(density_matrices())
def test_uncertainty_inequality_holds(rho):
    rec = uncertainty_record(rho)
    assert rec.lhs >= rec.mu - 1e-7
    assert -1.0 - 1e-7 <= rec.mu <= 2.0 + 1e-7


@settings(max_examples=25, deadline=None)
@given(product_states())
def test_product_states_are_never_witnessed(pair):
    rho_a, rho_b = pair
    rec = uncertainty_record(np.kron(rho_a, rho_b))
    assert rec.h_a_b == pytest.approx(matrix_entropy(rho_a), abs=1e-9)
    assert rec.h_a_b >= -1e-9
    assert rec.mu >= 1.0 - 1e-9


def test_single_state_gives_scalars_and_stack_gives_columns():
    rec = uncertainty_record(bell_rho(), t=0.5)
    assert all(isinstance(v, float) for v in (rec.mu, rec.lhs, rec.h_a_b, rec.h_sx_b))
    assert isinstance(concurrence(bell_rho()), float)
    stack = np.array([bell_rho(), np.eye(4) / 4])
    rec = uncertainty_record(stack, t=np.array([0.0, 1.0]))
    assert rec.mu.shape == rec.lhs.shape == (2,)
    assert np.allclose(rec.mu, [0.0, 2.0], atol=1e-12)
    assert np.allclose(concurrence(stack), [1.0, 0.0], atol=1e-10)
    assert partial_trace(stack, "B").shape == (2, 2, 2)


@st.composite
def rank_deficient_states(draw):
    rank = draw(st.integers(1, 3))
    re = draw(st.lists(_finite, min_size=4 * rank, max_size=4 * rank))
    im = draw(st.lists(_finite, min_size=4 * rank, max_size=4 * rank))
    a = (np.array(re) + 1j * np.array(im)).reshape(4, rank)
    assume(np.linalg.norm(a) > 1e-3)
    h = a @ a.conj().T
    return h / np.trace(h).real


@st.composite
def state_stacks(draw):
    kinds = st.one_of(density_matrices(), rank_deficient_states(),
                      product_states().map(lambda pair: np.kron(*pair)))
    return np.array(draw(st.lists(kinds, min_size=1, max_size=6)))


@settings(max_examples=40, deadline=None)
@given(state_stacks())
def test_batched_observables_match_per_sample_reference(rhos):
    # one batched pass against an independent per-matrix reference: its own
    # eigvalsh per entropy, an explicit partial trace, explicit Sx/Sy projectors
    rec = uncertainty_record(rhos)
    c = concurrence(rhos)
    ref = np.array([observables_reference(rho) for rho in rhos])
    assert np.abs(rec.mu - ref[:, 0]).max() < 1e-10
    assert np.abs(rec.lhs - ref[:, 1]).max() < 1e-10
    assert np.abs(c - ref[:, 2]).max() < 1e-10


def test_batched_mu_is_bit_identical_to_single_state(preset_run):
    # the crossing root-find evaluates single states and must see the same
    # sign of mu - 1 at a sample as the batched series does
    traj, _ = preset_run("fig1b_l5")
    rec = uncertainty_record(traj.rhos, traj.times)
    for i in range(len(traj)):
        single = uncertainty_record(traj.rhos[i], traj.times[i])
        assert rec.mu[i] == single.mu
        assert rec.lhs[i] == single.lhs
    assert np.array_equal(rec.mu, traj.mu)


def test_checks_name_the_first_offending_sample():
    stack = np.array([bell_rho()] * 5)
    stack[3] *= 1.5
    stack[4] *= 2.0
    with pytest.raises(NotDensityMatrix, match="at sample 3"):
        matrix_entropy(stack)
    stack = np.array([bell_rho()] * 4)
    stack[2, 0, 1] = np.nan
    with pytest.raises(ValidationError, match="non-finite entries at sample 2"):
        uncertainty_record(stack)


def test_physics_invariant_violation_raises_not_density_matrix(monkeypatch):
    # H(rho_AB) inflated by 4 bits on 4x4 states pushes mu above 2 everywhere
    real_entropy = ew.information.matrix_entropy

    def inflated(m):
        h = real_entropy(m)
        return h + 4.0 if np.shape(m)[-1] == 4 else h

    monkeypatch.setattr(ew.information, "matrix_entropy", inflated)
    times = np.array([0.0, 0.25, 0.5])
    with pytest.raises(NotDensityMatrix, match=r"outside \[-1, 2\] at sample 0 \(t = 0\)"):
        uncertainty_record(np.array([bell_rho()] * 3), times)


def test_uncertainty_inequality_violation_names_sample_and_time(monkeypatch):
    # half a bit added to H(rho_AB) of the input stack only: mu rises by 0.5,
    # lhs (from the measured states) does not
    real_entropy = ew.information.matrix_entropy
    ground = np.zeros((4, 4), dtype=complex)
    ground[0, 0] = 1.0                     # lhs = 2 > mu + 0.5 = 1.5
    stack = np.array([ground, bell_rho(), bell_rho()])

    def skewed(m):
        return real_entropy(m) + 0.5 if m is stack else real_entropy(m)

    monkeypatch.setattr(ew.information, "matrix_entropy", skewed)
    with pytest.raises(NotDensityMatrix, match=r"inequality violated.*at sample 1 \(t = 0.25\)"):
        uncertainty_record(stack, np.array([0.0, 0.25, 0.5]))
