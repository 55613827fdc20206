import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
import entwitness as ew
from entwitness import (NotDensityMatrix, ScenarioConfig, ValidationError, concurrence,
                        excited_population, minimum_uncertainty, run_scenario,
                        uncertainty_columns)
from _oracles import (SX_BASIS, SY_BASIS, bell_rho, damped_states, matrix_entropy,
                      partial_trace, post_measurement_state, random_density)

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
    assert oracle.uncertainty_record(bell_rho()).h_a_b == pytest.approx(-1.0, abs=1e-12)
    assert oracle.uncertainty_record(np.eye(4) / 4).h_a_b == pytest.approx(1.0, abs=1e-12)
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    assert oracle.uncertainty_record(rho00).h_a_b == pytest.approx(0.0, abs=1e-12)


def test_uncertainty_record_bell():
    # no decay yet (p_A = p_B = 1) is the Bell state itself
    mu, lhs = uncertainty_columns(1.0, 1.0)
    assert mu == pytest.approx(0.0, abs=1e-12)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    ref = oracle.uncertainty_record(bell_rho())
    assert ref.mu == pytest.approx(0.0, abs=1e-10)
    assert ref.lhs == pytest.approx(0.0, abs=1e-10)
    assert ref.h_a_b == pytest.approx(-1.0, abs=1e-10)


def test_uncertainty_record_maximally_mixed():
    rec = oracle.uncertainty_record(np.eye(4, dtype=complex) / 4)
    assert rec.mu == pytest.approx(2.0, abs=1e-12)
    assert rec.lhs == pytest.approx(2.0, abs=1e-12)


def test_uncertainty_record_ground_product():
    # both measured entropies are one full bit while H(A|B) = 0, so the
    # inequality is strict: lhs = 2 > mu = 1; full decay (p_A = p_B = 0)
    # leaves exactly this state
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    rec = oracle.uncertainty_record(rho00)
    assert rec.h_sx_b == pytest.approx(1.0, abs=1e-12)
    assert rec.h_sy_b == pytest.approx(1.0, abs=1e-12)
    assert rec.mu == pytest.approx(1.0, abs=1e-12)
    assert rec.lhs == pytest.approx(2.0, abs=1e-12)
    mu, lhs = uncertainty_columns(0.0, 0.0)
    assert mu == pytest.approx(1.0, abs=1e-15)
    assert lhs == pytest.approx(2.0, abs=1e-15)


@settings(max_examples=25, deadline=None)
@given(density_matrices())
def test_uncertainty_inequality_holds(rho):
    rec = oracle.uncertainty_record(rho)
    assert rec.lhs >= rec.mu - 1e-7
    assert -1.0 - 1e-7 <= rec.mu <= 2.0 + 1e-7


@settings(max_examples=25, deadline=None)
@given(product_states())
def test_product_states_are_never_witnessed(pair):
    rho_a, rho_b = pair
    rec = oracle.uncertainty_record(np.kron(rho_a, rho_b))
    assert rec.h_a_b == pytest.approx(matrix_entropy(rho_a), abs=1e-9)
    assert rec.h_a_b >= -1e-9
    assert rec.mu >= 1.0 - 1e-9


def test_single_state_gives_scalars_and_stack_gives_columns():
    assert all(isinstance(v, float) for v in uncertainty_columns(1.0, 1.0))
    assert isinstance(concurrence(1.0, 1.0), float)
    p_a, p_b = np.array([1.0, 0.0]), np.array([1.0, 0.0])
    mu, lhs = uncertainty_columns(p_a, p_b)
    assert mu.shape == lhs.shape == (2,)
    assert np.allclose(mu, [0.0, 1.0], atol=1e-15)
    assert np.allclose(concurrence(p_a, p_b), [1.0, 0.0], atol=1e-15)


_unit = st.floats(min_value=0.0, max_value=1.0)
_phase = st.floats(min_value=0.0, max_value=2.0 * np.pi)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_unit, _unit, _phase, _phase), min_size=1, max_size=8))
def test_batched_observables_match_per_sample_reference(samples):
    # the closed-form columns against the general-state oracle, one damped
    # Bell state at a time: coherence factors sqrt(p) e^(i phase), entropies
    # from eigvalsh, explicit partial trace and Sx/Sy projectors, Takagi-form
    # concurrence.  The populations handed to the closed form are the oracle's
    # own |u|^2, so both sides see the same 1 - p.
    p_a, p_b, phi_a, phi_b = (np.array(c) for c in zip(*samples))
    u_a, u_b = np.sqrt(p_a) * np.exp(1j * phi_a), np.sqrt(p_b) * np.exp(1j * phi_b)
    p_a, p_b = np.abs(u_a) ** 2, np.abs(u_b) ** 2
    rhos = damped_states(bell_rho(), u_a, u_b)
    mu, lhs = uncertainty_columns(p_a, p_b)
    c = concurrence(p_a, p_b)
    ref = np.array([[float(np.squeeze(v)) for v in oracle.observables(rho)] for rho in rhos])
    assert np.abs(mu - ref[:, 0]).max() < 1e-10
    assert np.abs(lhs - ref[:, 1]).max() < 1e-10
    assert np.abs(c - oracle.concurrence_x_state(rhos)).max() < 1e-10
    # the spectral route takes square roots of the state's eigenvalues, so a
    # rounding-level eigenvalue of a (nearly) rank-deficient state moves it
    # by up to sqrt(eps); elsewhere it is accurate to rounding
    well_conditioned = np.linalg.eigvalsh(rhos)[:, 0] > 1e-6
    assert np.abs(c - ref[:, 2])[well_conditioned].max(initial=0.0) < 1e-10
    assert np.abs(c - ref[:, 2]).max() < 1e-7


def test_batched_mu_is_bit_identical_to_single_state(preset_run):
    # the crossing root-find evaluates mu at single times, as one-element
    # arrays, through the same element-wise code and must see the same sign
    # of mu - 1 at a sample as the sampled column does
    traj, _ = preset_run("fig1b_l5")
    r_a, r_b = (oracle.one_reservoir(*r) for r in oracle.reservoirs(ew.PRESETS["fig1b_l5"]))
    for i in range(len(traj.times)):
        t = traj.times[i:i + 1]
        single = minimum_uncertainty(excited_population(r_a, t), excited_population(r_b, t))
        assert single[0] == traj.mu[i]
    mu, lhs = uncertainty_columns(traj.p_a, traj.p_b)
    assert np.array_equal(mu, traj.mu) and np.array_equal(lhs, traj.lhs)


# populations in [0, 1], its ends, subnormals, and rounding-level values just outside
_population = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.2e-308, 1e-300, -5e-324, -1e-17,
                     1.0 + 2.2e-16, 1.0 - 1.1e-16, 1.0 + 1e-15]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_population, _population), min_size=1, max_size=12),
       st.booleans(), st.booleans())
def test_objective_mu_is_the_sampled_mu_bit_for_bit(pairs, equal, batch):
    # the root-find's objective sums its stacked terms in the sampled column's
    # order, so it sees the sign of mu - 1 that the samples show; identical
    # reservoirs hand it one array as both atoms
    p_a, p_b = (np.array(c) for c in zip(*pairs))
    if equal:
        p_b = p_a
    if batch and len(p_a) % 2 == 0:
        p_a, p_b = p_a.reshape(2, -1), p_b.reshape(2, -1)
    with np.errstate(invalid="ignore"):
        mu = minimum_uncertainty(p_a, p_b)
        sampled = uncertainty_columns(p_a, p_b)[0]
    assert mu.shape == sampled.shape and mu.tobytes() == sampled.tobytes()


def test_checks_name_the_first_offending_sample(monkeypatch):
    # a non-finite population fails the mu range mask at its own sample,
    # row by row: the second row is left as it is.  The batch runner checks
    # the hand-made columns in place of its own.
    p_a = np.ones((2, 5))
    p_a[0, [2, 4]] = np.nan
    mu, lhs = uncertainty_columns(p_a, np.ones((2, 5)))
    monkeypatch.setattr(ew.scenario, "uncertainty_columns", lambda p_a, p_b: (mu, lhs))
    errors = ew.scenario._run_batch(np.ones((2, 4)), 0.1 * np.arange(5), [True, True])[-1]
    assert isinstance(errors[0], NotDensityMatrix) and errors[1] is None
    assert str(errors[0]) == "mu = nan outside [-1, 2] at sample 2 (t = 0.2)"


def _skew_joint_entropy(monkeypatch, bits):
    """Add ``bits`` to ``H(rho_AB)``, the only entropy over four eigenvalues, once it is > 0.

    The run's first sample, the pure Bell state, keeps its true entropy, so a
    check fails first at a later sample.
    """
    real_entropy = ew.witness.entropy_bits

    def skewed(*probs):
        h = real_entropy(*probs)
        return np.where(h > 0.0, h + bits, h) if len(probs) == 4 else h

    monkeypatch.setattr(ew.witness, "entropy_bits", skewed)


SKEWED_RUN = ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=1.0, dt=0.25)


def test_physics_invariant_violation_raises_not_density_matrix(monkeypatch):
    # H(rho_AB) inflated by 4 bits pushes mu above 2 from the first mixed state on
    _skew_joint_entropy(monkeypatch, 4.0)
    with pytest.raises(NotDensityMatrix, match=r"outside \[-1, 2\] at sample 1 \(t = 0.25\)"):
        run_scenario(SKEWED_RUN)


def test_uncertainty_inequality_violation_names_sample_and_time(monkeypatch):
    # half a bit added to H(rho_AB): mu rises by 0.5, lhs (from the measured
    # states) does not, and early in the decay lhs - mu is far below 0.5
    _skew_joint_entropy(monkeypatch, 0.5)
    with pytest.raises(NotDensityMatrix, match=r"inequality violated.*at sample 1 \(t = 0.25\)"):
        run_scenario(SKEWED_RUN)
