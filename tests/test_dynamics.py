import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entwitness as ew
from entwitness import (QuadratureUnconverged, ReservoirParams, ValidationError,
                        bell_initial, correlation_f, correlation_f_quadrature,
                        propagate)
from _oracles import (S_A_MINUS, S_A_PLUS, S_MINUS, S_PLUS, S_Z, bell_rho,
                      liouvillian_apply, random_density, rk4_states)


def test_atom_operator_algebra():
    assert np.allclose(S_PLUS.conj().T, S_MINUS)
    comm = S_PLUS @ S_MINUS - S_MINUS @ S_PLUS
    assert np.allclose(comm, 2.0 * S_Z)
    # embeddings act on the advertised slots of the |00>,|01>,|10>,|11> basis
    ket10 = np.zeros(4); ket10[2] = 1.0
    assert np.allclose(S_A_MINUS @ ket10, [1, 0, 0, 0])
    assert np.allclose(S_A_PLUS @ np.array([1.0, 0, 0, 0]), ket10)


def test_reservoir_params_validation():
    with pytest.raises(ValidationError):
        ReservoirParams(lam=0.0)
    with pytest.raises(ValidationError):
        ReservoirParams(lam=1.0, delta=-0.5)
    with pytest.raises(ValidationError):
        ReservoirParams(lam=1.0, gamma0=0.0)
    with pytest.raises(ValidationError):
        ReservoirParams(lam=np.inf)


def test_correlation_f_zero_at_start():
    for r in (ReservoirParams(0.1), ReservoirParams(5.0, 1.6)):
        assert correlation_f(r, 0.0) == 0j


def test_correlation_f_resonant_asymptote():
    r = ReservoirParams(lam=0.1, delta=0.0)
    assert correlation_f(r, 1e4) == pytest.approx(0.5 + 0j, abs=1e-12)


def test_correlation_f_detuned_asymptote():
    # gamma0*lam/(2(lam - i delta)) with lam=5, delta=1 is (25 + 5i)/52
    r = ReservoirParams(lam=5.0, delta=1.0)
    assert correlation_f(r, 1e4) == pytest.approx(25 / 52 + 5j / 52, abs=1e-12)


def test_correlation_f_vectorized_and_validated():
    r = ReservoirParams(0.1, 1.2)
    ts = np.linspace(0, 10, 11)
    out = correlation_f(r, ts)
    assert out.shape == ts.shape
    assert out[0] == 0j
    with pytest.raises(ValidationError):
        correlation_f(r, -1.0)


def test_quadrature_zero_at_start():
    assert abs(correlation_f_quadrature(ReservoirParams(0.1), 0.0)) < 1e-12


@pytest.mark.parametrize("lam,delta,t", [(0.1, 0.0, 5.0), (0.1, 1.2, 10.0)])
def test_quadrature_matches_closed_form_examples(lam, delta, t):
    r = ReservoirParams(lam, delta)
    assert abs(correlation_f_quadrature(r, t) - correlation_f(r, t)) < 1e-4


def test_quadrature_matches_closed_form_small_grid():
    for lam in (0.1, 2.0):
        for delta in (0.0, 1.6):
            r = ReservoirParams(lam, delta)
            for t in (0.5, 5.0):
                assert abs(correlation_f_quadrature(r, t) - correlation_f(r, t)) < 1e-4


def test_quadrature_unconverged_on_unresolved_oscillation():
    # 1000 nodes cannot resolve exp(i x t) at t=50 over a window of width ~10^3
    with pytest.raises(QuadratureUnconverged):
        correlation_f_quadrature(ReservoirParams(5.0, 0.0), 50.0, n_points=1000)


def test_quadrature_validates_window_and_nodes():
    r = ReservoirParams(1.0)
    with pytest.raises(ValidationError):
        correlation_f_quadrature(r, 1.0, omega_window=10.0)
    with pytest.raises(ValidationError):
        correlation_f_quadrature(r, 1.0, n_points=10)


def test_liouvillian_annihilates_ground_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    out = liouvillian_apply(rho, 0.3 + 0.1j, 0.2 - 0.4j)
    assert np.allclose(out, 0.0, atol=1e-15)
    assert abs(np.trace(out)) < 1e-15


def test_liouvillian_doubly_excited_image():
    # Hand-derived image for rho = |11><11| with f_a = f_b = 1/2: each atom
    # funnels population into its singly-excited state at rate 2 Re f = 1,
    # so d rho/dt = diag(0, 1, 1, -2).
    rho = np.zeros((4, 4), dtype=complex)
    rho[3, 3] = 1.0
    out = liouvillian_apply(rho, 0.5 + 0j, 0.5 + 0j)
    assert np.allclose(out, np.diag([0.0, 1.0, 1.0, -2.0]).astype(complex), atol=1e-15)


def test_liouvillian_traceless_and_hermiticity_preserving():
    rng = np.random.default_rng(5)
    for _ in range(25):
        rho = random_density(rng, 4)
        f_a = complex(rng.normal(), rng.normal())
        f_b = complex(rng.normal(), rng.normal())
        out = liouvillian_apply(rho, f_a, f_b)
        assert abs(np.trace(out)) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12


def test_bell_initial_state():
    state = bell_initial()
    assert state.t == 0.0
    expected = bell_rho()
    assert np.allclose(state.rho, expected, atol=0)
    assert np.trace(state.rho) == pytest.approx(1.0, abs=0)
    assert np.trace(state.rho @ state.rho).real == pytest.approx(1.0, abs=1e-15)


def test_propagate_single_tiny_step_is_identity():
    # lam -> 0 limit: f(0) = 0, so one tiny step leaves the state unchanged
    r = ReservoirParams(lam=1e-6)
    traj = propagate(bell_initial(), r, r, t_max=1e-4, dt=1e-4)
    assert np.abs(traj.rhos[-1] - bell_rho()).max() < 1e-8


def test_propagate_markovian_limit_population_decay():
    # flat-spectrum limit: doubly-excited population decays as exp(-2 t)
    r = ReservoirParams(lam=300.0)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[3, 3] = 1.0
    traj = propagate(ew.SystemState(0.0, rho0), r, r, t_max=3.0, dt=1e-3)
    for t_probe in (0.1, 1.0, 3.0):
        idx = int(round(t_probe / 1e-3))
        pop = traj.rhos[idx, 3, 3].real
        assert pop == pytest.approx(np.exp(-2.0 * t_probe), rel=2e-2)


def test_propagate_matches_exact_channel_solution():
    # the closed-form channel against RK4 on the master equation at dt = 1e-2
    r_a = ReservoirParams(0.1, 1.2)
    r_b = ReservoirParams(5.0, 0.5)
    traj = propagate(bell_initial(), r_a, r_b, t_max=8.0, dt=1e-2)
    idx = [0, 100, 400, 800]
    oracle = rk4_states(bell_rho(), r_a, r_b, traj.times[idx], max_step=1e-2)
    assert np.abs(traj.rhos[idx] - oracle).max() < 1e-9


@settings(max_examples=10, deadline=None)
@given(lam_a=st.floats(0.01, 20.0), lam_b=st.floats(0.01, 20.0),
       delta_a=st.floats(0.0, 5.0), delta_b=st.floats(0.0, 5.0),
       t_max=st.floats(0.1, 50.0), seed=st.integers(0, 2 ** 32 - 1))
def test_propagate_matches_rk4_oracle(lam_a, lam_b, delta_a, delta_b, t_max, seed):
    # RK4 resolves the fastest scale of f, 1/|lam - i delta|, with 5 steps;
    # its own error then stays below 2e-8 at the corners of the ranges
    r_a, r_b = ReservoirParams(lam_a, delta_a), ReservoirParams(lam_b, delta_b)
    rho0 = random_density(np.random.default_rng(seed), 4)
    traj = propagate(ew.SystemState(0.0, rho0), r_a, r_b, t_max=t_max, dt=t_max / 20)
    rate = max(abs(complex(r.lam, r.delta)) for r in (r_a, r_b))
    oracle = rk4_states(rho0, r_a, r_b, traj.times, max_step=min(0.02, 0.2 / rate))
    assert np.abs(traj.rhos - oracle).max() < 1e-7


def test_propagate_preserves_trace_and_hermiticity(preset_run):
    traj, _ = preset_run("fig1a_d0")
    assert np.abs(np.trace(traj.rhos, axis1=1, axis2=2) - 1.0).max() < 1e-6
    assert np.abs(traj.rhos - traj.rhos.conj().transpose(0, 2, 1)).max() < 1e-8


def test_propagate_product_states_stay_product():
    # the two dissipators act on disjoint factors, so |10><10| stays a product
    r_a = ReservoirParams(0.1, 1.2)
    r_b = ReservoirParams(5.0, 0.0)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[2, 2] = 1.0
    traj = propagate(ew.SystemState(0.0, rho0), r_a, r_b, t_max=20.0, dt=1e-2)
    for t_probe in (1.0, 5.0, 20.0):
        idx = int(round(t_probe / 1e-2))
        rho = traj.rhos[idx]
        rho_a = ew.partial_trace(rho, "A")
        rho_b = ew.partial_trace(rho, "B")
        assert np.abs(rho - np.kron(rho_a, rho_b)).max() < 1e-6


def test_propagate_swap_symmetry():
    r_a = ReservoirParams(0.1, 0.0)
    r_b = ReservoirParams(5.0, 2.0)
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    t_fwd = propagate(bell_initial(), r_a, r_b, t_max=2.0, dt=1e-2)
    t_rev = propagate(bell_initial(), r_b, r_a, t_max=2.0, dt=1e-2)
    for idx in (50, 200):
        swapped = swap @ t_rev.rhos[idx] @ swap
        assert np.abs(t_fwd.rhos[idx] - swapped).max() < 1e-10


def test_propagate_step_halving_leaves_mu_unchanged(preset_run):
    # halving the step from 1e-2 to 5e-3 moves mu by < 1e-5 everywhere
    for preset_id in ("fig1a_d0", "fig1a_d12", "fig1a_d16"):
        traj, _ = preset_run(preset_id)
        cfg = ew.PRESETS[preset_id]
        fine = propagate(bell_initial(), *cfg.reservoirs(), cfg.t_max,
                         dt=cfg.dt / 2, sample_every=2)
        assert np.allclose(fine.times, traj.times)
        mu_fine = ew.uncertainty_record(fine.rhos, fine.times).mu
        assert np.abs(traj.mu - mu_fine).max() < 1e-5


def test_propagate_sampling_stride():
    r = ReservoirParams(0.1)
    traj = propagate(bell_initial(), r, r, t_max=1.0, dt=1e-2, sample_every=10)
    assert len(traj.times) == 11
    assert np.allclose(np.diff(traj.times), 0.1)


def test_propagate_coarse_long_grid_stays_physical():
    # a step that made RK4 diverge: the closed form stays a density matrix
    r = ReservoirParams(5.0, 0.0)
    traj = propagate(bell_initial(), r, r, t_max=2000.0, dt=10.0)
    assert len(traj) == 201
    assert np.abs(np.trace(traj.rhos, axis1=1, axis2=2) - 1.0).max() < 1e-12
    assert np.linalg.eigvalsh(traj.rhos).min() > -1e-12


def test_propagate_validates_arguments():
    r = ReservoirParams(1.0)
    with pytest.raises(ValidationError):
        propagate(bell_initial(), r, r, t_max=0.0, dt=1e-2)
    with pytest.raises(ValidationError):
        propagate(bell_initial(), r, r, t_max=1.0, dt=-1e-2)
    with pytest.raises(ValidationError):
        propagate(bell_initial(), r, r, t_max=1.0, dt=1e-2, sample_every=0)


@pytest.mark.parametrize("t_max,dt,sample_every", [
    (2.0, 3.0, 1),     # one step would overshoot t_max
    (1.0, 3.0, 1),     # no step fits
    (1.0, 0.3, 1),     # the grid would stop at 0.9
    (0.5, 0.01, 30),   # the last sample would be 0.3
])
def test_propagate_rejects_grid_missing_t_max(t_max, dt, sample_every):
    r = ReservoirParams(1.0)
    with pytest.raises(ValidationError, match="t_max"):
        propagate(bell_initial(), r, r, t_max=t_max, dt=dt, sample_every=sample_every)


def test_propagate_grid_lands_on_t_max():
    r = ReservoirParams(1.0)
    traj = propagate(bell_initial(), r, r, t_max=0.7, dt=0.1)
    assert len(traj) == 8 and traj.times[-1] == pytest.approx(0.7, abs=1e-15)
    traj = propagate(bell_initial(), r, r, t_max=0.6, dt=0.01, sample_every=30)
    assert np.allclose(traj.times, [0.0, 0.3, 0.6], atol=1e-15)

