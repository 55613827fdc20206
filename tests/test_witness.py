import dataclasses
import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _oracles as oracle
import entwitness as ew
from entwitness import (ScenarioConfig, ValidationError, concurrence, excited_population,
                        run_scenario, uncertainty_columns)
from entwitness.dynamics import MIN_WIDTH, ReservoirColumns, Trajectory
from entwitness.witness import death_times, witness_rows
from _oracles import (bell_rho, channel_states, concurrence_x_state, death_time_loop,
                      random_density, rk4_evolve)

_finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def density_matrices(draw, dim=4):
    re = draw(st.lists(_finite, min_size=dim * dim, max_size=dim * dim))
    im = draw(st.lists(_finite, min_size=dim * dim, max_size=dim * dim))
    a = (np.array(re) + 1j * np.array(im)).reshape(dim, dim)
    h = a @ a.conj().T + 1e-3 * np.eye(dim)
    return h / np.trace(h).real


def _synthetic_reports(times, mus, concs):
    """The :func:`witness_rows` reports of synthetic ``(G, N)`` rows."""
    mus, concs = np.atleast_2d(mus).astype(float), np.atleast_2d(concs).astype(float)
    r = ReservoirColumns.of(np.ones((2, len(mus))), np.zeros((2, len(mus))))
    good = np.ones(len(mus), dtype=bool)
    columns = witness_rows(np.asarray(times, dtype=float), mus, concs, r, good)
    assert not np.any(columns.crossing_found & np.isnan(columns.t_ew))   # every root-find done
    return [columns.report(g) for g in range(len(mus))]


def _synthetic_report(times, mus, concs):
    """The :func:`witness_rows` report of one synthetic ``(1, N)`` row."""
    return _synthetic_reports(times, mus, concs)[0]


def _death_time(times, concs):
    """The :func:`death_times` entry of one ``(1, N)`` concurrence row, None for NaN."""
    death = death_times(np.asarray(times, dtype=float), np.asarray(concs, dtype=float)[None])[0]
    return None if np.isnan(death) else float(death)


def test_concurrence_bell():
    assert oracle.concurrence(bell_rho()) == pytest.approx(1.0, abs=1e-10)
    assert concurrence(1.0, 1.0) == 1.0          # no decay: still the Bell state


def test_concurrence_product_states():
    rng = np.random.default_rng(23)
    for _ in range(20):
        rho = np.kron(random_density(rng, 2), random_density(rng, 2))
        assert oracle.concurrence(rho) < 1e-7
    # one atom fully decayed leaves a product state
    p = np.linspace(0.0, 1.0, 11)
    assert np.all(concurrence(p, 0.0) == 0.0) and np.all(concurrence(0.0, p) == 0.0)


def test_concurrence_werner_state():
    # Independent route: the spin-flipped Werner state equals itself, so
    # rho @ rho_tilde = rho^2 with eigenvalues {((1+3p)/4)^2, 3x((1-p)/4)^2};
    # at p = 1/2 the square roots give 0.625 - 3*0.125 = 0.25 = (3p-1)/2.
    p = 0.5
    rho = p * bell_rho() + (1 - p) * np.eye(4) / 4
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    rho_tilde = yy @ rho.conj() @ yy
    lam = np.sort(np.linalg.eigvals(rho @ rho_tilde).real)
    assert np.allclose(lam, [0.015625, 0.015625, 0.015625, 0.390625], atol=1e-12)
    assert oracle.concurrence(rho) == pytest.approx(0.25, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(density_matrices(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_concurrence_in_unit_interval(rho, p_a, p_b):
    c = oracle.concurrence(rho)
    assert 0.0 <= c <= 1.0 + 1e-9
    assert 0.0 <= concurrence(p_a, p_b) <= 1.0


def test_concurrence_x_state_landmarks():
    assert concurrence_x_state(bell_rho()) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_x_state(np.eye(4, dtype=complex) / 4) == 0.0


def test_concurrence_x_state_example_matches_general():
    rho = np.diag([0.4, 0.1, 0.1, 0.4]).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.3
    assert concurrence_x_state(rho) == pytest.approx(0.4, abs=1e-12)
    assert oracle.concurrence(rho) == pytest.approx(0.4, abs=1e-10)


def test_concurrence_x_state_rejects_non_x():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = rho[1, 0] = 1e-3
    with pytest.raises(ValueError, match="not an X state"):
        concurrence_x_state(rho)


def test_x_state_agrees_with_general_along_preset(preset_run):
    # the closed-form column against the oracle's exact states at every sample,
    # read through the X-state formula and through the general spectral route
    traj, _ = preset_run("fig1a_d0")
    rhos = channel_states(bell_rho(), *oracle.reservoirs(ew.PRESETS["fig1a_d0"]), traj.times)
    assert np.abs(concurrence_x_state(rhos) - traj.concurrence).max() < 1e-8
    assert np.abs(oracle.concurrence(rhos) - traj.concurrence).max() < 1e-8


def test_witness_report_no_crossing():
    times = np.arange(0.0, 1.0, 0.01)
    rep = _synthetic_report(times, np.zeros_like(times), np.ones_like(times))
    assert not rep.crossing_found
    assert rep.t_ew is None and rep.c_ew_threshold is None
    assert rep.mu_series_max == 0.0


def _rk4_crossing(cfg, lo, hi, tol=1e-7):
    """Bisection on mu of RK4-oracle states for a crossing bracketed by [lo, hi]."""
    r_a, r_b = oracle.reservoirs(cfg)
    anchor_t = lo
    anchor = rk4_evolve(bell_rho(), r_a, r_b, 0.0, anchor_t, 1e-3)

    def mu(t):
        return oracle.uncertainty_record(rk4_evolve(anchor, r_a, r_b, anchor_t, t, 1e-3)).mu

    assert mu(lo) < 1.0 <= mu(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if mu(mid) >= 1.0 else (mid, hi)
    return 0.5 * (lo + hi)


def test_witness_report_linear_crossing(preset_run):
    # a single clean crossing (Markovian width 5): t_ew sits where the RK4
    # oracle's mu reaches 1, and the threshold is the oracle state's concurrence
    traj, rep = preset_run("fig1b_l5")
    assert rep.crossing_found and rep.notes == ""
    r_a, r_b = oracle.reservoirs(ew.PRESETS["fig1b_l5"])
    rho = rk4_evolve(bell_rho(), r_a, r_b, 0.0, rep.t_ew, 1e-3)
    assert oracle.uncertainty_record(rho).mu == pytest.approx(1.0, abs=1e-9)
    assert rep.c_ew_threshold == pytest.approx(concurrence_x_state(rho), abs=1e-9)
    idx = int(np.searchsorted(traj.times, rep.t_ew))
    assert traj.mu[idx - 1] < 1.0 <= traj.mu[idx]


def test_witness_report_notes_reentry():
    # a Markovian measured atom and a slow, detuned memory: mu rises just
    # above 1 and falls back below it as the memory's coherence revives
    cfg = ew.ScenarioConfig(lambda_a=5.0, lambda_b=0.03, delta_b=3.0, t_max=10.0,
                            sample_every=10)
    traj, rep = ew.run_scenario(cfg)
    mus = traj.mu
    assert rep.crossing_found
    assert "re-enters" in rep.notes
    assert (mus[traj.times > rep.t_ew] < 1.0).any()
    assert rep.mu_series_max == mus.max()


def test_witness_report_near_tangent_crossing_matches_rk4_bisection():
    # mu crosses 1 at a shallow slope between samples 0.1 apart; one root-find
    # on the exact mu lands on the oracle crossing, where a fit through the
    # samples would miss it by about 1e-3
    cfg = ew.ScenarioConfig(lambda_a=0.2518, lambda_b=0.2518, delta_a=1.3521,
                            delta_b=1.3521, t_max=5.0, dt=0.01, sample_every=10)
    traj, rep = ew.run_scenario(cfg)
    assert rep.crossing_found
    idx = int(np.searchsorted(traj.times, rep.t_ew))
    oracle = _rk4_crossing(cfg, traj.times[idx - 1], traj.times[idx])
    assert rep.t_ew == pytest.approx(oracle, abs=1e-4)
    assert "re-enters" in rep.notes


def test_witness_columns_report_maps_nan_to_none_and_flags_to_notes():
    # three synthetic rows in one batch: mu rising above 1 at t = 0.1 and
    # falling back below it at t = 0.3, with the concurrence gone by t = 0.5;
    # mu never reaching 1; and a single crossing into a plateau
    times = np.arange(0.0, 1.0, 0.01)
    mus = np.stack([np.where((times >= 0.1) & (times < 0.3), 1.5, 0.5), np.zeros_like(times),
                    np.minimum(2.0 * times, 1.2)])
    concs = np.stack([np.where(times < 0.5, 0.6, 0.0), np.ones_like(times),
                      np.ones_like(times)])
    reports = _synthetic_reports(times, mus, concs)
    assert reports[0].crossing_found and reports[0].mu_series_max == 1.5
    assert reports[0].t_ew == pytest.approx(0.1, abs=0.01) and reports[0].death_time == 0.5
    assert reports[0].notes == "mu re-enters below 1 after the first crossing"
    assert reports[1] == ew.WitnessReport(crossing_found=False, t_ew=None, c_ew_threshold=None,
                                          death_time=None, mu_series_max=0.0, notes="")
    assert reports[2].crossing_found and reports[2].notes == ""
    assert reports[2].t_ew == pytest.approx(0.5, abs=0.01) and reports[2].death_time is None
    # report values are Python scalars, as the single-run API always gave
    assert all(type(value) in (bool, float, str, type(None))
               for report in reports for value in dataclasses.astuple(report))


_WIDTH = st.floats(MIN_WIDTH, 1.7e308)
_DETUNING = st.floats(0.0, 1.7e308)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_WIDTH, _WIDTH, _DETUNING, _DETUNING), min_size=1, max_size=8))
@example([(MIN_WIDTH, 1.7e308, 0.0, 1.7e308), (1.7e308, MIN_WIDTH, 1.7e308, 0.0),
          (MIN_WIDTH, MIN_WIDTH, 0.0, 0.0), (1.7e308, 1.7e308, 1.7e308, 1.7e308)])
def test_every_row_starts_below_the_witness_boundary(rows):
    # witness_rows brackets each crossing with the sample before it, so no row
    # may start at mu >= 1: at t = 0 both atoms are still excited, exactly,
    # and mu is exactly 0, whatever the widths and detunings
    params = np.array(rows)
    reservoirs = ReservoirColumns.of(params[:, :2].T, params[:, 2:].T)
    p_a, p_b = excited_population(reservoirs, np.zeros(1))
    mu, _ = uncertainty_columns(p_a, p_b)
    assert np.all(p_a == 1.0) and np.all(p_b == 1.0)
    assert np.all(mu == 0.0)


def test_witness_report_empty_trajectory():
    # no run has fewer than two samples: a t_max shorter than one sample
    # spacing is rejected, and a trajectory is never without its columns
    with pytest.raises(ValidationError, match="t_max"):
        run_scenario(ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=0.04, dt=0.1))
    times = np.array([0.0, 0.1])
    with pytest.raises(TypeError, match="mu"):
        Trajectory(times=times, p_a=times, p_b=times)


def test_death_time_none_for_constant_bell():
    times = np.arange(0.0, 1.0, 0.01)
    assert _death_time(times, np.ones_like(times)) is None


def test_death_time_detects_persistent_zero():
    times = np.arange(0.0, 1.0, 0.01)
    concs = np.where(times < 0.5, 1.0, 0.0)
    assert _death_time(times, concs) == pytest.approx(0.5, abs=1e-9)


def test_death_time_ignores_transient_dip():
    times = np.arange(0.0, 1.0, 0.01)
    concs = np.ones_like(times)
    concs[40:45] = 0.0                     # 5-sample dip, shorter than the window
    assert _death_time(times, concs) is None


@settings(max_examples=200, deadline=None)
@given(pattern=st.lists(st.booleans(), max_size=30), confirm_samples=st.integers(0, 12))
def test_death_time_matches_window_loop(pattern, confirm_samples):
    # the cumulative-sum scan against the sample-by-sample window loop, on
    # 0/1 concurrence patterns of lengths around the confirmation window,
    # the empty row included
    concs = np.where(pattern, 0.0, 1.0)
    times = 0.1 * np.arange(len(concs))
    with mock.patch.object(ew.witness, "CONFIRM_SAMPLES", confirm_samples):
        got = _death_time(times, concs)
    assert got == death_time_loop(times, concs, ew.witness.CONCURRENCE_ZERO_TOL, confirm_samples)


def test_death_time_markovian_preset_parameters():
    # golden value frozen from the closed-form channel solution: with
    # lam = 5, delta = 1 the concurrence exp(-2 Gamma(t)) falls below the
    # zero threshold at t ~= 3.21, well inside 5
    cfg = ew.ScenarioConfig(lambda_a=5.0, lambda_b=5.0, delta_a=1.0, delta_b=1.0,
                            t_max=5.0)
    traj, report = ew.run_scenario(cfg)
    assert report.death_time is not None
    assert report.death_time < 5.0
    assert report.death_time == pytest.approx(3.21, abs=0.05)


def test_witness_sound_and_incomplete_on_reference_preset(preset_run):
    traj, rep = preset_run("fig1a_d0")
    mus, concs = traj.mu, traj.concurrence
    assert (concs[mus < 1.0] > 0.0).all()            # witness never lies
    missed = (mus >= 1.0) & (concs > 1e-2)
    assert missed.any()                              # but it does miss entanglement


def test_crossing_run_leaves_no_trajectory_in_cyclic_garbage():
    # the crossing root-find must not tie the trajectory into a reference
    # cycle, or every crossing run keeps its columns alive until a full
    # garbage collection
    gc.collect()
    gc.disable()
    try:
        traj, rep = ew.run_scenario(ew.PRESETS["fig1b_l5"])
        assert rep.crossing_found and rep.t_ew > traj.times[0]
        ref = weakref.ref(traj)
        del traj, rep
        assert ref() is None
    finally:
        gc.enable()


# The witness fixed point of identical reservoirs: with p_A = p_B = p the
# bound mu(p, p) reaches 1 at one population p*, whatever the reservoir, and
# the concurrence there is p*^2.
FIXED_POINT_POPULATION = 0.7555782718905804
FIXED_POINT_THRESHOLD = 0.5708985249531557


def test_fixed_point_constants_match_the_general_state_oracle():
    # bisection on the oracle's spectral mu of the damped Bell state
    def mu(p):
        return oracle.uncertainty_record(oracle.damped_states(bell_rho(), [p ** 0.5], [p ** 0.5])).mu

    lo, hi = 0.5, 0.9
    assert mu(lo) >= 1.0 > mu(hi)
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mu(mid) >= 1.0 else (lo, mid)
    assert lo == pytest.approx(FIXED_POINT_POPULATION, abs=1e-13)
    assert lo ** 2 == pytest.approx(FIXED_POINT_THRESHOLD, abs=1e-13)
    assert concurrence(FIXED_POINT_POPULATION, FIXED_POINT_POPULATION) == pytest.approx(
        FIXED_POINT_THRESHOLD, abs=1e-15)


def test_identical_reservoir_threshold_is_the_witness_fixed_point(preset_run):
    identical = [pid for pid, cfg in ew.PRESETS.items()
                 if (cfg.lambda_a, cfg.delta_a) == (cfg.lambda_b, cfg.delta_b)]
    assert len(identical) == 13
    for preset_id in identical:
        traj, rep = preset_run(preset_id)
        if preset_id in ("fig4a_d16", "fig4b_l005"):     # these end before mu reaches 1
            assert not rep.crossing_found and traj.mu.max() < 1.0
            continue
        assert rep.crossing_found, preset_id
        assert rep.c_ew_threshold == pytest.approx(FIXED_POINT_THRESHOLD, abs=1e-12), preset_id
