"""Acceptance suite: every criterion at its stated tolerance.

Each check prints one ``[PASS]``/``[FAIL]`` line (run pytest with ``-s`` to see
the lines for passing tests too).  Reference times carry a tolerance of
+/- max(5 % relative, 0.05 absolute); concurrence thresholds +/- 0.01.

Two checks are kept although the model, as built, cannot satisfy them; they
fail honestly rather than being loosened:

* criterion 4, crossing time 0.38 for the Markovian width-5 pair: with
  width 5 the accumulated decay by t = 0.38 is at most 0.21, while any
  crossing of the witness bound needs ~0.283, so no detuning assignment can
  cross before t ~= 0.46 (the resonant-width-5 reference value itself).
* criterion 5, pairwise detuning insensitivity below 0.02: the three
  memory-side detunings give a genuine spread of ~0.054 near t ~= 1.6
  (~0.026 even with the detuning moved to the measured atom).
"""

import time

import numpy as np

import entwitness as ew
import _oracles as oracle
from entwitness import ReservoirParams, correlation_f, correlation_f_quadrature
from _oracles import rk4_step

TIME_REL = 0.05
TIME_ABS = 0.05
CONC_ABS = 0.01

ALL_PRESETS = sorted(ew.PRESETS)


def _check(checks, label, ok, detail):
    checks.append((label, bool(ok)))
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def _check_time(checks, label, actual, expected):
    tol = max(TIME_REL * abs(expected), TIME_ABS)
    ok = actual is not None and abs(actual - expected) <= tol
    _check(checks, label, ok, f"t = {actual} vs {expected} +/- {tol:.3g}")


def _check_conc(checks, label, actual, expected):
    ok = actual is not None and abs(actual - expected) <= CONC_ABS
    _check(checks, label, ok, f"C = {actual} vs {expected} +/- {CONC_ABS}")


def _finish(checks):
    failed = [label for label, ok in checks if not ok]
    assert not failed, f"failed checks: {failed}"


def test_criterion1_identical_reservoirs_detuning_family(preset_run):
    checks = []
    cases = {"fig1a_d0": 2.5, "fig1a_d12": 31.2, "fig1a_d16": 61.9}
    for preset_id, t_expected in cases.items():
        _, report = preset_run(preset_id)
        _check_time(checks, f"criterion 1 {preset_id} t_ew", report.t_ew, t_expected)
        _check_conc(checks, f"criterion 1 {preset_id} threshold",
                    report.c_ew_threshold, 0.568)
    _, report = preset_run("fig1a_d0")
    _check_time(checks, "criterion 1 fig1a_d0 death", report.death_time, 8.6)
    _finish(checks)


def test_criterion2_identical_reservoirs_width_family(preset_run):
    checks = []
    cases = {"fig1b_l5": 0.46, "fig1b_l01": 19.8, "fig1b_l008": 32.5}
    for preset_id, t_expected in cases.items():
        _, report = preset_run(preset_id)
        _check_time(checks, f"criterion 2 {preset_id} t_ew", report.t_ew, t_expected)
        _check_conc(checks, f"criterion 2 {preset_id} threshold",
                    report.c_ew_threshold, 0.568)
    _finish(checks)


def test_criterion3_single_detuned_reservoir(preset_run):
    checks = []
    for preset_id, t_expected, c_expected in (
            ("fig2a_db0", 2.5, 0.568), ("fig2a_db4", 3.8, 0.663)):
        _, report = preset_run(preset_id)
        _check_time(checks, f"criterion 3 {preset_id} t_ew", report.t_ew, t_expected)
        _check_conc(checks, f"criterion 3 {preset_id} threshold",
                    report.c_ew_threshold, c_expected)
    _finish(checks)


def test_criterion4_thresholds_and_non_markovian_crossing(preset_run):
    checks = []
    _, report5 = preset_run("fig2b_l5")
    _check_conc(checks, "criterion 4 fig2b_l5 threshold", report5.c_ew_threshold, 0.568)
    _, report005 = preset_run("fig2b_l005")
    _check_time(checks, "criterion 4 fig2b_l005 t_ew", report005.t_ew, 5.3)
    _check_conc(checks, "criterion 4 fig2b_l005 threshold",
                report005.c_ew_threshold, 0.652)
    _finish(checks)


def test_criterion4_markovian_crossing_time(preset_run):
    # Reference reading 0.38 is unreachable for width 5: the decay integral
    # at t = 0.38 is Gamma <= 0.21 on the resonant side and ~0.204 on the
    # detuned side, while mu = 1 requires Gamma ~= 0.283 per atom; the model
    # crosses at t ~= 0.466, matching the resonant-pair value 0.46 instead.
    # Kept at its stated tolerance as an honest failure.
    checks = []
    _, report = preset_run("fig2b_l5")
    _check_time(checks, "criterion 4 fig2b_l5 t_ew", report.t_ew, 0.38)
    _finish(checks)


def test_criterion5_mixed_reservoirs(preset_run):
    checks = []
    _, report_a = preset_run("fig3a_d2")
    _check_time(checks, "criterion 5 fig3a_d2 t_ew", report_a.t_ew, 0.855)
    _check_conc(checks, "criterion 5 fig3a_d2 threshold", report_a.c_ew_threshold, 0.645)
    _, report_b = preset_run("fig3b_db2")
    _check_time(checks, "criterion 5 fig3b_db2 t_ew", report_b.t_ew, 0.838)
    _check_conc(checks, "criterion 5 fig3b_db2 threshold", report_b.c_ew_threshold, 0.641)
    _finish(checks)


def test_criterion5_memory_detuning_insensitivity(preset_run):
    # The three memory-side detunings change the memory decay rate by up to
    # 14 %, which shows up as a mu spread of ~0.054 around t ~= 1.6; the
    # stated 0.02 bound cannot hold.  Kept as an honest failure.
    checks = []
    series = {}
    for preset_id in ("fig3b_db0", "fig3b_db1", "fig3b_db2"):
        traj, _ = preset_run(preset_id)
        series[preset_id] = traj.mu
    ids = sorted(series)
    worst = 0.0
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            worst = max(worst, np.abs(series[ids[i]] - series[ids[j]]).max())
    _check(checks, "criterion 5 fig3b pairwise |dMU|", worst < 0.02,
           f"max pairwise |dMU| = {worst:.4f} vs < 0.02")
    _finish(checks)


def test_criterion6_correlation_function_shapes():
    checks = []
    ts = np.linspace(0.0, 50.0, 5001)
    f_res = correlation_f(ReservoirParams(0.1, 0.0), ts)
    _check(checks, "criterion 6 resonant Re f >= 0", np.all(f_res.real >= -1e-15),
           f"min Re f = {f_res.real.min():.3e}")
    _check(checks, "criterion 6 resonant asymptote",
           abs(f_res.real[-1] - 0.5) < 1e-2 and abs(complex(correlation_f(
               ReservoirParams(0.1, 0.0), 200.0)) - 0.5) < 1e-8,
           f"Re f(50) = {f_res.real[-1]:.4f} -> 0.5")
    f_det = correlation_f(ReservoirParams(0.1, 1.6), ts)
    _check(checks, "criterion 6 detuned Re f < 0 somewhere", np.any(f_det.real < 0),
           f"min Re f = {f_det.real.min():.4f}")
    _finish(checks)


def test_criterion7_property_suite(preset_run):
    checks = []
    runs = {preset_id: preset_run(preset_id) for preset_id in ALL_PRESETS}

    worst_gap = min((traj.lhs - traj.mu).min() for traj, _ in runs.values())
    _check(checks, "criterion 7 uncertainty inequality", worst_gap >= -1e-7,
           f"min(lhs - mu) = {worst_gap:.3e} over all presets")

    populations = np.concatenate([np.r_[traj.p_a, traj.p_b] for traj, _ in runs.values()])
    _check(checks, "criterion 7 physical populations",
           np.all((populations >= 0.0) & (populations <= 1.0)),
           f"p in [{populations.min():.3e}, {populations.max():.17g}] over all presets")

    mu0 = max(abs(traj.mu[0]) for traj, _ in runs.values())
    c0 = max(abs(traj.concurrence[0] - 1.0) for traj, _ in runs.values())
    _check(checks, "criterion 7 initial identities", mu0 < 1e-10 and c0 < 1e-10,
           f"|mu(0)| = {mu0:.2e}, |C(0) - 1| = {c0:.2e}")

    # the closed-form columns against the general-state oracle: exact channel
    # states of the Bell start on every sample, observables from eigensolvers
    worst_mu = worst_x = 0.0
    for traj, _ in runs.values():
        rhos = oracle.channel_states(oracle.bell_rho(), traj.r_a, traj.r_b, traj.times)
        mu, lhs, conc = oracle.observables(rhos)
        worst_mu = max(worst_mu, np.abs(mu - traj.mu).max(), np.abs(lhs - traj.lhs).max())
        worst_x = max(worst_x, np.abs(conc - traj.concurrence).max())
    _check(checks, "criterion 7 closed form vs general-state mu and lhs", worst_mu < 1e-10,
           f"max |dmu|, |dlhs| = {worst_mu:.3e}")
    _check(checks, "criterion 7 X-state vs general concurrence", worst_x < 1e-8,
           f"max |C_x - C| = {worst_x:.3e}")

    worst_quad = 0.0
    for lam in (0.05, 0.1, 1.0, 2.0, 5.0):
        for delta in (0.0, 0.5, 1.0, 1.6, 4.0):
            r = ReservoirParams(lam, delta)
            for t in (0.5, 5.0, 50.0):
                worst_quad = max(worst_quad,
                                 abs(correlation_f_quadrature(r, t) - correlation_f(r, t)))
    _check(checks, "criterion 7 quadrature oracle", worst_quad < 1e-4,
           f"max |quad - closed| = {worst_quad:.3e} on the 5x5x3 grid")

    probes = np.array([0.1, 0.5, 1.0, 2.0, 3.0])
    p = ew.excited_population(ReservoirParams(lam=300.0), probes)
    worst_rel = np.abs(p * p / np.exp(-2.0 * probes) - 1.0).max()  # |11> keeps p_A p_B excited
    _check(checks, "criterion 7 Markovian-limit decay", worst_rel < 2e-2,
           f"max relative error vs exp(-2t) = {worst_rel:.3e}")

    def exp_error(dt):
        y = np.array(1.0 + 0j)
        t = 0.0
        for _ in range(int(round(1.0 / dt))):
            y = rk4_step(lambda tt, v: -v, t, y, dt)
            t += dt
        return abs(y - np.exp(-1.0))

    factor = exp_error(0.01) / exp_error(0.005)
    _check(checks, "criterion 7 RK4 order", 16 * 0.8 <= factor <= 16 * 1.2,
           f"halving factor = {factor:.2f} vs 16 +/- 20%")
    _finish(checks)


def test_criterion8_witness_soundness_and_incompleteness(preset_run):
    checks = []
    traj, _ = preset_run("fig1a_d0")
    mus, concs, times = traj.mu, traj.concurrence, traj.times
    sound = (concs[mus < 1.0] > 0.0).all()
    _check(checks, "criterion 8 soundness", sound,
           f"min C where mu < 1: {concs[mus < 1.0].min():.4f}")
    window = (times > 2.5) & (times < 8.6)
    missed = window & (mus >= 1.0) & (concs > 0.0)
    _check(checks, "criterion 8 incompleteness", missed.any(),
           f"{missed.sum()} sampled times in (2.5, 8.6) with mu >= 1 and C > 0")
    _finish(checks)


def test_runtime_budget(preset_run):
    # framing expectation rather than a numbered criterion: a fresh run of the
    # longest preset stays well under 5 s
    start = time.perf_counter()
    ew.run_scenario(ew.PRESETS["fig1a_d16"])
    elapsed = time.perf_counter() - start
    print(f"[INFO] fig1a_d16 fresh run: {elapsed:.2f} s")
    assert elapsed < 5.0


def test_sweep_runtime_budget():
    # a seeded 50 x 50 width x detuning grid across both regimes, every 5th
    # step sampled, runs as one batch well under 1.5 s (about 2.8 s when
    # each grid point ran on its own)
    rng = np.random.default_rng(50)
    lambdas = np.exp(rng.uniform(np.log(0.05), np.log(5.0), 50)).round(4).tolist()
    deltas = rng.uniform(0.0, 4.0, 50).round(4).tolist()
    base = ew.ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=5.0, dt=0.01, sample_every=5)
    start = time.perf_counter()
    rows = ew.sweep(lambdas, deltas, base)
    elapsed = time.perf_counter() - start
    print(f"[INFO] 50 x 50 sweep: {elapsed:.2f} s")
    assert len(rows) == 2500 and all(row.error is None for row in rows)
    assert elapsed < 1.5
