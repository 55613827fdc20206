import dataclasses
import math
import os
import random

import numpy as np
import pytest

import _oracles as oracle
import entwitness as ew
from entwitness import (ParseError, ScenarioConfig, ValidationError, parse_config,
                        run_scenario, sweep)
from entwitness.scenario import CSV_HEADER, PRESETS, emit_csv, write_sweep_csv


def test_parse_config_minimal_defaults():
    cfg = parse_config("lambda_a: 0.1\nlambda_b: 0.1\nt_max: 10\n")
    assert cfg == ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=10.0)
    assert cfg.dt == 1e-2
    assert cfg.delta_a == 0.0 and cfg.delta_b == 0.0
    assert cfg.sample_every == 1


def test_parse_config_negative_lambda_names_key():
    with pytest.raises(ValidationError, match="lambda_a"):
        parse_config("lambda_a: -1\nlambda_b: 0.1\nt_max: 10\n")


def test_parse_config_unknown_key_rejected():
    with pytest.raises(ValidationError, match="lambda_c"):
        parse_config("lambda_a: 0.1\nlambda_b: 0.1\nlambda_c: 0.1\nt_max: 10\n")
    # the CSV schema is fixed and every run starts from the Bell state, so
    # there is neither an output nor an initial-state selector
    with pytest.raises(ValidationError, match="outputs: unknown key"):
        parse_config("lambda_a: 0.1\nlambda_b: 0.1\nt_max: 10\noutputs: [mu]\n")
    with pytest.raises(ValidationError, match="initial_state: unknown key"):
        parse_config("lambda_a: 0.1\nlambda_b: 0.1\nt_max: 10\ninitial_state: bell_phi_plus\n")
    # every rate is in units of gamma0, so gamma0 is no key either
    with pytest.raises(ValidationError, match="gamma0: unknown key"):
        parse_config("lambda_a: 0.1\nlambda_b: 0.1\nt_max: 10\ngamma0: 1.0\n")


def test_parse_config_missing_required_key():
    with pytest.raises(ValidationError, match="t_max"):
        parse_config("lambda_a: 0.1\nlambda_b: 0.1\n")


def test_parse_config_malformed_text():
    with pytest.raises(ParseError):
        parse_config("lambda_a: [unclosed\n")
    with pytest.raises(ParseError):
        parse_config("- just\n- a\n- list\n")
    with pytest.raises(ParseError):
        parse_config("")


def test_parse_config_rejects_wrong_types():
    with pytest.raises(ValidationError, match="t_max"):
        parse_config("lambda_a: 0.1\nlambda_b: 0.1\nt_max: yes\n")
    with pytest.raises(ValidationError, match="sample_every"):
        parse_config("lambda_a: 0.1\nlambda_b: 0.1\nt_max: 10\nsample_every: 1.5\n")


def test_parse_config_reads_exponent_spellings_as_floats():
    # sample_every still loads as an integer: a float 5.0 would be rejected
    for text, value in (("1e-3", 1e-3), ("2E5", 2e5), ("1e+308", 1e308), ("1.0e308", 1e308)):
        cfg = parse_config(f"lambda_a: {text}\nlambda_b: 0.1\nt_max: 10\nsample_every: 5\n")
        assert cfg.lambda_a == value and cfg.sample_every == 5
    # a quoted number is a string, and no config value
    for quoted in ("'1e-3'", '"1e-3"', "'0.001'"):
        with pytest.raises(ValidationError, match="dt: must be a finite number"):
            parse_config(f"lambda_a: 0.1\nlambda_b: 0.1\nt_max: 10\ndt: {quoted}\n")


def test_parse_config_full_equals_preset():
    text = """
lambda_a: 0.1
lambda_b: 0.1
delta_a: 1.6
delta_b: 1.6
t_max: 70
dt: 0.01
sample_every: 1
"""
    assert parse_config(text) == PRESETS["fig1a_d16"]


def test_presets_parameter_table():
    # width pairs and detuning placement for every preset family
    expect = {
        "fig1a_d0": (0.1, 0.1, 0.0, 0.0), "fig1a_d12": (0.1, 0.1, 1.2, 1.2),
        "fig1a_d16": (0.1, 0.1, 1.6, 1.6),
        "fig1b_l5": (5.0, 5.0, 1.0, 1.0), "fig1b_l01": (0.1, 0.1, 1.0, 1.0),
        "fig1b_l008": (0.08, 0.08, 1.0, 1.0),
        "fig2a_db0": (0.1, 0.1, 0.0, 0.0), "fig2a_db2": (0.1, 0.1, 2.0, 0.0),
        "fig2a_db4": (0.1, 0.1, 4.0, 0.0),
        "fig2b_l5": (5.0, 5.0, 2.0, 0.0), "fig2b_l01": (0.1, 0.1, 2.0, 0.0),
        "fig2b_l005": (0.05, 0.05, 2.0, 0.0),
        "fig3a_d0": (0.1, 5.0, 0.0, 0.0), "fig3a_d1": (0.1, 5.0, 1.0, 1.0),
        "fig3a_d2": (0.1, 5.0, 2.0, 2.0),
        "fig3b_db0": (0.1, 5.0, 0.0, 0.0), "fig3b_db1": (0.1, 5.0, 0.0, 1.0),
        "fig3b_db2": (0.1, 5.0, 0.0, 2.0),
        "fig4a_d0": (0.1, 0.1, 0.0, 0.0), "fig4a_d12": (0.1, 0.1, 1.2, 1.2),
        "fig4a_d16": (0.1, 0.1, 1.6, 1.6),
        "fig4b_l5": (5.0, 5.0, 1.0, 1.0), "fig4b_l01": (0.1, 0.1, 1.0, 1.0),
        "fig4b_l005": (0.05, 0.05, 1.0, 1.0),
    }
    assert set(PRESETS) == set(expect)
    for preset_id, (la, lb, da, db) in expect.items():
        cfg = PRESETS[preset_id]
        assert (cfg.lambda_a, cfg.lambda_b, cfg.delta_a, cfg.delta_b) == (la, lb, da, db), preset_id
        assert cfg.dt == 1e-2


def test_run_scenario_reference_preset(preset_run):
    _, report = preset_run("fig1a_d0")
    assert report.crossing_found
    assert report.t_ew == pytest.approx(2.5, abs=0.125)
    assert report.death_time == pytest.approx(8.6, abs=0.43)


def test_scenario_config_rejects_bad_values():
    with pytest.raises(ValidationError, match="t_max"):
        ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=-1.0)
    with pytest.raises(ValidationError, match="sample_every"):
        ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=1.0, sample_every=0)
    # an integer beyond the float range is not finite, not an OverflowError
    with pytest.raises(ValidationError, match="t_max: must be a finite number"):
        ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=10**400)
    with pytest.raises(ValidationError, match="sample_every: must be a finite integer"):
        ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=1.0, sample_every=10**400)


def test_emit_csv_round_trip(tmp_path, preset_run):
    traj, report = preset_run("fig1b_l5")
    out = tmp_path / "series.csv"
    emit_csv(traj, report, out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(traj)
    # t = 0 identities: mu = lhs = 0, concurrence = 1, f = 0
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert abs(first[1]) < 1e-12 and abs(first[2]) < 1e-12
    assert abs(first[3] - 1.0) < 1e-12
    assert all(abs(v) < 1e-15 for v in first[4:])
    # every value round-trips exactly
    for i, row in enumerate(lines[1:]):
        vals = [float(x) for x in row.split(",")]
        expect = [traj.times[i], traj.mu[i], traj.lhs[i], traj.concurrence[i],
                  traj.f_a[i].real, traj.f_a[i].imag, traj.f_b[i].real, traj.f_b[i].imag]
        assert all(abs(a - b) <= 1e-10 * max(1.0, abs(b)) for a, b in zip(vals, expect))

    report_text = (tmp_path / "series.csv.report").read_text()
    keys = [line.split(":")[0] for line in report_text.splitlines()]
    assert keys == ["t_ew", "c_ew_threshold", "death_time", "crossing_found", "mu_series_max"]
    assert "crossing_found: true" in report_text
    assert "death_time: none" in report_text    # t_max = 3 ends before death


def test_emit_csv_refuses_underived_trajectory():
    # emit_csv only ever sees a run's trajectory: one without its derived
    # columns cannot be built, and no run has fewer than two samples
    times = np.array([0.0, 0.1])
    with pytest.raises(TypeError, match="mu"):
        ew.Trajectory(times=times, p_a=times, p_b=times)
    with pytest.raises(ValidationError, match="t_max"):
        run_scenario(ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=0.004))


def test_emit_csv_deterministic(tmp_path):
    cfg = PRESETS["fig1b_l5"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        traj, report = run_scenario(cfg)
        emit_csv(traj, report, out)
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.csv.report").read_bytes() == (tmp_path / "b.csv.report").read_bytes()


def test_writers_overwrite_a_longer_file_with_exactly_the_new_bytes(tmp_path):
    traj, report = run_scenario(PRESETS["fig1b_l5"])
    rows = sweep([0.1, 1.0], None, ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=1.0))
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    fresh.mkdir(), stale.mkdir()
    emit_csv(traj, report, fresh / "run.csv")
    write_sweep_csv(rows, fresh / "sweep.csv")
    for name in ("run.csv", "run.csv.report", "sweep.csv"):
        (stale / name).write_bytes(b"x" * (len((fresh / name).read_bytes()) + 4096))
    emit_csv(traj, report, stale / "run.csv")
    write_sweep_csv(rows, stale / "sweep.csv")
    for name in ("run.csv", "run.csv.report", "sweep.csv"):
        assert (stale / name).read_bytes() == (fresh / name).read_bytes()
    write_sweep_csv(rows, os.devnull)   # a device has no length to cut


def test_sweep_singleton_matches_run_scenario():
    base = ScenarioConfig(lambda_a=5.0, lambda_b=5.0, delta_a=1.0, delta_b=1.0, t_max=3.0)
    rows = sweep([5.0], [1.0], base)
    assert len(rows) == 1 and rows[0].error is None
    _, direct = run_scenario(base)
    assert rows[0].report == direct


def test_sweep_detuning_grid_reproduces_crossings():
    base = ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=70.0)
    rows = sweep(None, [0.0, 1.2, 1.6], base)
    assert [r.delta for r in rows] == [0.0, 1.2, 1.6]
    t_ews = [r.report.t_ew for r in rows]
    for got, want in zip(t_ews, (2.5, 31.2, 61.9)):
        assert got == pytest.approx(want, abs=max(0.05 * want, 0.05))
    # rows are independent of one another
    solo = sweep(None, [1.2], base)[0]
    assert solo.report == rows[1].report


def test_sweep_marks_failing_rows():
    base = ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=1.0)
    rows = sweep([-1.0, 0.1], None, base)
    assert rows[0].error is not None and "lambda" in rows[0].error
    assert rows[1].error is None and rows[1].report is not None


def test_sweep_row_at_a_detuning_near_the_float_limit_is_not_flagged():
    # z t overflows from t = 1.8 on: that detuning leaves the atoms undamped
    base = ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=3.0)
    rows = sweep(None, [1.0, 1e308], base)
    assert [row.error for row in rows] == [None, None]
    assert rows[1].report.crossing_found is False


def test_sweep_values_get_the_single_run_check(tmp_path):
    # ScenarioConfig takes numpy scalars as the numbers they hold, and no bool
    cfg = ScenarioConfig(lambda_a=np.int64(1), lambda_b=np.float32(0.5), t_max=np.float64(1.0),
                         sample_every=np.int64(2))
    assert cfg == ScenarioConfig(lambda_a=1.0, lambda_b=0.5, t_max=1.0, sample_every=2)
    assert type(cfg.lambda_a) is float and type(cfg.sample_every) is int
    for value in (True, np.bool_(True), "1.0", None):
        with pytest.raises(ValidationError, match="lambda_a: must be a finite number"):
            ScenarioConfig(lambda_a=value, lambda_b=1.0, t_max=1.0)
    with pytest.raises(ValidationError, match="sample_every"):
        ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=1.0, sample_every=np.float64(2.0))
    # each grid value reaches ScenarioConfig as given: a bool or a string
    # marks its row as a single run of it would fail, numpy scalars and
    # arrays run like the floats they hold
    base = ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=1.0)
    rows = sweep([True, "abc", 10**400, 0.5], [0.0], base)
    assert rows[0].error == "ValidationError: lambda_a: must be a finite number, got True"
    assert rows[1].error == "ValidationError: lambda_a: must be a finite number, got 'abc'"
    assert rows[2].error.startswith("ValidationError: lambda_a: must be a finite number")
    assert rows[3].error is None
    want = [row.report for row in sweep([1.0, 2.0], [0.0, 1.0], base)]
    for lambdas, deltas in ((np.array([1.0, 2.0]), np.array([0.0, 1.0])),
                            ([np.int64(1), np.int64(2)], [np.int64(0), np.float32(1.0)])):
        rows = sweep(lambdas, deltas, base)
        assert [row.report for row in rows] == want
    with pytest.raises(ValidationError, match="sweep grid"):
        sweep(np.array([]), None, base)
    # the CSV writes every value a config accepts as the float it holds, and
    # a rejected value as given
    out = tmp_path / "sweep.csv"
    write_sweep_csv(sweep([1, np.int64(1), np.float32(1.0), True], None, base), out)
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == \
        ["1.0", "1.0", "1.0", "True"]


def test_sweep_propagates_programming_errors(monkeypatch):
    # the batch evaluates every row's populations in one call; a TypeError
    # there is a programming error, not a failed row
    real_population = ew.dynamics.excited_population

    def population(r, t):
        if np.any(np.asarray(r.z).real == -0.2):     # z = i delta - lam
            raise TypeError("injected")
        return real_population(r, t)

    monkeypatch.setattr(ew.dynamics, "excited_population", population)
    base = ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=0.1)
    assert sweep([0.1], None, base)[0].error is None
    with pytest.raises(TypeError, match="injected"):
        sweep([0.1, 0.2], None, base)


# The benchmark's param_sweep grid: one width per band, one detuning per band.
WIDTH_BANDS = ((2.5, 5.0), (0.8, 2.5), (0.2, 0.8), (0.05, 0.1))
DETUNING_BANDS = ((0.0, 0.4), (0.8, 1.6), (2.0, 4.0))
SWEEP_BASE = ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=5.0, dt=0.01, sample_every=5)


def _banded_grid(seed):
    rng = random.Random(seed)
    lambdas = [round(math.exp(rng.uniform(math.log(lo), math.log(hi))), 4)
               for lo, hi in WIDTH_BANDS]
    return lambdas, [round(rng.uniform(lo, hi), 4) for lo, hi in DETUNING_BANDS]


def _sweep_csv_bytes(rows, path):
    write_sweep_csv(rows, path)
    return path.read_bytes()


@pytest.mark.parametrize("seed", range(1, 11))
def test_sweep_csv_is_byte_identical_to_the_point_loop(tmp_path, seed):
    lambdas, deltas = _banded_grid(seed)
    got = _sweep_csv_bytes(sweep(lambdas, deltas, SWEEP_BASE), tmp_path / "batch.csv")
    want = _sweep_csv_bytes(oracle.sweep_loop(lambdas, deltas, SWEEP_BASE), tmp_path / "loop.csv")
    assert got == want


def test_mixed_sweep_csv_is_byte_identical_to_the_point_loop(tmp_path):
    # crossing and non-crossing rows, a negative width in the middle, and
    # grids that keep the base's (unequal) reservoirs on one axis
    base = ScenarioConfig(lambda_a=0.1, lambda_b=5.0, delta_a=0.3, delta_b=1.0, t_max=20.0,
                          sample_every=4)
    grids = (([5.0, 0.1, -1.0, 0.05, 2.0], [0.0, 1.0, 2.5]),
             (None, [0.0, 1.2, 1.6, 3.0]), ([0.1, 5.0, 0.5], None))
    rows = sweep(*grids[0], base)
    assert [r.error is not None for r in rows] == [False] * 6 + [True] * 3 + [False] * 6
    assert {r.report.crossing_found for r in rows if r.report} == {True, False}
    for lambdas, deltas in grids:
        got = _sweep_csv_bytes(sweep(lambdas, deltas, base), tmp_path / "batch.csv")
        want = _sweep_csv_bytes(oracle.sweep_loop(lambdas, deltas, base), tmp_path / "loop.csv")
        assert got == want


def _solo(base, lam, delta):
    cfg = dataclasses.replace(base, lambda_a=lam, lambda_b=lam, delta_a=delta, delta_b=delta)
    try:
        return run_scenario(cfg)[1], None
    except ew.EntwitnessError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _assert_rows_match_solo_runs(rows, base):
    for row in rows:
        report, error = _solo(base, row.lam, row.delta)
        assert (row.report, row.error) == (report, error), (row.lam, row.delta)


def test_unphysical_population_marks_only_its_row(monkeypatch):
    # a population above 1 from t = 1 on, in the lam = 0.5 rows only
    real_population = ew.dynamics.excited_population

    def broken(r, t):
        lam = -np.asarray(r.z).real
        return real_population(r, t) + np.where((lam == 0.5) & (t >= 1.0), 1.0, 0.0)

    monkeypatch.setattr(ew.dynamics, "excited_population", broken)
    rows = sweep([5.0, 0.5, 0.1], [0.0, 2.0], SWEEP_BASE)
    bad = [r for r in rows if r.error is not None]
    assert [r.lam for r in bad] == [0.5, 0.5]
    assert bad[0].error.startswith("NotDensityMatrix: p_a = ")
    assert bad[0].error.endswith("outside [0, 1] at sample 20 (t = 1)")
    _assert_rows_match_solo_runs(rows, SWEEP_BASE)


def test_uncertainty_violation_marks_only_its_row(monkeypatch):
    # the joint entropy of the batch's second row off by 4 bits puts its mu
    # outside [-1, 2]; the first and third rows stay as they are
    real_entropy = ew.information.entropy_bits

    def skewed(*probs):
        h = real_entropy(*probs)
        if len(probs) == 4 and np.ndim(h) == 2 and len(h) == 3:
            h = h.copy()
            h[1] += 4.0
        return h

    monkeypatch.setattr(ew.information, "entropy_bits", skewed)
    rows = sweep([5.0, 0.5, 0.1], None, SWEEP_BASE)
    assert [r.error is None for r in rows] == [True, False, True]
    assert rows[1].error.startswith("NotDensityMatrix: mu = ")
    assert rows[1].error.endswith("outside [-1, 2] at sample 0 (t = 0)")
    monkeypatch.undo()
    for row in (rows[0], rows[2]):
        assert row.report == _solo(SWEEP_BASE, row.lam, SWEEP_BASE.delta_a)[0]


def test_unconverged_crossing_marks_only_its_row(monkeypatch):
    # the root-find leaves its first bracket unfinished (NaN); only that row fails
    real_root = ew.witness.bracketed_root

    def unfinished_first(*args, **kwargs):
        roots = real_root(*args, **kwargs)
        roots[:1] = np.nan
        return roots

    monkeypatch.setattr(ew.witness, "bracketed_root", unfinished_first)
    rows = sweep([5.0, 2.0, 0.1], [0.0], SWEEP_BASE)
    assert rows[0].error == (f"NoConvergence: crossing root-find not done after "
                             f"{ew.numerics.MAX_EVALUATIONS} evaluations")
    assert all(r.error is None and r.report.crossing_found for r in rows[1:])
    with pytest.raises(ew.NoConvergence):
        run_scenario(SWEEP_BASE)
    monkeypatch.undo()
    for row in rows[1:]:
        assert row.report == _solo(SWEEP_BASE, row.lam, row.delta)[0]


def test_sweep_requires_a_grid():
    base = ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=1.0)
    with pytest.raises(ValidationError):
        sweep(None, None, base)
    with pytest.raises(ValidationError):
        sweep([], [], base)


def test_write_sweep_csv(tmp_path):
    base = ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=1.0)
    rows = sweep([-1.0, 0.1], None, base)
    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("lambda,delta,crossing_found")
    assert len(lines) == 3
    assert "ValidationError" in lines[1]
    assert lines[2].split(",")[2] in ("true", "false")
