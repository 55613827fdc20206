import csv
import dataclasses
import math
import os
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _oracles as oracle
import entwitness as ew
from entwitness import (ParseError, ScenarioConfig, ValidationError, parse_config,
                        run_scenario, sweep)
from entwitness.dynamics import MIN_WIDTH
from entwitness.scenario import CSV_HEADER, MAX_SAMPLES, PRESETS, emit_csv, write_sweep_csv


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


def test_parse_config_names_a_value_its_tag_cannot_read():
    # PyYAML's constructors raise ValueError, IndexError, KeyError or AttributeError here
    for value, message in (("!!int ''", "lambda_b: '' is not a valid !!int"),
                           ("!!float '-'", "lambda_b: '-' is not a valid !!float"),
                           ("!!timestamp 2001-13-01", "lambda_b: '2001-13-01' is not a valid "
                                                      "!!timestamp")):
        with pytest.raises(ParseError) as info:
            parse_config(f"lambda_a: 0.1\nlambda_b: {value}\nt_max: 10\n")
        assert str(info.value) == message
    with pytest.raises(ParseError, match="^config: 'abc' is not a valid !!bool$"):
        parse_config("!!bool abc\n")
    # the first fault in document order is the one reported
    with pytest.raises(ParseError, match="lambda_a"):
        parse_config("lambda_a: !!int abc\ngamma0: 1\n")


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


def test_parse_config_rejects_duplicate_keys():
    # PyYAML alone keeps the last value: lambda_a would silently be 5.0
    with pytest.raises(ValidationError, match="^lambda_a: duplicate key$"):
        parse_config("lambda_a: 0.1\nlambda_b: 0.2\nt_max: 1.0\nlambda_a: 5.0\n")
    # the same value twice, and a quoted spelling of the same key
    with pytest.raises(ValidationError, match="^t_max: duplicate key$"):
        parse_config("lambda_a: 0.1\nlambda_b: 0.2\nt_max: 1.0\nt_max: 1.0\n")
    with pytest.raises(ValidationError, match="^lambda_b: duplicate key$"):
        parse_config("lambda_a: 0.1\nlambda_b: 0.2\nt_max: 1.0\n'lambda_b': 0.2\n")
    # the first fault in document order is reported
    with pytest.raises(ValidationError, match="^lambda_a: duplicate key$"):
        parse_config("lambda_a: 0.1\nlambda_a: 5.0\nfoo: 1\n")
    with pytest.raises(ValidationError, match="^foo: unknown key$"):
        parse_config("foo: 1\nlambda_a: 0.1\nlambda_a: 5.0\n")


@pytest.mark.parametrize("text, message", [
    ("lambda_a: 'unclosed\n",
     "while scanning a quoted scalar: found unexpected end of stream at line 2, column 1"),
    ("lambda_a 0.1\nlambda_b: 0.1\nt_max: 1\n",
     "mapping values are not allowed here at line 2, column 9"),
    ("lambda_a: 0.1\n\tlambda_b: 0.1\n",
     "while scanning for the next token: found character '\\t' that cannot start any token "
     "at line 2, column 1"),
    ("{lambda_a: 0.1, lambda_b: 0.1\n",
     "while parsing a flow mapping: expected ',' or '}', but got '<stream end>' "
     "at line 2, column 1"),
    ("lambda_a: 0.1\x00\n", "unacceptable character #x0000: special characters are not "
                            'allowed in "<unicode string>", position 13'),
])
def test_parse_config_reports_invalid_yaml_on_one_line(text, message):
    # PyYAML's own text spans several lines, drawing the source line and a caret
    with pytest.raises(ParseError) as info:
        parse_config(text)
    assert str(info.value) == f"invalid YAML: {message}"


def test_parse_config_rejects_duplicate_keys_in_a_merged_mapping():
    # a merge key is no config key, and a merge's mapping is a nested value:
    # either is rejected before the mapping it brings in is composed
    with pytest.raises(ValidationError, match="^<<: unknown key$"):
        parse_config("<<: {lambda_b: 0.3, lambda_b: 3}\nlambda_a: 0.1\nlambda_b: 0.2\nt_max: 1.0\n")
    with pytest.raises(ValidationError, match="^<<: unknown key$"):
        parse_config("lambda_a: 0.1\nlambda_b: 0.2\nt_max: 1.0\n<<: {lambda_b: 0.3}\n")
    with pytest.raises(ParseError, match="^t_max: must be a plain value, got a YAML mapping$"):
        parse_config("lambda_a: 0.1\nlambda_b: 0.2\nt_max: {<<: [{t_max: 1.0}, {t_max: 2.0}]}\n")


def test_parse_config_rejects_nested_keys_and_items():
    # with nothing to name, the message says what a config must be
    for text, kind in (("? [lambda_a]\n: 0.1\n", "sequence"), ("{lambda_a: 0.1}: 2\n", "mapping"),
                       ("- [1]\n", "sequence"), ("- &a 1\n- *a\n", "alias")):
        with pytest.raises(ParseError, match="^config must be a flat mapping of plain values, "
                                             f"got a YAML {kind}$"):
            parse_config(text)
    # a key that is not a plain string is no config key, whatever it reads
    with pytest.raises(ValidationError, match="^lambda_a: unknown key$"):
        parse_config("!!null lambda_a: 0.1\nlambda_b: 0.2\nt_max: 1.0\n")


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
    # a subnormal width would give NaN populations; the smallest normal one runs
    with pytest.raises(ValidationError, match="lambda_b: must be >= 2.2250738585072014e-308"):
        ScenarioConfig(lambda_a=0.1, lambda_b=5e-324, t_max=1.0)
    traj, _ = run_scenario(ScenarioConfig(lambda_a=MIN_WIDTH, lambda_b=MIN_WIDTH, t_max=1.0))
    assert np.abs(traj.p_a - 1.0).max() < 1e-15 and np.abs(traj.p_b - 1.0).max() < 1e-15


def test_scenario_config_caps_the_sample_count():
    # a dt that divides t_max 10**300 times would make a grid no array holds
    cfg = ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=1.0, dt=1e-6)
    assert len(cfg.sample_times()) == MAX_SAMPLES + 1
    for dt, every in ((1e-300, 1), (1e-7, 1), (1e-8, 10)):
        with pytest.raises(ValidationError, match="t_max: must be at most 1000000 sample"):
            ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=1.0, dt=dt, sample_every=every)


def test_sample_grid_takes_a_sample_every_past_int64():
    for every in (2**62, 2**63, 2**64):
        cfg = ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=2e-18 * every, dt=1e-18,
                             sample_every=every)
        assert cfg.sample_times().tolist() == [0.0, 1e-18 * every, 2e-18 * every]
        assert run_scenario(cfg)[0].times.dtype == float


def test_emit_csv_round_trip(tmp_path, preset_run):
    traj, report = preset_run("fig1b_l5")
    out = tmp_path / "series.csv"
    emit_csv(traj, report, out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(traj.times)
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


def test_emit_csv_matches_the_reference_formatter_on_every_preset(tmp_path, preset_run):
    out = tmp_path / "run.csv"
    for name in PRESETS:
        traj, report = preset_run(name)
        emit_csv(traj, report, out)
        assert out.read_bytes() == oracle.emit_reference(traj).encode(), name


@pytest.mark.parametrize("change", ["sign_of_zero", "one_ulp"])
def test_emit_csv_writes_f_b_one_bit_off_f_a_as_its_own_repr(tmp_path, preset_run, change):
    # equal reservoirs, so f_b has f_a's bits; f_b then moves by a bit of one sample
    traj, report = preset_run("fig1b_l5")
    assert traj.f_b.tobytes() == traj.f_a.tobytes()
    f_a = traj.f_a.copy()
    k = 0 if change == "sign_of_zero" else len(f_a) // 2
    if change == "sign_of_zero":
        f_a[k] = 0j
        f_b = f_a.copy()
        f_b[k] = complex(-0.0, 0.0)
    else:
        f_b = f_a.copy()
        f_b[k] = complex(np.nextafter(f_a[k].real, np.inf), f_a[k].imag)
    moved = dataclasses.replace(traj, f_a=f_a, f_b=f_b)
    emit_csv(moved, report, tmp_path / "run.csv")
    text = (tmp_path / "run.csv").read_text()
    assert text == oracle.emit_reference(moved)
    cells = text.splitlines()[1 + k].split(",")
    assert cells[6] != cells[4] and float(cells[6]) == f_b[k].real
    assert cells[6] == ("-0.0" if change == "sign_of_zero" else repr(float(f_b[k].real)))


def _neighbours(value: float, ulps: int) -> list:
    """``value`` and the ``ulps`` floats on each side of it, in order."""
    steps = np.arange(-ulps, ulps + 1)
    return (np.array(value).view(np.int64) + steps).view(np.float64).tolist()


# emit_csv's text comes from orjson, which switches to exponent form at other
# points than repr outside 1e-4 <= |x| < 1e16.  So floats a few ulps either
# side of those edges (and of 2**53 and the smallest normal float) are drawn
# among floats of every magnitude, subnormals, zeros of both signs, NaN and
# infinities, which st.floats draws.
CSV_FLOATS = st.one_of(
    st.floats(),
    st.builds(lambda edge, ulps, sign: sign * _neighbours(edge, 4)[4 + ulps],
              st.sampled_from([1e-4, 1e16, 2.0**53, float(np.finfo(float).tiny)]),
              st.integers(-4, 4), st.sampled_from([1.0, -1.0])),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324]))
EMPTY_REPORT = ew.WitnessReport(crossing_found=False, t_ew=None, c_ew_threshold=None,
                                death_time=None, mu_series_max=0.0)


def _complex(real, imag) -> np.ndarray:
    column = np.empty(len(real), dtype=complex)
    column.real, column.imag = real, imag
    return column


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(*[CSV_FLOATS] * 8), min_size=1, max_size=16),
       st.sampled_from(["drawn", "bit_equal", "one_ulp", "sign_of_zero"]), st.data())
def test_emit_csv_matches_the_reference_formatter_on_drawn_columns(rows, f_b_kind, data):
    times, mu, lhs, concs, *parts = np.array(rows).T
    f_a, f_b = _complex(*parts[:2]), _complex(*parts[2:])
    # f_b as two equal reservoirs give it, or off f_a's bits in one sample only
    k = data.draw(st.integers(0, len(rows) - 1), label="k")
    if f_b_kind != "drawn":
        f_b = f_a.copy()
    if f_b_kind == "one_ulp":
        with np.errstate(over="ignore"):   # the step above the largest float is inf
            f_b.real[k] = np.nextafter(f_a.real[k], np.inf)
    elif f_b_kind == "sign_of_zero":
        f_a.real[k], f_b.real[k] = 0.0, -0.0
    traj = ew.Trajectory(times=times, p_a=times, p_b=times, mu=mu, lhs=lhs, concurrence=concs,
                         f_a=f_a, f_b=f_b)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "run.csv")
        emit_csv(traj, EMPTY_REPORT, out)
        assert out.read_text() == oracle.emit_reference(traj)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(*[CSV_FLOATS] * 8), min_size=1, max_size=16), st.data())
def test_emit_csv_is_byte_identical_in_drawn_row_chunks(rows, data):
    # a chunk of 1 row (the least a chunk holds) up to more rows than the
    # series has: the CSV does not depend on the chunk size
    chunk = data.draw(st.integers(1, len(rows) + 1), label="ROWS_PER_CHUNK")
    times, mu, lhs, concs, *parts = np.array(rows).T
    traj = ew.Trajectory(times=times, p_a=times, p_b=times, mu=mu, lhs=lhs, concurrence=concs,
                         f_a=_complex(*parts[:2]), f_b=_complex(*parts[2:]))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(ew.scenario, "ROWS_PER_CHUNK", chunk):
        out = Path(tmp, "run.csv")
        emit_csv(traj, EMPTY_REPORT, out)
        assert out.read_text() == oracle.emit_reference(traj)


def test_emit_csv_memory_is_bounded_by_row_chunks(tmp_path):
    # the rows are formatted ROWS_PER_CHUNK at a time, so the peak does not
    # grow with the run: about 1 MB at 10**5 and at 3 * 10**5 samples, where one
    # pass over the whole series peaked at 86 MB and 264 MB
    bound = 10 * ew.scenario.ROWS_PER_CHUNK * 8 * 8   # bytes: ten chunks of 8 floats a row, 1.3 MB
    peaks = []
    for samples in (10**5, 3 * 10**5):
        traj, report = run_scenario(dataclasses.replace(PRESETS["fig1a_d16"], dt=70.0 / samples))
        assert len(traj.times) == samples + 1
        tracemalloc.start()
        try:
            emit_csv(traj, report, tmp_path / "run.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < bound, peaks
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0], peaks


def test_emit_csv_memory_is_bounded_by_row_chunks_where_every_cell_is_spliced(tmp_path):
    # every cell in (1e-7, 1e-6), outside orjson's positional range, so every
    # cell is spliced from repr: no chunk may keep an object per spliced cell,
    # which peaked at 131 MB at 10**5 rows, 6 times the bound of 2**15-row chunks
    bound = 10 * ew.scenario.ROWS_PER_CHUNK * 8 * 8
    rng = np.random.default_rng(7)

    def spliced(samples):
        c = rng.uniform(1e-7, 1e-6, (6, samples))
        return ew.Trajectory(times=c[0], p_a=c[0], p_b=c[0], mu=c[1], lhs=c[2],
                             concurrence=c[3], f_a=_complex(c[4], c[5]), f_b=_complex(c[5], c[4]))

    emit_csv(spliced(10), EMPTY_REPORT, tmp_path / "run.csv")   # orjson's import is no chunk's
    peaks = []
    for samples in (10**5, 3 * 10**5):
        traj = spliced(samples)
        tracemalloc.start()
        try:
            emit_csv(traj, EMPTY_REPORT, tmp_path / "run.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < bound, peaks
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0], peaks


def test_trajectory_columns_are_writeable_and_separate(preset_run):
    # equal reservoirs evaluate one atom's half and copy it to both: each atom's
    # columns are still arrays of their own, not read-only views of one another
    traj, _ = preset_run("fig1a_d16")
    for name in ("times", "p_a", "p_b", "mu", "lhs", "concurrence", "f_a", "f_b"):
        assert getattr(traj, name).flags.writeable, name
    assert traj.p_a.tobytes() == traj.p_b.tobytes() and traj.f_a.tobytes() == traj.f_b.tobytes()
    assert not np.shares_memory(traj.p_a, traj.p_b)
    assert not np.shares_memory(traj.f_a, traj.f_b)


def test_emit_csv_matches_the_reference_formatter_next_to_the_exponent_edges(tmp_path):
    # repr writes 1e-4 as 0.0001 and the float below it in exponent form, and
    # 1e16 in exponent form and the float below it positionally
    values = np.array([sign * x for edge in (1e-4, 1e16) for sign in (1.0, -1.0)
                       for x in _neighbours(edge, 8)])
    f = _complex(values, values[::-1])
    traj = ew.Trajectory(times=values, p_a=values, p_b=values, mu=-values, lhs=values[::-1],
                         concurrence=values, f_a=f, f_b=f)
    emit_csv(traj, EMPTY_REPORT, tmp_path / "run.csv")
    text = (tmp_path / "run.csv").read_text()
    assert text == oracle.emit_reference(traj)
    cells = {line.split(",")[0] for line in text.splitlines()[1:]}
    assert {"0.0001", "9.999999999999999e-05", "1e+16", "9999999999999998.0"} <= cells
    assert {"-0.0001", "-9.999999999999999e-05", "-1e+16", "-9999999999999998.0"} <= cells


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


def test_a_failed_write_leaves_no_old_bytes(tmp_path):
    class Interrupted(Exception):
        pass

    def chunks():
        yield b"a" * 60
        yield bytearray(b"b" * 30)
        raise Interrupted

    path = tmp_path / "out.csv"
    path.write_bytes(b"x" * 3000)
    with pytest.raises(Interrupted):
        ew.scenario._overwrite(path, chunks())
    assert path.read_bytes() == b"a" * 60 + b"b" * 30
    with pytest.raises(Interrupted):
        ew.scenario._overwrite(os.devnull, chunks())


def _rows(rows):
    """``(point, report, error)`` per row of a sweep, as :func:`oracle.sweep_loop` gives them."""
    return [(point, None if error else rows.witness.report(g), error)
            for g, (point, error) in enumerate(zip(rows.points, rows.errors))]


def test_sweep_singleton_matches_run_scenario():
    base = ScenarioConfig(lambda_a=5.0, lambda_b=5.0, delta_a=1.0, delta_b=1.0, t_max=3.0)
    _, direct = run_scenario(base)
    assert _rows(sweep([5.0], [1.0], base)) == [((5.0, 1.0), direct, None)]


def test_sweep_detuning_grid_reproduces_crossings():
    base = ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=70.0)
    rows = _rows(sweep(None, [0.0, 1.2, 1.6], base))
    assert [point for point, _, _ in rows] == [(None, 0.0), (None, 1.2), (None, 1.6)]
    for (_, report, _), want in zip(rows, (2.5, 31.2, 61.9)):
        assert report.t_ew == pytest.approx(want, abs=max(0.05 * want, 0.05))
    # rows are independent of one another
    assert _rows(sweep(None, [1.2], base)) == [rows[1]]


def test_sweep_marks_failing_rows():
    base = ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=1.0)
    (_, bad, error), (_, good, no_error) = _rows(sweep([-1.0, 0.1], None, base))
    assert bad is None and "lambda" in error
    assert no_error is None and good is not None


def test_sweep_row_at_a_detuning_near_the_float_limit_is_not_flagged():
    # z t overflows from t = 1.8 on: that detuning leaves the atoms undamped
    base = ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=3.0)
    rows = sweep(None, [1.0, 1e308], base)
    assert rows.errors == [None, None]
    assert rows.witness.report(1).crossing_found is False


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
    errors = sweep([True, "abc", 10**400, 0.5], [0.0], base).errors
    assert errors[0] == "ValidationError: lambda_a: must be a finite number, got True"
    assert errors[1] == "ValidationError: lambda_a: must be a finite number, got 'abc'"
    assert errors[2].startswith("ValidationError: lambda_a: must be a finite number")
    assert errors[3] is None
    want = [report for _, report, _ in _rows(sweep([1.0, 2.0], [0.0, 1.0], base))]
    for lambdas, deltas in ((np.array([1.0, 2.0]), np.array([0.0, 1.0])),
                            ([np.int64(1), np.int64(2)], [np.int64(0), np.float32(1.0)])):
        assert [report for _, report, _ in _rows(sweep(lambdas, deltas, base))] == want
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
    real_population = ew.scenario.excited_population

    def population(r, t):
        if np.any(np.asarray(r.z).real == -0.2):     # z = i delta - lam
            raise TypeError("injected")
        return real_population(r, t)

    monkeypatch.setattr(ew.scenario, "excited_population", population)
    base = ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=0.1)
    assert sweep([0.1], None, base).errors == [None]
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


def _loop_csv_bytes(lambdas, deltas, base):
    """The sweep CSV of the point loop, written row by row."""
    return oracle.sweep_csv_reference(oracle.sweep_loop(lambdas, deltas, base)).encode("utf-8")


@pytest.mark.parametrize("seed", range(1, 11))
def test_sweep_csv_is_byte_identical_to_the_point_loop(tmp_path, seed):
    lambdas, deltas = _banded_grid(seed)
    got = _sweep_csv_bytes(sweep(lambdas, deltas, SWEEP_BASE), tmp_path / "batch.csv")
    assert got == _loop_csv_bytes(lambdas, deltas, SWEEP_BASE)


def test_mixed_sweep_csv_is_byte_identical_to_the_point_loop(tmp_path):
    # crossing and non-crossing rows, a negative width in the middle, and
    # grids that keep the base's (unequal) reservoirs on one axis
    base = ScenarioConfig(lambda_a=0.1, lambda_b=5.0, delta_a=0.3, delta_b=1.0, t_max=20.0,
                          sample_every=4)
    grids = (([5.0, 0.1, -1.0, 0.05, 2.0], [0.0, 1.0, 2.5]),
             (None, [0.0, 1.2, 1.6, 3.0]), ([0.1, 5.0, 0.5], None))
    rows = _rows(sweep(*grids[0], base))
    assert [error is not None for _, _, error in rows] == [False] * 6 + [True] * 3 + [False] * 6
    assert {report.crossing_found for _, report, _ in rows if report} == {True, False}
    for lambdas, deltas in grids:
        got = _sweep_csv_bytes(sweep(lambdas, deltas, base), tmp_path / "batch.csv")
        assert got == _loop_csv_bytes(lambdas, deltas, base)


@pytest.mark.parametrize("block_samples", [1, 2 * 101, 5 * 101 + 50])
def test_sweep_csv_is_byte_identical_in_row_blocks(tmp_path, monkeypatch, block_samples):
    # blocks of 1 (the least a block holds), 2 and 5 rows of 101 samples
    # against one batch, on seeded grids and on one with rejected widths
    grids = [_banded_grid(seed) for seed in (1, 2, 3)]
    grids.append(([5.0, 0.1, -1.0, 0.05, 2.0], [0.0, 1.0, 2.5]))
    csvs = {}
    for block in (10**9, block_samples):
        monkeypatch.setattr(ew.scenario, "BLOCK_SAMPLES", block)
        csvs[block] = [_sweep_csv_bytes(sweep(lambdas, deltas, SWEEP_BASE),
                                        tmp_path / f"{block}_{k}.csv")
                       for k, (lambdas, deltas) in enumerate(grids)]
    assert csvs[block_samples] == csvs[10**9]


# Widths and detunings across both regimes, with values a config rejects among them.
BLOCK_WIDTHS = st.sampled_from([5.0, 2.0, 0.5, 0.1, 0.05, -1.0, float("nan"), True, "abc"])
BLOCK_DETUNINGS = st.sampled_from([0.0, 0.3, 1.2, 3.0, -1.0, "x"])


@settings(max_examples=60, deadline=None)
@given(st.lists(BLOCK_WIDTHS, min_size=1, max_size=5),
       st.lists(BLOCK_DETUNINGS, min_size=1, max_size=3), st.data())
def test_sweep_csv_is_byte_identical_in_drawn_row_blocks(lambdas, deltas, data):
    # a block of 1 row (the least a block holds) up to more rows than the
    # grid has, against one batch: the CSV does not depend on the block size
    samples = len(SWEEP_BASE.sample_times())
    block = data.draw(st.integers(1, (len(lambdas) * len(deltas) + 2) * samples - 1),
                      label="BLOCK_SAMPLES")
    csvs = []
    with tempfile.TemporaryDirectory() as tmp:
        for block_samples in (10**9, block):
            with mock.patch.object(ew.scenario, "BLOCK_SAMPLES", block_samples):
                csvs.append(_sweep_csv_bytes(sweep(lambdas, deltas, SWEEP_BASE),
                                             Path(tmp, f"{block_samples}.csv")))
    assert csvs[1] == csvs[0]


def test_sweep_memory_is_bounded_by_row_blocks(monkeypatch):
    # 6 rows of 100 001 samples: in blocks of BLOCK_SAMPLES row-samples the
    # sweep peaked at 30 MB, as one batch at 63 MB
    base = ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=1000.0, dt=0.01)
    bound = 160 * ew.scenario.BLOCK_SAMPLES   # bytes, 42 MB
    peaks = []
    for block in (ew.scenario.BLOCK_SAMPLES, 10**9):
        monkeypatch.setattr(ew.scenario, "BLOCK_SAMPLES", block)
        tracemalloc.start()
        try:
            rows = sweep([0.1, 1.0, 5.0], [0.0, 1.0], base)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rows.errors == [None] * 6
    assert peaks[0] < bound < peaks[1], peaks


BAD_AND_GOOD_VALUES = [float("nan"), float("inf"), -1.0, -0.0, 0.0, True, "abc", np.float32(0.3),
                       np.int64(2), np.float64(1.5), 10**400, 5e-324, 0.5]


def test_sweep_with_bad_axis_values_matches_the_point_loop(tmp_path):
    # every pairing of good and rejected values, both axes rejected included
    base = ScenarioConfig(lambda_a=0.1, lambda_b=5.0, delta_a=0.3, delta_b=1.0, t_max=3.0,
                          sample_every=4)
    for lambdas, deltas in ((BAD_AND_GOOD_VALUES, BAD_AND_GOOD_VALUES),
                            (BAD_AND_GOOD_VALUES, None), (None, BAD_AND_GOOD_VALUES)):
        rows = sweep(lambdas, deltas, base)
        loop = oracle.sweep_loop(lambdas, deltas, base)
        assert _rows(rows) == loop
        got = _sweep_csv_bytes(rows, tmp_path / "batch.csv")
        assert got == oracle.sweep_csv_reference(loop).encode("utf-8")
    # with both values rejected, the message names the first bad key in field
    # order: the width's, whichever of its checks fails
    assert sweep([float("nan"), -1.0], [-1.0, "abc"], base).errors == [
        "ValidationError: lambda_a: must be a finite number, got nan",
        "ValidationError: lambda_a: must be a finite number, got nan",
        "ValidationError: lambda_a: must be > 0, got -1.0",
        "ValidationError: lambda_a: must be > 0, got -1.0"]


def test_sweep_builds_no_reservoir_params(monkeypatch):
    # each row runs from the floats its axis checks accepted (a rejected
    # point from the base's); no per-point ReservoirParams is built
    built = []
    post_init = ew.ReservoirParams.__post_init__

    def counted(params):
        built.append(params)
        post_init(params)

    monkeypatch.setattr(ew.ReservoirParams, "__post_init__", counted)
    base = ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=1.0, sample_every=5)
    rows = sweep([0.5, -1.0, 2.0], [0.0, 0.5, 1.0, 2.0], base)
    assert [error is None for error in rows.errors] == [True] * 4 + [False] * 4 + [True] * 4
    assert built == []
    monkeypatch.undo()
    assert _rows(rows) == oracle.sweep_loop([0.5, -1.0, 2.0], [0.0, 0.5, 1.0, 2.0], base)


def test_run_evaluates_both_atoms_in_one_call_per_decision(monkeypatch):
    # atom A or B is one axis of the batch: the sample grid, each root-find
    # evaluation, the threshold and f(t) each evaluate both atoms in one call
    calls = {"scenario": 0, "witness": 0, "correlation_f": 0, "root_find": 0}

    def counted(key, function):
        def wrapper(*args):
            calls[key] += 1
            return function(*args)
        return wrapper

    bracketed_root = ew.witness.bracketed_root
    monkeypatch.setattr(ew.scenario, "excited_population",
                        counted("scenario", ew.scenario.excited_population))
    monkeypatch.setattr(ew.witness, "excited_population",
                        counted("witness", ew.witness.excited_population))
    monkeypatch.setattr(ew.scenario, "correlation_f",
                        counted("correlation_f", ew.scenario.correlation_f))
    monkeypatch.setattr(ew.witness, "bracketed_root",
                        lambda f, *args: bracketed_root(counted("root_find", f), *args))
    _, report = run_scenario(PRESETS["fig3a_d1"])
    assert report.crossing_found and report.t_ew is not None
    assert calls["root_find"] > 0
    assert calls == {"scenario": 1, "witness": calls["root_find"] + 1, "correlation_f": 1,
                     "root_find": calls["root_find"]}


FLOAT_KEYS = ("lambda_a", "lambda_b", "t_max", "delta_a", "delta_b", "dt")
GOOD_VALUES = {"lambda_a": 0.5, "lambda_b": 2.0, "t_max": 1.0, "delta_a": 0.0, "delta_b": 1.5,
               "dt": 0.01}
NOT_NUMBERS = [float("nan"), float("inf"), float("-inf"), "abc", True, 10**400]


def _bad_values(key):
    """Values the rule rejects for ``key``: no number, out of range, a subnormal width."""
    values = NOT_NUMBERS + [-1.0, -5e-324]
    if not key.startswith("delta"):
        values += [0.0, -0.0]
    if key.startswith("lambda"):
        values += [5e-324, MIN_WIDTH / 2]
    return values


def _yaml_value(value):
    if isinstance(value, float) and not math.isfinite(value):
        return {"nan": ".nan", "inf": ".inf", "-inf": "-.inf"}[repr(value)]
    return "true" if value is True else repr(value)


def _error(call, *args):
    try:
        call(*args)
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({key: st.one_of(st.tuples(st.just(False), st.just(GOOD_VALUES[key])),
                                             st.tuples(st.just(True),
                                                       st.sampled_from(_bad_values(key))))
                              for key in FLOAT_KEYS}))
@example({**{key: (False, GOOD_VALUES[key]) for key in FLOAT_KEYS},
          "lambda_a": (True, -1.0), "delta_a": (True, float("nan"))})
@example({**{key: (False, GOOD_VALUES[key]) for key in FLOAT_KEYS},
          "t_max": (True, 0.0), "dt": (True, "abc")})
def test_the_first_bad_key_in_field_order_is_named(drawn):
    values = {key: value for key, (_, value) in drawn.items()}
    first = next((key for key in FLOAT_KEYS if drawn[key][0]), None)
    message = _error(ScenarioConfig, *(values[key] for key in FLOAT_KEYS))
    if first is None:
        assert message is None
    else:
        assert message.startswith(f"{first}: must be "), message
    # the same text through the config parser
    text = "".join(f"{key}: {_yaml_value(value)}\n" for key, value in values.items())
    assert _error(parse_config, text) == message
    # a sweep point, its width and detuning on both reservoirs, against its single run
    lam, delta = values["lambda_a"], values["delta_a"]
    (_, _, want), = oracle.sweep_loop([lam], [delta], SWEEP_BASE)
    assert sweep([lam], [delta], SWEEP_BASE).errors == [want]
    if drawn["lambda_a"][0] or drawn["delta_a"][0]:
        key = "lambda_a" if drawn["lambda_a"][0] else "delta_a"
        assert want.startswith(f"ValidationError: {key}: must be "), want


def test_sweep_checks_each_axis_value_once(monkeypatch):
    base = ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=1.0)
    checks, configs = [], []
    checked_value, post_init = ew.scenario.checked_value, ScenarioConfig.__post_init__

    def counted(key, value):
        checks.append((key, value))
        return checked_value(key, value)

    monkeypatch.setattr(ew.scenario, "checked_value", counted)
    monkeypatch.setattr(ScenarioConfig, "__post_init__",
                        lambda cfg: configs.append(cfg) or post_init(cfg))
    rows = sweep([0.5, 1.0, 2.0, -1.0], [0.0, 1.0, 2.0], base)
    # one check of the shared rule per axis value, and no config is built
    assert checks == [("lambda_a", v) for v in (0.5, 1.0, 2.0, -1.0)] + [
        ("delta_a", v) for v in (0.0, 1.0, 2.0)]
    assert configs == []
    assert [error is None for error in rows.errors] == [True] * 9 + [False] * 3


def _solo(base, lam, delta):
    cfg = dataclasses.replace(base, lambda_a=lam, lambda_b=lam, delta_a=delta, delta_b=delta)
    try:
        return run_scenario(cfg)[1], None
    except ew.EntwitnessError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _assert_rows_match_solo_runs(rows, base):
    for (lam, delta), report, error in _rows(rows):
        assert (report, error) == _solo(base, lam, delta), (lam, delta)


def test_unphysical_population_marks_only_its_row(monkeypatch):
    # a population above 1 from t = 1 on, in the lam = 0.5 rows only
    real_population = ew.scenario.excited_population

    def broken(r, t):
        lam = -np.asarray(r.z).real
        return real_population(r, t) + np.where((lam == 0.5) & (t >= 1.0), 1.0, 0.0)

    monkeypatch.setattr(ew.scenario, "excited_population", broken)
    rows = sweep([5.0, 0.5, 0.1], [0.0, 2.0], SWEEP_BASE)
    bad = [(lam, error) for (lam, _), error in zip(rows.points, rows.errors) if error]
    assert [lam for lam, _ in bad] == [0.5, 0.5]
    assert bad[0][1].startswith("NotDensityMatrix: p_a = ")
    assert bad[0][1].endswith("outside [0, 1] at sample 20 (t = 1)")
    _assert_rows_match_solo_runs(rows, SWEEP_BASE)


def test_uncertainty_violation_marks_only_its_row(monkeypatch):
    # the joint entropy of the batch's second row off by 4 bits puts its mu
    # outside [-1, 2]; the first and third rows stay as they are
    real_entropy = ew.witness.entropy_bits

    def skewed(*probs):
        h = real_entropy(*probs)
        if len(probs) == 4 and np.ndim(h) == 2 and len(h) == 3:
            h = h.copy()
            h[1] += 4.0
        return h

    monkeypatch.setattr(ew.witness, "entropy_bits", skewed)
    rows = _rows(sweep([5.0, 0.5, 0.1], None, SWEEP_BASE))
    assert [error is None for _, _, error in rows] == [True, False, True]
    assert rows[1][2].startswith("NotDensityMatrix: mu = ")
    assert rows[1][2].endswith("outside [-1, 2] at sample 0 (t = 0)")
    monkeypatch.undo()
    for (lam, _), report, _ in (rows[0], rows[2]):
        assert report == _solo(SWEEP_BASE, lam, SWEEP_BASE.delta_a)[0]


def test_unconverged_crossing_marks_only_its_row(monkeypatch):
    # the root-find leaves its first bracket unfinished (NaN); only that row fails
    real_root = ew.witness.bracketed_root

    def unfinished_first(*args, **kwargs):
        roots = real_root(*args, **kwargs)
        roots[:1] = np.nan
        return roots

    monkeypatch.setattr(ew.witness, "bracketed_root", unfinished_first)
    rows = _rows(sweep([5.0, 2.0, 0.1], [0.0], SWEEP_BASE))
    assert rows[0][2] == (f"NoConvergence: crossing root-find not done after "
                          f"{ew.witness.MAX_EVALUATIONS} evaluations")
    assert all(error is None and report.crossing_found for _, report, error in rows[1:])
    with pytest.raises(ew.NoConvergence):
        run_scenario(SWEEP_BASE)
    monkeypatch.undo()
    for (lam, delta), report, _ in rows[1:]:
        assert report == _solo(SWEEP_BASE, lam, delta)[0]


def test_one_batch_gives_each_row_its_first_offence(monkeypatch, tmp_path):
    # one sweep, one good row (width 5) and one row failing each check in
    # turn; a row with more than one fault keeps the one checked first.
    # Atom B is told from atom A by its detuning.
    base = ScenarioConfig(lambda_a=1.0, lambda_b=1.0, delta_b=0.5, t_max=4.0, sample_every=10)
    lambdas = [5.0, 4.0, 3.0, 2.5, 2.0, 1.5]
    real_population = ew.scenario.excited_population
    real_columns = ew.scenario.uncertainty_columns
    real_root = ew.witness.bracketed_root
    brackets = []

    def population(r, t):
        lam, delta, k = -r.z.real, r.z.imag, np.arange(len(t))
        fault = (((lam == 4.0) & (delta == 0.0) & (k >= 3))      # p_a of width 4
                 | ((lam == 4.0) & (delta == 0.5) & (k >= 1))    # its p_b, earlier
                 | ((lam == 3.0) & (delta == 0.5) & (k >= 6)))   # p_b of width 3
        return np.where(fault, 2.0, real_population(r, t))

    def columns(p_a, p_b):
        mu, lhs = real_columns(p_a, p_b)
        mu[2, 2] = 5.0                        # width 3: before its p_b fault
        mu[3, 7] = 5.0                        # width 2.5
        mu[3:5, 2], lhs[3:5, 2] = 0.5, 0.25   # widths 2.5 (before its mu fault) and 2
        return mu, lhs

    def unfinished_last(f, lo, *args):
        brackets.append(len(lo))
        roots = real_root(f, lo, *args)
        roots[-1] = np.nan                    # width 1.5, the last row root-found
        return roots

    monkeypatch.setattr(ew.scenario, "excited_population", population)
    monkeypatch.setattr(ew.scenario, "uncertainty_columns", columns)
    monkeypatch.setattr(ew.witness, "bracketed_root", unfinished_last)
    rows = sweep(lambdas, None, base)
    write_sweep_csv(rows, tmp_path / "sweep.csv")
    assert rows.errors == [
        None,
        "NotDensityMatrix: p_a = 2.0 outside [0, 1] at sample 3 (t = 0.3)",
        "NotDensityMatrix: p_b = 2.0 outside [0, 1] at sample 6 (t = 0.6)",
        "NotDensityMatrix: mu = 5.0 outside [-1, 2] at sample 7 (t = 0.7)",
        "NotDensityMatrix: uncertainty inequality violated: lhs = 0.25, mu = 0.5 "
        "at sample 2 (t = 0.2)",
        f"NoConvergence: crossing root-find not done after "
        f"{ew.witness.MAX_EVALUATIONS} evaluations"]
    # only the rows that passed every physical check get a root-find; the
    # others crossed, got no t_ew, and keep their physical error
    assert brackets == [2]
    assert rows.witness.crossing_found[2:5].all() and np.isnan(rows.witness.t_ew[2:5]).all()
    monkeypatch.undo()
    lone = oracle.sweep_csv_reference(oracle.sweep_loop([5.0], None, base))
    assert (tmp_path / "sweep.csv").read_text().splitlines()[1] == lone.splitlines()[1]


def test_config_rejected_row_is_neither_checked_nor_root_found(monkeypatch):
    # the rejected width -1 runs as the base, width 1, which crosses mu = 1
    # near t = 0.85 and is given an unphysical population from t = 2 on.  The
    # sweep keeps a config error whatever the batch finds, so the physical
    # errors the batch makes are recorded where they are made.
    real_population = ew.scenario.excited_population
    real_root = ew.witness.bracketed_root
    brackets, made = [], []

    def population(r, t):
        return np.where((-r.z.real == 1.0) & (t >= 2.0), 2.0, real_population(r, t))

    def counting(f, lo, *args):
        brackets.append(len(lo))
        return real_root(f, lo, *args)

    monkeypatch.setattr(ew.scenario, "excited_population", population)
    monkeypatch.setattr(ew.witness, "bracketed_root", counting)
    monkeypatch.setattr(ew.scenario, "NotDensityMatrix",
                        lambda message: made.append(message) or ew.NotDensityMatrix(message))
    rows = sweep([5.0, -1.0], None, SWEEP_BASE)
    assert rows.errors == [None, "ValidationError: lambda_a: must be > 0, got -1.0"]
    assert made == [] and brackets == [1] and rows.witness.crossing_found.all()


def test_sweep_requires_a_grid():
    base = ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=1.0)
    with pytest.raises(ValidationError):
        sweep(None, None, base)
    with pytest.raises(ValidationError):
        sweep([], [], base)


def test_sweep_csv_writes_none_as_an_empty_cell(tmp_path):
    # a row that dies, one that does not, one that never crosses and two
    # rejected rows: each None of a report is an empty cell, as is every
    # report cell of a rejected row
    base = ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=4.0, sample_every=5)
    rows = sweep([5.0, 0.1, -1.0], [0.0, 3.0], base)
    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, out)
    cells = list(csv.reader(out.open(newline="", encoding="utf-8")))[1:]
    assert [row[2:7].count("") for row in cells] == [0, 1, 1, 3, 5, 5]
    for g, row in enumerate(cells):
        if rows.errors[g] is not None:
            assert row[2:] == ["", "", "", "", "", rows.errors[g]]
            continue
        report = rows.witness.report(g)
        written = [report.crossing_found, report.t_ew, report.c_ew_threshold, report.death_time,
                   report.mu_series_max]
        assert [cell == "" for cell in row[3:7]] == [value is None for value in written[1:]]
        assert row[2] == ("true" if report.crossing_found else "false") and row[7] == ""
    assert cells[3][2:7] == ["false", "", "", "", repr(rows.witness.mu_series_max[3].item())]


def test_sweep_csv_reads_as_eight_fields_per_row_with_failed_rows(tmp_path):
    # error texts hold commas and quotes, and a value written as given may
    # hold a comma, a double quote or a line break: each is one quoted cell
    base = ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=2.0, sample_every=5)
    lambdas = [-1.0, 'x"y', "a,b", "l\nm", 0.5, float("nan")]
    rows = sweep(lambdas, [0.0, "abc"], base)
    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, out)
    with out.open(newline="", encoding="utf-8") as fh:
        header, *cells = csv.reader(fh)
    assert header == ["lambda", "delta", "crossing_found", "t_ew", "c_ew_threshold",
                      "death_time", "mu_series_max", "error"]
    assert [len(row) for row in cells] == [8] * 12
    assert [row[0] for row in cells[::2]] == ["-1.0", 'x"y', "a,b", "l\nm", "0.5", "nan"]
    assert [row[1] for row in cells[:2]] == ["0.0", "abc"]
    assert [row[7] for row in cells] == [error or "" for error in rows.errors]
    assert rows.errors[0] == "ValidationError: lambda_a: must be > 0, got -1.0"
    # only the text cells are quoted: the header and a good row keep their bytes
    text = out.read_text(encoding="utf-8")
    assert '"ValidationError: lambda_a: must be > 0, got -1.0"\n' in text
    assert '\n"x""y",0.0,' in text and '\n"a,b",0.0,' in text and '\n"l\nm",0.0,' in text
    good = _sweep_csv_bytes(sweep([0.5], [0.0], base), tmp_path / "good.csv").decode()
    assert '"' not in good and text.startswith(good.splitlines()[0] + "\n")
    assert "\n" + good.splitlines()[1] + "\n" in text and rows.errors[8] is None


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
