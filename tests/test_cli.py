import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import _oracles as oracle
import entwitness.cli
from entwitness import (EntwitnessError, NotDensityMatrix, ScenarioConfig, parse_config,
                        run_scenario)
from entwitness.cli import main
from entwitness.scenario import CSV_HEADER

GOOD_CONFIG = "lambda_a: 5.0\nlambda_b: 5.0\ndelta_a: 1.0\ndelta_b: 1.0\nt_max: 2\n"

# A child interpreter imports the package from this checkout's src/, never
# from an installed copy.
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def test_preset_subcommand(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["preset", "fig1b_l5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 302            # header + 301 samples for t_max = 3
    assert (tmp_path / "run.csv.report").exists()


def test_run_subcommand_with_overrides(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(GOOD_CONFIG)
    out = tmp_path / "run.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--tmax", "1", "--dt", "0.02"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 52             # header + 51 samples at dt = 0.02


def test_run_validation_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    # a negative width; an integer t_max beyond the float range; gamma0, the unit
    for text, message in (("lambda_a: -1\nlambda_b: 0.1\nt_max: 10\n", "lambda_a"),
                          ("lambda_a: 1\nlambda_b: 1\nt_max: 1" + "0" * 400 + "\n",
                           "t_max: must be a finite number"),
                          (GOOD_CONFIG + "gamma0: 1.0\n", "gamma0: unknown key")):
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("text", ["lambda_a: 'unclosed\n", "lambda_a 0.1\nlambda_b: 0.1\n",
                                  "lambda_a: 0.1\n\tlambda_b: 0.1\n", "{lambda_a: 0.1\n"])
def test_invalid_yaml_exits_2_with_one_line(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid YAML: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_duplicate_config_key_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("lambda_a: 0.1\nlambda_b: 0.2\nt_max: 1.0\nlambda_a: 5.0\n")
    out = tmp_path / "x.csv"
    grid = ["--lambda", "0.5"] if command == "sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(out), *grid]) == 2
    err = capsys.readouterr().err
    assert err == "error: lambda_a: duplicate key\n"
    assert not out.exists() and not (tmp_path / "x.csv.report").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("value, message", [
    ("!!int abc", "'abc' is not a valid !!int"),
    ("!!int 0x", "'0x' is not a valid !!int"),
    ("0x_", "'0x_' is not a valid !!int"),   # resolved as an int without a tag
    ("!!float abc", "'abc' is not a valid !!float"),
    ("!!timestamp abc", "'abc' is not a valid !!timestamp"),
    ("!!bool maybe", "'maybe' is not a valid !!bool"),
], ids=["int", "int_prefix", "implicit_int", "float", "timestamp", "bool"])
def test_value_its_tag_cannot_read_exits_2(tmp_path, capsys, command, value, message):
    # PyYAML's constructors raise ValueError, AttributeError or KeyError here
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"lambda_a: {value}\nlambda_b: 0.2\nt_max: 1.0\n")
    out = tmp_path / "x.csv"
    grid = ["--lambda", "0.5"] if command == "sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(out), *grid]) == 2
    assert capsys.readouterr().err == f"error: lambda_a: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_duplicate_key_in_a_merged_mapping_exits_2(tmp_path, capsys, command):
    # the merge key is no config key, so its mapping is never composed
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("<<: {lambda_b: 0.3, lambda_b: 3}\nlambda_a: 0.1\nlambda_b: 0.2\nt_max: 1.0\n")
    out = tmp_path / "x.csv"
    grid = ["--lambda", "0.5"] if command == "sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(out), *grid]) == 2
    assert capsys.readouterr().err == "error: <<: unknown key\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_deeply_nested_config_value_exits_2(tmp_path, capsys, command):
    # rejected at its first "[", so PyYAML never composes the 500 levels
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("lambda_a: " + "[" * 500 + "]" * 500 + "\nlambda_b: 1.0\nt_max: 1.0\n")
    out = tmp_path / "x.csv"
    grid = ["--lambda", "0.5"] if command == "sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(out), *grid]) == 2
    assert capsys.readouterr().err == "error: lambda_a: must be a plain value, got a YAML sequence\n"
    assert not out.exists()


def _aliased(depth):
    """A YAML list of ten copies of a list of ten copies ... of ten 1s, ``depth`` levels deep."""
    levels = ["&l0 [" + ", ".join(["1"] * 10) + "]"]
    levels += [f"&l{k} [" + ", ".join([f"*l{k - 1}"] * 10) + "]" for k in range(1, depth)]
    return "[" + ", ".join(levels) + "]"


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("text, message", [
    ("lambda_b: 1.0\nt_max: 1.0\nlambda_a: " + _aliased(5) + "\n",
     "error: lambda_a: must be a plain value, got a YAML sequence\n"),
    ("lambda_a: 1.0\nlambda_b: 1.0\nt_max: 1.0\nsample_every: [&a [1, 1], [*a, *a]]\n",
     "error: sample_every: must be a plain value, got a YAML sequence\n"),
    ("lambda_a: {x: &a [1, 1], y: *a}\nlambda_b: 1.0\nt_max: 1.0\n",
     "error: lambda_a: must be a plain value, got a YAML mapping\n"),
    ("lambda_a: &a 1.0\nlambda_b: *a\nt_max: 1.0\n",
     "error: lambda_b: must be a plain value, got a YAML alias\n"),
], ids=["list", "sample_every", "mapping", "alias"])
def test_aliased_config_value_is_named_by_its_type(tmp_path, capsys, command, text, message):
    # rejected before it is composed: expanded, each level of ten aliases
    # multiplied the value's repr by ten, to 358 kB from 250 bytes of config
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    grid = ["--lambda", "0.5"] if command == "sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(out), *grid]) == 2
    err = capsys.readouterr().err
    assert len(err) < 1024 and err == message
    assert not out.exists()


def _merge_chain(depth):
    """A YAML mapping of ``depth`` levels of anchored ``<<`` merges, each of ten copies of the last."""
    levels = ["m0: &m0 {t_max: 1}"]
    levels += [f"m{k}: &m{k} {{<<: [" + ", ".join([f"*m{k - 1}"] * 10) + "]}"
               for k in range(1, depth + 1)]
    return "{" + ", ".join(levels) + "}"


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("text, message", [
    ("lambda_b: 1.0\nt_max: 1.0\nlambda_a: " + _merge_chain(7) + "\n",
     "error: lambda_a: must be a plain value, got a YAML mapping\n"),
    ("lambda_a: 1.0\nlambda_b: 1.0\nt_max: 1.0\nx: " + _merge_chain(7) + "\n",
     "error: x: unknown key\n"),
], ids=["known_key", "unknown_key"])
def test_merge_chain_config_exits_2_at_once(tmp_path, capsys, command, text, message):
    # each level of merges copies the last one's pairs ten times: composed and
    # merged, 6 levels took 1.2 s and 7 levels ten times that
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    grid = ["--lambda", "0.5"] if command == "sweep" else []
    start = time.perf_counter()
    assert main([command, "--config", str(cfg), "--out", str(out), *grid]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_run_parse_error_exit_code(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("lambda_a: [oops\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


def test_run_integration_failure_exit_code(tmp_path, capsys, monkeypatch):
    def broken_run(cfg):
        raise NotDensityMatrix("eigenvalue -1e-3 below floor")

    monkeypatch.setattr(entwitness.cli, "run_scenario", broken_run)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(GOOD_CONFIG)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "eigenvalue" in err
    assert "Traceback" not in err


def test_run_physics_invariant_violation_exits_3(tmp_path, capsys, monkeypatch):
    # the joint entropy (the one over four eigenvalues) off by 4 bits puts mu
    # outside [-1, 2]
    real_entropy = entwitness.information.entropy_bits

    def inflated(*probs):
        h = real_entropy(*probs)
        return h + 4.0 if len(probs) == 4 else h

    monkeypatch.setattr(entwitness.information, "entropy_bits", inflated)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(GOOD_CONFIG)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: mu = ") and "at sample 0" in err
    assert "Traceback" not in err


def test_run_unphysical_population_exits_3(tmp_path, capsys, monkeypatch):
    # a decay population above 1 is named with its sample and time
    real_population = entwitness.scenario.excited_population

    def broken(r, t):
        return real_population(r, t) + np.where(t >= 1.0, 1.0, 0.0)

    monkeypatch.setattr(entwitness.scenario, "excited_population", broken)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(GOOD_CONFIG)
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: p_a = ") and "at sample 100 (t = 1)" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("text", [
    "lambda_a: 0.1\nlambda_b: 0.1\nt_max: 2\ndt: 3\n",
    "lambda_a: 1\nlambda_b: 1\nt_max: 1\ndt: 0.3\n",
    "lambda_a: 5\nlambda_b: 5\ndelta_a: 1\ndelta_b: 1\nt_max: 0.5\nsample_every: 30\n",
    "lambda_a: 1\nlambda_b: 1\nt_max: 1\ndt: 1.0e-320\n",
])
def test_run_rejects_t_max_off_the_sample_grid(tmp_path, capsys, text):
    # the config is rejected as it is parsed, so a sweep on it writes no CSV either
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    for command in (["run"], ["sweep", "--lambda", "1"]):
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "t_max" in err and "Traceback" not in err
        assert not out.exists()


def test_missing_config_file_exit_code(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.yaml"),
                 "--out", str(tmp_path / "x.csv")]) == 1


def _command(tmp_path, name):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(GOOD_CONFIG)
    return {"run": ["run", "--config", str(cfg)], "preset": ["preset", "fig1b_l5"],
            "sweep": ["sweep", "--config", str(cfg), "--lambda", "5", "0.1"]}[name]


def _assert_one_io_error(err):
    assert err.startswith("i/o error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("name", ["run", "preset", "sweep"])
def test_output_in_a_missing_directory_exits_1(tmp_path, capsys, name):
    out = tmp_path / "absent" / "x.csv"
    assert main([*_command(tmp_path, name), "--out", str(out)]) == 1
    _assert_one_io_error(capsys.readouterr().err)
    assert not out.parent.exists()


@pytest.mark.parametrize("name", ["run", "preset"])
def test_report_path_that_is_a_directory_exits_1(tmp_path, capsys, name):
    # the CSV is written before its report, so it is left without one
    out = tmp_path / "x.csv"
    (tmp_path / "x.csv.report").mkdir()
    assert main([*_command(tmp_path, name), "--out", str(out)]) == 1
    _assert_one_io_error(capsys.readouterr().err)
    assert out.read_text().startswith(CSV_HEADER + "\n")
    assert not any((tmp_path / "x.csv.report").iterdir())


@pytest.mark.parametrize("command", [["run"], ["sweep", "--lambda", "1"]])
def test_config_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "bad.yaml"
    cfg.write_bytes(b"\xff\xfe" + GOOD_CONFIG.encode("utf-16-le"))
    out = tmp_path / "x.csv"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: not UTF-8 text") and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()


def test_sweep_subcommand(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(GOOD_CONFIG)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--lambda", "5", "0.1",
                 "--out", str(out), "--tmax", "1"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3


def test_sweep_flags_may_be_repeated(tmp_path):
    # each repeat of --lambda or --delta adds its values, in the order given
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(GOOD_CONFIG)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--lambda", "0.5", "0.7", "--lambda", "2.0",
                 "--out", str(out), "--tmax", "1"]) == 0
    assert [line.split(",")[:2] for line in out.read_text().splitlines()[1:]] == [
        ["0.5", ""], ["0.7", ""], ["2.0", ""]]
    assert main(["sweep", "--config", str(cfg), "--delta", "1", "--lambda", "5",
                 "--delta", "0", "2", "--out", str(out), "--tmax", "1"]) == 0
    assert [line.split(",")[:2] for line in out.read_text().splitlines()[1:]] == [
        ["5.0", "1.0"], ["5.0", "0.0"], ["5.0", "2.0"]]


def test_sweep_reports_each_failed_row_on_stderr(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(GOOD_CONFIG)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(cfg), "--lambda", "-1", "5", "--delta", "0", "-3",
                 "--out", str(out), "--tmax", "1"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "sweep row (lambda=-1.0, delta=0.0) failed: "
        "ValidationError: lambda_a: must be > 0, got -1.0",
        "sweep row (lambda=-1.0, delta=-3.0) failed: "
        "ValidationError: lambda_a: must be > 0, got -1.0",
        "sweep row (lambda=5.0, delta=-3.0) failed: "
        "ValidationError: delta_a: must be >= 0, got -3.0"]
    assert [line.endswith(",") for line in out.read_text().splitlines()[1:]] == \
        [False, False, True, False]


def test_sweep_with_every_row_failed_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(GOOD_CONFIG)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(cfg), "--lambda", "-1", "-2",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "sweep row (lambda=-1.0, delta=None) failed: "
        "ValidationError: lambda_a: must be > 0, got -1.0",
        "sweep row (lambda=-2.0, delta=None) failed: "
        "ValidationError: lambda_a: must be > 0, got -2.0",
        "error: every sweep row failed"]
    assert len(out.read_text().splitlines()) == 3     # failed rows are still written


def test_sweep_without_grid_exits_2(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(GOOD_CONFIG)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 2


def test_unknown_preset_rejected_by_argparse(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["preset", "fig9z", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: neither the command line nor the
    # quadrature cross-check of f(t) loads it
    code = ("import sys, entwitness.cli, entwitness as ew; "
            "ew.correlation_f_quadrature(ew.ReservoirParams(1.0), 1.0); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_preset_leaves_yaml_unloaded(tmp_path):
    # PyYAML is imported only to parse a config file
    code = ("import sys, entwitness.cli; "
            f"assert entwitness.cli.main(['preset', 'fig1b_l5', '--tmax', '0.5', "
            f"'--out', {str(tmp_path / 'p.csv')!r}]) == 0; "
            "print('yaml' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_orjson_is_loaded_only_to_write_a_series_csv(tmp_path):
    # orjson formats the series CSV; its import is not paid by a sweep or by import
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(GOOD_CONFIG)
    code = ("import sys, entwitness.cli; "
            "loaded = ['orjson' in sys.modules]; "
            f"assert entwitness.cli.main(['sweep', '--config', {str(cfg)!r}, '--lambda', '1', "
            f"'--out', {str(tmp_path / 's.csv')!r}]) == 0; "
            "loaded.append('orjson' in sys.modules); "
            f"assert entwitness.cli.main(['preset', 'fig1b_l5', '--tmax', '0.5', "
            f"'--out', {str(tmp_path / 'p.csv')!r}]) == 0; "
            "loaded.append('orjson' in sys.modules); "
            "print(loaded)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, True]"


def test_run_accepts_exponent_floats(tmp_path):
    # YAML 1.1 reads 1e-3 as a string; the config loader reads it as the float
    outputs = []
    for dt in ("1e-3", "0.001"):
        cfg = tmp_path / f"{dt}.yaml"
        cfg.write_text(f"lambda_a: 0.1\nlambda_b: 0.1\nt_max: 1\ndt: {dt}\n")
        out = tmp_path / f"{dt}.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), (tmp_path / f"{dt}.csv.report").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("text", [
    "lambda_a: 1.0e+308\nlambda_b: 1.0e+308\nt_max: 3\n",
    "lambda_a: 1.0\nlambda_b: 1.0\ndelta_a: 1.0e+308\nt_max: 3\n",
    "lambda_a: 1.0e-100\nlambda_b: 1.0e-100\nt_max: 1.0e50\ndt: 1.0e45\n",
])
def test_run_at_rates_near_the_float_limit(tmp_path, text):
    # z t overflows on the first two grids, and on the third it is at most
    # 1e-50 while lam t**2 / 2 reaches 0.5: the run neither warns nor fails
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "entwitness", "run", "--config", str(cfg),
         "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0 and proc.stderr == ""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj, _ = run_scenario(parse_config(text))
    for p in (traj.p_a, traj.p_b):
        assert np.all((p >= 0.0) & (p <= 1.0))


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "entwitness", "preset", "fig1b_l5",
         "--out", str(out), "--tmax", "0.5"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


# Command-line fuzzing: drawn configs, overrides and grids through main().
CONFIG_KEYS = ("lambda_a", "lambda_b", "t_max", "delta_a", "delta_b", "dt", "sample_every")
# Values a run accepts, so that some drawn configs reach the run and the writers.
GOOD_VALUES = {"lambda_a": ["0.1", "1", "5.0", "1e-1"], "t_max": ["1", "2.5", "1.0e0"],
               "delta_a": ["0", "1.0", "2e0"], "dt": ["0.01", "0.05", "0.25", "5e-2"],
               "sample_every": ["1", "2", "5"]}
GOOD_VALUES["lambda_b"], GOOD_VALUES["delta_b"] = GOOD_VALUES["lambda_a"], GOOD_VALUES["delta_a"]
EDGE_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [5e-324, 1e-310, 1e-300, 1e300, 1.7976931348623157e308, -0.0, 0.1, 1.0, 5.0]))


def _spell(x: float, how: int) -> str:
    """A YAML spelling of ``x``: repr (``inf``, ``nan`` load as strings), or an exponent form."""
    if how == 0:
        return repr(x)
    if math.isnan(x):
        return ".nan"
    if math.isinf(x):
        return ".inf" if x > 0 else "-.inf"
    return f"{x:.6e}" if how == 1 else f"{x:.3E}"


YAML_VALUES = st.one_of(
    st.builds(_spell, EDGE_FLOATS, st.integers(0, 2)),
    st.one_of(st.integers(-3, 10), st.integers(2**62, 2**65), st.just(10**400)).map(str),
    st.sampled_from(["true", "false", "yes", "no", "~"]),
    st.text(max_size=4).map(json.dumps))


@st.composite
def flat_config_text(draw):
    """Unique config keys in drawn order, the required ones always, each with a scalar value."""
    optional = draw(st.lists(st.sampled_from(CONFIG_KEYS[3:]), unique=True))
    keys = draw(st.permutations(["lambda_a", "lambda_b", "t_max", *optional]))
    return "".join(f"{key}: {draw(st.sampled_from(GOOD_VALUES[key]) | YAML_VALUES)}\n"
                   for key in keys)


@settings(max_examples=300, deadline=None)
@given(flat_config_text())
def test_parse_config_loads_flat_configs_as_plain_yaml(text):
    # the loader's checks change nothing for a flat mapping of unique known keys
    try:
        expected = ScenarioConfig(**oracle.load_yaml(text))
    except EntwitnessError as exc:
        with pytest.raises(type(exc)) as caught:
            parse_config(text)
        assert str(caught.value) == str(exc)
    else:
        assert parse_config(text) == expected


@st.composite
def config_bytes(draw):
    kind = draw(st.sampled_from(["yaml", "yaml", "yaml", "binary", "utf-16"]))
    if kind == "binary":
        return draw(st.binary(max_size=48))
    # a few keys take drawn values, dropped keys among them; the rest a value a run accepts
    wild = draw(st.sets(st.sampled_from(CONFIG_KEYS + ("gamma0",)), max_size=3))
    lines = [f"{key}: {draw(YAML_VALUES if key in wild else st.sampled_from(GOOD_VALUES[key]))}\n"
             for key in CONFIG_KEYS if key not in wild or draw(st.integers(0, 5))]
    if "gamma0" in wild:
        lines.append(f"gamma0: {draw(YAML_VALUES)}\n")
    return "".join(lines).encode("utf-16" if kind == "utf-16" else "utf-8")


def _sample_count(data: bytes, overrides) -> int:
    """Samples of the run a command line asks for; 0 where its config is rejected."""
    try:
        cfg = dataclasses.replace(parse_config(data.decode("utf-8")), **overrides)
    except (UnicodeDecodeError, EntwitnessError):
        return 0
    return round(cfg.t_max / (cfg.dt * cfg.sample_every))


GRIDS = st.lists((st.sampled_from([0.1, 0.5, 1.0, 5.0]) | EDGE_FLOATS).map(repr), max_size=3)
OVERRIDES = st.one_of(st.none(), st.none(), st.none(), EDGE_FLOATS)


@settings(max_examples=150, deadline=None)
@given(config_bytes(), st.sampled_from(["run", "sweep"]), GRIDS, GRIDS, OVERRIDES, OVERRIDES)
@example(b"lambda_a: 1.0e-100\nlambda_b: 1.0e-100\nt_max: 1.0e50\ndt: 1.0e47\n", "run", [], [],
         None, None)
def test_cli_fuzz_exit_codes_stderr_and_outputs(data, command, lambdas, deltas, dt, tmax):
    overrides = {key: value for key, value in (("dt", dt), ("t_max", tmax)) if value is not None}
    # a valid config may ask for up to a million samples, more than a test should run
    assume(_sample_count(data, overrides) <= 2000)
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp, "cfg.yaml"), Path(tmp, "out.csv")
        cfg.write_bytes(data)
        argv = [command, "--config", str(cfg), "--out", str(out)]
        argv += [arg for flag, value in (("--dt", dt), ("--tmax", tmax)) if value is not None
                 for arg in (flag, repr(value))]
        if command == "sweep":
            argv += [*(["--lambda", *lambdas] if lambdas else []),
                     *(["--delta", *deltas] if deltas else [])]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse rejects the command line
                code = exc.code
        err = stderr.getvalue()
        # no I/O fails here, so exit 1 never occurs
        assert code in (0, 2, 3), (argv, data, err)
        assert not caught, [str(w.message) for w in caught]
        assert "Traceback" not in err and "Warning" not in err, err
        if code != 0:
            assert not Path(tmp, "out.csv.report").exists()
            every_row_failed = command == "sweep" and "error: every sweep row failed" in err
            assert not out.exists() or (code == 2 and every_row_failed), (argv, data, err)
