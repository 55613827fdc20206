import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entwitness.cli
from entwitness import NotDensityMatrix
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
    real_population = entwitness.dynamics.excited_population

    def broken(r, t):
        return real_population(r, t) + np.where(t >= 1.0, 1.0, 0.0)

    monkeypatch.setattr(entwitness.dynamics, "excited_population", broken)
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
])
def test_run_rejects_t_max_off_the_sample_grid(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "t_max" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_exit_code(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.yaml"),
                 "--out", str(tmp_path / "x.csv")]) == 1


def test_sweep_subcommand(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(GOOD_CONFIG)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--lambda", "5", "0.1",
                 "--out", str(out), "--tmax", "1"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3


def test_sweep_with_every_row_failed_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(GOOD_CONFIG)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(cfg), "--lambda", "-1", "-2",
                 "--out", str(out)]) == 2
    assert "every sweep row failed" in capsys.readouterr().err
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


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "entwitness", "preset", "fig1b_l5",
         "--out", str(out), "--tmax", "0.5"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
