"""The benchmark's workloads.

Each workload draws its inputs from the seed when it is built, runs the same
operations in every round through the public API or the ``entwitness``
command, and checks what the round wrote: the documented series CSV,
``.report`` and sweep-CSV files (or, for the quadrature, the returned values)
against the independent oracle and the properties the method must have.
"""

import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import entwitness
from entwitness import dynamics, scenario

import oracle

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# Output schemas fixed by the README.
SERIES_HEADER = "t,mu,lhs,concurrence,f_a_re,f_a_im,f_b_re,f_b_im"
SWEEP_HEADER = "lambda,delta,crossing_found,t_ew,c_ew_threshold,death_time,mu_series_max,error"

# Tolerances the program states for itself.
TIME_TOL = 1e-3       # witness crossing time
THRESHOLD_TOL = 1e-2  # concurrence at the crossing (acceptance thresholds)
SERIES_TOL = 1e-7     # mu and lhs per sample (slack of the program's own invariants)
CONC_TOL = 1e-8       # concurrence per sample (X-state against general route)
QUAD_TOL = 1e-4       # quadrature against the closed-form f (acceptance criterion 7)
F_TOL = 1e-12         # closed-form f columns
GRID_TOL = 1e-9       # sample times

WARM_UP = scenario.ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=0.1)


def sample_times(cfg):
    """The sample grid of a config whose ``t_max`` is a whole number of sampled steps."""
    n = round(cfg.t_max / cfg.dt)
    if abs(n * cfg.dt - cfg.t_max) > 1e-9 * cfg.t_max or n % cfg.sample_every:
        raise ValueError(f"benchmark input {cfg} is not a whole number of sampled steps")
    return np.arange(0, n + 1, cfg.sample_every) * cfg.dt


def sample_spacing(cfg):
    return cfg.dt * cfg.sample_every


def expected_run(cfg):
    params = (cfg.lambda_a, cfg.delta_a, cfg.lambda_b, cfg.delta_b)
    return oracle.Expected(params, sample_times(cfg))


def _log_uniform(rng, lo, hi):
    return round(math.exp(rng.uniform(math.log(lo), math.log(hi))), 4)


def _uniform(rng, lo, hi):
    return round(rng.uniform(lo, hi), 4)


def _close(problems, label, what, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not err <= tol:
        problems.append(f"{label}: {what} off by {err:.3g} (tolerance {tol:g})")


def check_series(problems, label, path, exp):
    """A run's series CSV against the oracle and the method's invariants."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != SERIES_HEADER:
        problems.append(f"{label}: CSV header {header!r}")
        return
    if data.shape != (len(exp.times), 8):
        problems.append(f"{label}: CSV shape {data.shape}, expected ({len(exp.times)}, 8)")
        return
    t, mu, lhs, conc = data[:, 0], data[:, 1], data[:, 2], data[:, 3]
    _close(problems, label, "t", t, exp.times, GRID_TOL)
    _close(problems, label, "mu", mu, exp.mu, SERIES_TOL)
    _close(problems, label, "lhs", lhs, exp.lhs, SERIES_TOL)
    _close(problems, label, "concurrence", conc, exp.conc, CONC_TOL)
    _close(problems, label, "f_a", data[:, 4] + 1j * data[:, 5], exp.f_a, F_TOL)
    _close(problems, label, "f_b", data[:, 6] + 1j * data[:, 7], exp.f_b, F_TOL)
    if (lhs < mu - 1e-7).any():
        problems.append(f"{label}: lhs < mu - 1e-7 at t = {t[np.argmax(lhs < mu - 1e-7)]}")
    if abs(mu[0]) > 1e-10 or abs(conc[0] - 1.0) > 1e-10:
        problems.append(f"{label}: mu(0) = {mu[0]}, C(0) = {conc[0]}, expected 0 and 1")
    if conc.min() < 0.0 or conc.max() > 1.0 + 1e-12:
        problems.append(f"{label}: concurrence outside [0, 1]")


def _value(text):
    text = text.strip()
    if text in ("", "none"):
        return None
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return {key.strip(): _value(value)
                for key, _, value in (line.partition(":") for line in fh if line.strip())}


def check_witness(problems, label, got, exp, spacing):
    """One witness report (``.report`` file or sweep row) against the oracle."""
    found = got.get("crossing_found")
    if found is not exp.crossing_found:
        problems.append(f"{label}: crossing_found = {found}, oracle {exp.crossing_found}")
        return
    t_ew, c_ew = got.get("t_ew"), got.get("c_ew_threshold")
    if found:
        if t_ew is None or abs(t_ew - exp.t_ew) > TIME_TOL:
            problems.append(f"{label}: t_ew = {t_ew}, oracle {exp.t_ew}")
        if c_ew is None or not 0.0 <= c_ew <= 1.0 or abs(c_ew - exp.c_ew) > THRESHOLD_TOL:
            problems.append(f"{label}: c_ew_threshold = {c_ew}, oracle {exp.c_ew}")
    elif t_ew is not None or c_ew is not None:
        problems.append(f"{label}: t_ew/c_ew_threshold given without a crossing")
    death = got.get("death_time")
    if (death is None) != (exp.death_time is None) or (
            death is not None and abs(death - exp.death_time) > spacing + GRID_TOL):
        problems.append(f"{label}: death_time = {death}, oracle {exp.death_time}")
    mu_max = got.get("mu_series_max")
    if mu_max is None or abs(mu_max - exp.mu_max) > SERIES_TOL:
        problems.append(f"{label}: mu_series_max = {mu_max}, oracle {exp.mu_max}")


def check_run(problems, label, path, exp, spacing):
    check_series(problems, label, path, exp)
    check_witness(problems, label, read_report(str(path) + ".report"), exp, spacing)


def check_sweep(problems, label, path, points, expected, spacing):
    """A sweep CSV row by row; returns the number of failed rows."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        problems.append(f"{label}: sweep header {lines[:1]}")
        return 0
    rows = [dict(zip(SWEEP_HEADER.split(","), line.split(",", 7))) for line in lines[1:]]
    if len(rows) != len(points):
        problems.append(f"{label}: {len(rows)} sweep rows, expected {len(points)}")
        return 0
    failed = 0
    for (lam, delta), exp, row in zip(points, expected, rows):
        where = f"{label} lambda={lam} delta={delta}"
        if (_value(row["lambda"]), _value(row["delta"])) != (lam, delta):
            problems.append(f"{where}: row holds lambda={row['lambda']} delta={row['delta']}")
        elif row.get("error"):
            failed += 1
        else:
            got = {key: _value(row[key]) for key in SWEEP_HEADER.split(",")[2:7]}
            check_witness(problems, where, got, exp, spacing)
    return failed


class Workload:
    """Inputs drawn from the seed; the same operations in every round.

    ``attempts`` operations are checked per round, ``ops`` is the number of
    user-visible operations a round's time is shared by, and ``items`` the
    number of output items a round produces.  ``prepare`` computes the
    oracle's expectations, outside every timed region.
    """

    attempts = ops = 1

    def warm_up(self):
        scenario.emit_csv(*scenario.run_scenario(WARM_UP), self.workdir / "warm.csv")

    def round(self, tracer=None):
        if tracer is None:
            return self.run_round()
        tracer.install()
        try:
            return self.run_round()
        finally:
            tracer.remove()

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class PanelLong(Workload):
    """The paper's longest panel, every step recorded."""

    PRESET = "fig1a_d16"

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        self.cfg = scenario.PRESETS[self.PRESET]
        self.out = self.workdir / "panel.csv"
        self.items = len(sample_times(self.cfg))

    def describe(self):
        return {"preset": self.PRESET, "samples": self.items}

    def prepare(self):
        self.expected = expected_run(self.cfg)

    def run_round(self):
        traj, report = scenario.run_scenario(self.cfg)
        scenario.emit_csv(traj, report, self.out)

    def check(self):
        problems = []
        check_run(problems, self.PRESET, self.out, self.expected, sample_spacing(self.cfg))
        return 0, problems


class ParamSweep(Workload):
    """A width x detuning grid across both regimes, one band per grid value."""

    WIDTH_BANDS = ((2.5, 5.0), (0.8, 2.5), (0.2, 0.8), (0.05, 0.1))
    DETUNING_BANDS = ((0.0, 0.4), (0.8, 1.6), (2.0, 4.0))
    # Every 5th step: at every 10th (spacing 0.1) the interpolated crossing of a
    # near-tangent mu misses the program's 1e-3 tolerance on some seeds.
    BASE = scenario.ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=5.0, dt=0.01,
                                   sample_every=5)

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.workdir = Path(workdir)
        self.lambdas = [_log_uniform(rng, lo, hi) for lo, hi in self.WIDTH_BANDS]
        self.deltas = [_uniform(rng, lo, hi) for lo, hi in self.DETUNING_BANDS]
        self.points = [(lam, delta) for lam in self.lambdas for delta in self.deltas]
        self.out = self.workdir / "sweep.csv"
        self.attempts = self.items = len(self.points)

    def describe(self):
        return {"lambdas": self.lambdas, "deltas": self.deltas, "t_max": self.BASE.t_max,
                "dt": self.BASE.dt, "sample_every": self.BASE.sample_every}

    def prepare(self):
        times = sample_times(self.BASE)
        self.expected = [oracle.Expected((lam, delta, lam, delta), times)
                         for lam, delta in self.points]

    def run_round(self):
        rows = scenario.sweep(self.lambdas, self.deltas, self.BASE)
        scenario.write_sweep_csv(rows, self.out)

    def check(self):
        problems = []
        failed = check_sweep(problems, "param_sweep", self.out, self.points,
                             self.expected, sample_spacing(self.BASE))
        return failed, problems


class CliShort(Workload):
    """Short ``entwitness`` invocations, each in a fresh process."""

    attempts = ops = 3
    SHORT_PRESETS = tuple(sorted(k for k, c in scenario.PRESETS.items() if c.t_max <= 3.0))
    SWEEP_BASE = scenario.ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=2.0, dt=0.01,
                                         sample_every=5)

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.preset = rng.choice(self.SHORT_PRESETS)
        self.run_cfg = scenario.ScenarioConfig(
            lambda_a=_log_uniform(rng, 0.05, 5.0), lambda_b=_log_uniform(rng, 0.05, 5.0),
            delta_a=_uniform(rng, 0.0, 2.0), delta_b=_uniform(rng, 0.0, 2.0), t_max=3.0)
        self.runs = [scenario.PRESETS[self.preset], self.run_cfg]  # preset, run --config
        self.lambdas = [_log_uniform(rng, 1.0, 5.0), _log_uniform(rng, 0.05, 0.5)]
        self.deltas = [_uniform(rng, 0.0, 0.5), _uniform(rng, 1.0, 3.0)]
        self.points = [(lam, delta) for lam in self.lambdas for delta in self.deltas]
        run_yaml, base_yaml = self.workdir / "run.yaml", self.workdir / "sweep_base.yaml"
        keys = ("lambda_a", "lambda_b", "delta_a", "delta_b", "t_max", "dt", "sample_every")
        for path, cfg in ((run_yaml, self.run_cfg), (base_yaml, self.SWEEP_BASE)):
            path.write_text("".join(f"{k}: {getattr(cfg, k)!r}\n" for k in keys),
                            encoding="utf-8")
        self.outs = [self.workdir / name for name in ("preset.csv", "run.csv", "sweep.csv")]
        self.commands = [
            ["preset", self.preset, "--out", str(self.outs[0])],
            ["run", "--config", str(run_yaml), "--out", str(self.outs[1])],
            ["sweep", "--config", str(base_yaml), "--lambda", *map(repr, self.lambdas),
             "--delta", *map(repr, self.deltas), "--out", str(self.outs[2])],
        ]
        self.items = (sum(len(sample_times(cfg)) for cfg in self.runs)
                      + len(self.points) * len(sample_times(self.SWEEP_BASE)))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), str(BENCH)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def describe(self):
        return {"commands": [["entwitness", *args] for args in self.commands],
                "run_config": {k: getattr(self.run_cfg, k)
                               for k in ("lambda_a", "lambda_b", "delta_a", "delta_b",
                                         "t_max", "dt")},
                "derived_samples": self.items}

    def prepare(self):
        self.expected = [expected_run(cfg) for cfg in self.runs]
        times = sample_times(self.SWEEP_BASE)
        self.expected_sweep = [oracle.Expected((lam, delta, lam, delta), times)
                               for lam, delta in self.points]

    def warm_up(self):
        pass  # set-up has already started the interpreter and imported the package

    def round(self, tracer=None):
        self.results = []
        totals = self.workdir / "totals.json"
        for args in self.commands:
            if tracer is None:
                cmd = [sys.executable, "-m", "entwitness", *args]
            else:
                cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(totals), *args]
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=150)
            self.results.append((proc.returncode, proc.stderr))
            if tracer is not None and totals.is_file():
                tracer.merge(json.loads(totals.read_text(encoding="utf-8")))
                totals.unlink()

    def check(self):
        problems, failed = [], 0
        labels = (f"preset {self.preset}", "run --config", "sweep")
        for i, (code, stderr) in enumerate(self.results):
            if code != 0:
                failed += 1
                print(f"{labels[i]}: exit {code}: {stderr.strip()[-300:]}", file=sys.stderr)
            elif i < len(self.runs):
                check_run(problems, labels[i], self.outs[i], self.expected[i],
                          sample_spacing(self.runs[i]))
            elif check_sweep(problems, labels[i], self.outs[i], self.points,
                             self.expected_sweep, sample_spacing(self.SWEEP_BASE)):
                failed += 1
        return failed, problems

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6


class QuadratureCheck(Workload):
    """``correlation_f_quadrature`` over the grid of acceptance criterion 7."""

    WIDTHS = (0.05, 0.1, 1.0, 2.0, 5.0)
    DETUNINGS = (0.0, 0.5, 1.0, 1.6, 4.0)
    TIMES = (0.5, 5.0, 50.0)

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        self.points = [(lam, delta, t) for lam in self.WIDTHS for delta in self.DETUNINGS
                       for t in self.TIMES]
        random.Random(seed).shuffle(self.points)
        self.calls = [(entwitness.ReservoirParams(lam, delta), t)
                      for lam, delta, t in self.points]
        self.attempts = self.ops = self.items = len(self.points)

    def describe(self):
        return {"widths": self.WIDTHS, "detunings": self.DETUNINGS, "times": self.TIMES,
                "order": self.points}

    def prepare(self):
        self.expected = [complex(oracle.correlation_f(lam, delta, t))
                         for lam, delta, t in self.points]

    def warm_up(self):
        dynamics.correlation_f_quadrature(entwitness.ReservoirParams(1.0), 1.0)

    def run_round(self):
        quadrature = dynamics.correlation_f_quadrature
        self.values = []
        for r, t in self.calls:
            try:
                self.values.append(quadrature(r, t))
            except entwitness.QuadratureUnconverged:
                self.values.append(None)

    def check(self):
        problems = []
        for point, got, want in zip(self.points, self.values, self.expected):
            if got is not None and not abs(got - want) <= QUAD_TOL:
                problems.append(f"quadrature {point}: {got} vs closed form {want}")
        return sum(v is None for v in self.values), problems


WORKLOADS = {
    "panel_long": PanelLong,
    "param_sweep": ParamSweep,
    "cli_short": CliShort,
    "quadrature_check": QuadratureCheck,
}
