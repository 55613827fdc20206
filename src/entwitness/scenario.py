"""Scenario configuration, built-in presets, runs, sweeps, and CSV output.

Configs are flat YAML mappings in units of ``gamma0`` (the unit, so not a key).
PyYAML is imported only when a config is parsed.
"""

import dataclasses
import functools
import os
import re
from dataclasses import dataclass

import numpy as np

from .dynamics import (ReservoirColumns, ReservoirParams, Trajectory, correlation_f,
                       is_finite, populations)
from .errors import EntwitnessError, ParseError, ValidationError
from .information import check_uncertainty, uncertainty_columns
from .witness import WitnessReport, concurrence, witness_rows

CSV_HEADER = "t,mu,lhs,concurrence,f_a_re,f_a_im,f_b_re,f_b_im"
REPORT_KEYS = ("t_ew", "c_ew_threshold", "death_time", "crossing_found", "mu_series_max")
SWEEP_KEYS = ("crossing_found", "t_ew", "c_ew_threshold", "death_time", "mu_series_max")
_INTEGERS = (int, np.integer)
_NUMBERS = (int, float, np.integer, np.floating)


def _is_number(value) -> bool:
    """Whether ``value`` is a finite real number (Python or numpy, not a bool)."""
    return isinstance(value, _NUMBERS) and not isinstance(value, bool) and is_finite(value)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one run; all rates/times in units of ``gamma0``.

    The only place where config values are checked: each must be a real
    number (Python or numpy, not a bool), finite and in range,
    ``sample_every`` a finite integer >= 1, and ``t_max`` a whole number of
    sample spacings ``dt * sample_every``, so that any config built can run.
    """

    lambda_a: float
    lambda_b: float
    t_max: float
    delta_a: float = 0.0
    delta_b: float = 0.0
    dt: float = 1e-2
    sample_every: int = 1

    def __post_init__(self):
        for key in ("lambda_a", "lambda_b", "t_max", "delta_a", "delta_b", "dt"):
            value = getattr(self, key)
            if not _is_number(value):
                raise ValidationError(f"{key}: must be a finite number, got {value!r}")
            object.__setattr__(self, key, float(value))
        for key in ("lambda_a", "lambda_b", "t_max", "dt"):
            if getattr(self, key) <= 0:
                raise ValidationError(f"{key}: must be > 0, got {getattr(self, key)}")
        for key in ("delta_a", "delta_b"):
            if getattr(self, key) < 0:
                raise ValidationError(f"{key}: must be >= 0, got {getattr(self, key)}")
        every = self.sample_every
        if not (_is_number(every) and isinstance(every, _INTEGERS)) or every < 1:
            raise ValidationError(f"sample_every: must be a finite integer >= 1, got {every!r}")
        object.__setattr__(self, "sample_every", int(every))
        spacing = self.dt * self.sample_every
        ratio = self.t_max / spacing
        n_samples = round(ratio) if is_finite(ratio) else 0   # inf when dt is tiny against t_max
        if n_samples < 1 or abs(n_samples * spacing - self.t_max) > 1e-9 * self.t_max:
            raise ValidationError(
                f"t_max: must be a whole number of sample spacings dt * sample_every = "
                f"{spacing:.6g}, got {self.t_max}")

    def sample_times(self) -> np.ndarray:
        """The sample grid ``k * dt * sample_every`` from 0 to ``t_max``, which it lands on."""
        n_samples = round(self.t_max / (self.dt * self.sample_every))
        return np.arange(0, n_samples * self.sample_every + 1, self.sample_every) * self.dt

    def reservoirs(self) -> tuple[ReservoirParams, ReservoirParams]:
        return (ReservoirParams(lam=self.lambda_a, delta=self.delta_a),
                ReservoirParams(lam=self.lambda_b, delta=self.delta_b))


def _cfg(la, lb, da, db, t_max):
    return ScenarioConfig(lambda_a=la, lambda_b=lb, delta_a=da, delta_b=db, t_max=t_max)


# Named parameter sets, ids following a figure/panel naming scheme.  In the
# asymmetric-detuning families (fig2*) the detuned reservoir sits on the
# measured atom A and the resonant one on the memory B; the fig3b family
# instead detunes the memory-side (Markovian) reservoir.
PRESETS: dict[str, ScenarioConfig] = {
    # identical reservoirs, non-Markovian width, varying common detuning
    "fig1a_d0": _cfg(0.1, 0.1, 0.0, 0.0, 12.0),
    "fig1a_d12": _cfg(0.1, 0.1, 1.2, 1.2, 40.0),
    "fig1a_d16": _cfg(0.1, 0.1, 1.6, 1.6, 70.0),
    # identical reservoirs, common detuning 1, varying width
    "fig1b_l5": _cfg(5.0, 5.0, 1.0, 1.0, 3.0),
    "fig1b_l01": _cfg(0.1, 0.1, 1.0, 1.0, 25.0),
    "fig1b_l008": _cfg(0.08, 0.08, 1.0, 1.0, 40.0),
    # equal widths, one reservoir detuned (on the measured atom)
    "fig2a_db0": _cfg(0.1, 0.1, 0.0, 0.0, 10.0),
    "fig2a_db2": _cfg(0.1, 0.1, 2.0, 0.0, 10.0),
    "fig2a_db4": _cfg(0.1, 0.1, 4.0, 0.0, 10.0),
    "fig2b_l5": _cfg(5.0, 5.0, 2.0, 0.0, 10.0),
    "fig2b_l01": _cfg(0.1, 0.1, 2.0, 0.0, 10.0),
    "fig2b_l005": _cfg(0.05, 0.05, 2.0, 0.0, 10.0),
    # mixed widths: non-Markovian measured atom, Markovian memory
    "fig3a_d0": _cfg(0.1, 5.0, 0.0, 0.0, 3.0),
    "fig3a_d1": _cfg(0.1, 5.0, 1.0, 1.0, 3.0),
    "fig3a_d2": _cfg(0.1, 5.0, 2.0, 2.0, 3.0),
    "fig3b_db0": _cfg(0.1, 5.0, 0.0, 0.0, 3.0),
    "fig3b_db1": _cfg(0.1, 5.0, 0.0, 1.0, 3.0),
    "fig3b_db2": _cfg(0.1, 5.0, 0.0, 2.0, 3.0),
    # long runs for the correlation-function curves
    "fig4a_d0": _cfg(0.1, 0.1, 0.0, 0.0, 50.0),
    "fig4a_d12": _cfg(0.1, 0.1, 1.2, 1.2, 50.0),
    "fig4a_d16": _cfg(0.1, 0.1, 1.6, 1.6, 50.0),
    "fig4b_l5": _cfg(5.0, 5.0, 1.0, 1.0, 50.0),
    "fig4b_l01": _cfg(0.1, 0.1, 1.0, 1.0, 50.0),
    "fig4b_l005": _cfg(0.05, 0.05, 1.0, 1.0, 50.0),
}

_KEYS = {f.name for f in dataclasses.fields(ScenarioConfig)}
_REQUIRED = tuple(f.name for f in dataclasses.fields(ScenarioConfig)
                  if f.default is dataclasses.MISSING)


@functools.cache
def _config_loader():
    """PyYAML's safe loader, plus plain scalars with an exponent (``1e-3``) read as floats.

    YAML 1.1, which PyYAML follows, takes a float to need a ``.`` and a signed
    exponent, so ``1e-3``, ``2E5`` or ``1.0e308`` would load as strings.
    Integers and quoted strings load as before.
    """
    import yaml

    class Loader(yaml.SafeLoader):
        pass

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"),
        list("-+0123456789."))
    return Loader


def parse_config(text: str) -> ScenarioConfig:
    """Parse a flat YAML mapping into a validated config with defaults applied.

    Unknown and missing required keys are rejected here, and each value is
    checked by :class:`ScenarioConfig`; error messages name the offending key.
    """
    import yaml

    try:
        raw = yaml.load(text, Loader=_config_loader())
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML: {exc}") from exc
    if raw is None:
        raise ParseError("empty config")
    if not isinstance(raw, dict):
        raise ParseError(f"config must be a flat key-value mapping, got {type(raw).__name__}")
    for key in raw:
        if key not in _KEYS:
            raise ValidationError(f"{key}: unknown key")
    for required in _REQUIRED:
        if required not in raw:
            raise ValidationError(f"{required}: required key missing")
    return ScenarioConfig(**raw)


def _run_batch(pairs, times: np.ndarray):
    """Propagate G reservoir pairs on the sample grid ``times`` and derive their columns and reports.

    Returns the ``(G, N)`` columns ``(p_a, p_b, mu, lhs, concurrence)``, the G
    reports and the G errors (None for a good row, whose report is set).
    Each column is one element-wise pass over the populations; the checks and
    the crossing root-find mark a failing row in its error and leave the
    other rows as they are.
    """
    r_a = ReservoirColumns.stack(pair[0] for pair in pairs)
    r_b = ReservoirColumns.stack(pair[1] for pair in pairs)
    p_a, p_b, errors = populations(r_a, r_b, times)
    with np.errstate(invalid="ignore"):  # an unphysical row is flagged, not warned about
        mu, lhs = uncertainty_columns(p_a, p_b)
        concs = concurrence(p_a, p_b)
    check_uncertainty(mu, lhs, times, errors)
    reports = witness_rows(times, mu, concs, r_a, r_b, errors)
    return (p_a, p_b, mu, lhs, concs), reports, errors


def run_scenario(cfg: ScenarioConfig) -> tuple[Trajectory, WitnessReport]:
    """Propagate the configured scenario and derive the observable columns.

    The one-row batch of :func:`sweep`: every column is one element-wise pass
    over the sampled excited populations.
    """
    r_a, r_b = cfg.reservoirs()
    times = cfg.sample_times()
    columns, reports, errors = _run_batch([(r_a, r_b)], times)
    if errors[0] is not None:
        raise errors[0]
    p_a, p_b, mu, lhs, concs = (column[0] for column in columns)
    traj = Trajectory(times=times, p_a=p_a, p_b=p_b, mu=mu, lhs=lhs, concurrence=concs,
                      f_a=correlation_f(r_a, times), f_b=correlation_f(r_b, times))
    return traj, reports[0]


def _fmt(x) -> str:
    # repr of a float is the shortest string that round-trips exactly,
    # so it always carries >= 12 significant digits of information
    return repr(float(x))


def _cell(value, none: str) -> str:
    """A report value as written: ``none`` for None, true/false for a bool, else the float."""
    if value is None:
        return none
    if isinstance(value, bool):
        return "true" if value else "false"
    return _fmt(value)


def emit_csv(traj: Trajectory, report: WitnessReport, path) -> None:
    """Write the sampled series as CSV plus a sibling ``<path>.report`` file."""
    columns = (traj.times, traj.mu, traj.lhs, traj.concurrence,
               traj.f_a.real, traj.f_a.imag, traj.f_b.real, traj.f_b.imag)
    # formatted a column at a time: one repr per float, then one join per row
    cells = [list(map(repr, c.tolist())) for c in columns]
    path = str(path)
    _overwrite(path, CSV_HEADER + "\n" + "\n".join(map(",".join, zip(*cells))) + "\n")
    _overwrite(path + ".report",
               "".join(f"{key}: {_cell(getattr(report, key), 'none')}\n" for key in REPORT_KEYS))


def _overwrite(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, over an existing file in place.

    The file is cut to the new length after the write, and only if it was
    longer (a pipe or device has no length to cut).  Truncating an existing
    file first, as ``open(path, "w")`` does, frees its blocks only to
    allocate them again, which takes about ten times as long.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if os.fstat(fh.fileno()).st_size > len(data):
            fh.truncate(len(data))


@dataclass
class SweepRow:
    """One grid point of a parameter sweep; ``error`` marks a failed row."""

    lam: float | None
    delta: float | None
    report: WitnessReport | None
    error: str | None = None


def sweep(lambdas, deltas, base: ScenarioConfig) -> list[SweepRow]:
    """Witness reports over the Cartesian grid of widths and detunings.

    Each grid value is applied to both reservoirs of ``base`` and checked by
    :class:`ScenarioConfig` as given; ``None`` or an empty sequence for a
    whole axis keeps the base values.  All valid grid points run as one batch
    on ``base``'s sample grid (see :func:`run_scenario`).  Rows are
    independent: a failing point is recorded in its row and does not disturb
    the others.  Only package errors (:class:`EntwitnessError`) mark a row as
    failed; any other exception is a programming error and propagates.  Row
    order follows the given value order (lambdas outer, deltas inner).
    """
    lam_axis = [None] if lambdas is None else list(lambdas) or [None]
    delta_axis = [None] if deltas is None else list(deltas) or [None]
    if lam_axis == [None] and delta_axis == [None]:
        raise ValidationError("sweep grid: at least one of lambdas/deltas must be non-empty")
    rows, pairs, valid = [], [], []
    for lam in lam_axis:
        for delta in delta_axis:
            overrides = {}
            if lam is not None:
                overrides["lambda_a"] = overrides["lambda_b"] = lam
            if delta is not None:
                overrides["delta_a"] = overrides["delta_b"] = delta
            row = SweepRow(lam=lam, delta=delta, report=None)
            try:
                pairs.append(dataclasses.replace(base, **overrides).reservoirs())
                valid.append(row)
            except EntwitnessError as exc:
                row.error = f"{type(exc).__name__}: {exc}"
            rows.append(row)
    _, reports, errors = _run_batch(pairs, base.sample_times())
    for row, report, error in zip(valid, reports, errors):
        row.report = report
        if error is not None:
            row.error = f"{type(error).__name__}: {error}"
    return rows


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    """Write sweep rows as CSV (one witness report per row)."""
    lines = [",".join(("lambda", "delta", *SWEEP_KEYS, "error"))]

    def opt(v):  # a value a config accepts as the float it holds, any other as given
        return "" if v is None else (_fmt(v) if _is_number(v) else str(v))

    for row in rows:
        report = [_cell(row.report and getattr(row.report, key), "") for key in SWEEP_KEYS]
        lines.append(",".join([opt(row.lam), opt(row.delta), *report, row.error or ""]))
    _overwrite(path, "\n".join(lines) + "\n")
