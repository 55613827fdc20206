"""Scenario configuration, built-in presets, runs, sweeps, and CSV output.

Configs are flat YAML mappings in units of ``gamma0`` (the unit, so not a key).
PyYAML is imported only when a config is parsed, orjson only when a series CSV is written.
"""

import dataclasses
import functools
import itertools
import os
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import (ReservoirColumns, Trajectory, checked_value, correlation_f,
                       excited_population, is_number)
from .errors import NoConvergence, NotDensityMatrix, ParseError, ValidationError
from .witness import (MAX_EVALUATIONS, WitnessColumns, WitnessReport, concurrence,
                      uncertainty_columns, witness_rows)

CSV_HEADER = "t,mu,lhs,concurrence,f_a_re,f_a_im,f_b_re,f_b_im"
REPORT_KEYS = ("t_ew", "c_ew_threshold", "death_time", "crossing_found", "mu_series_max")
SWEEP_KEYS = ("crossing_found", "t_ew", "c_ew_threshold", "death_time", "mu_series_max")
MAX_SAMPLES = 10**6   # most sample spacings in t_max; a run that long writes ~150 MB of CSV
# Most row-samples a sweep evaluates at once: a complex (2, rows, N) temporary of
# a block, both atoms, is then at most 8 MiB whatever the grid, or one row where N > 2**18.
BLOCK_SAMPLES = 2**18
# Rows of a series CSV formatted in one pass: a chunk's text is then about 300 KB whatever
# N, so that its temporaries stay in a core's L2 cache and take no fresh pages.
ROWS_PER_CHUNK = 2**11
POPULATION_TOL = 1e-9


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one run; all rates/times in units of ``gamma0``.

    The float keys are checked in field order by :func:`entwitness.dynamics.checked_value`,
    which names the first bad one; then ``sample_every`` must be a finite integer
    >= 1, and ``t_max`` a whole number of sample spacings ``dt * sample_every``, at
    most ``MAX_SAMPLES`` of them, so that any config built can run.
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
            object.__setattr__(self, key, checked_value(key, getattr(self, key)))
        every = self.sample_every
        if not (is_number(every) and isinstance(every, (int, np.integer))) or every < 1:
            raise ValidationError(
                f"sample_every: must be a finite integer >= 1, got {every!r}")
        object.__setattr__(self, "sample_every", int(every))
        spacing = self.dt * self.sample_every
        ratio = self.t_max / spacing
        n_samples = round(ratio) if np.isfinite(ratio) else 0   # inf when dt is tiny against t_max
        if n_samples > MAX_SAMPLES:
            raise ValidationError(
                f"t_max: must be at most {MAX_SAMPLES} sample spacings dt * sample_every = "
                f"{spacing:.6g}, got {self.t_max}")
        if n_samples < 1 or abs(n_samples * spacing - self.t_max) > 1e-9 * self.t_max:
            raise ValidationError(
                f"t_max: must be a whole number of sample spacings dt * sample_every = "
                f"{spacing:.6g}, got {self.t_max}")

    def sample_times(self) -> np.ndarray:
        """The sample grid ``k * dt * sample_every`` from 0 to ``t_max``, which it lands on."""
        n_samples = round(self.t_max / (self.dt * self.sample_every))
        # float k * sample_every is exact below 2**53, and a sample_every past
        # int64 needs no integer array
        return np.arange(n_samples + 1, dtype=float) * self.sample_every * self.dt


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
    """PyYAML's safe loader for a flat mapping of scalars, exponent spellings read as floats.

    Below the top-level node, an alias, a sequence or a mapping (a ``<<``
    merge's too) is a :class:`ParseError` naming its key, raised before it is
    composed; a key that is no config key (``<<`` too) or is given twice is a
    :class:`ValidationError` as soon as it is composed, where PyYAML would keep
    the last value.  A value is constructed as soon as it is composed, and text
    that its tag cannot read (``!!int abc``, ``!!bool maybe``, ``0x_``) is a
    :class:`ParseError` naming its key, not PyYAML's own exception.  So the
    first fault in document order is reported.  YAML
    1.1 takes a float to need a ``.`` and a signed exponent; here ``1e-3``,
    ``2E5`` or ``1.0e308`` load as floats, not strings.
    """
    import yaml

    class Loader(yaml.SafeLoader):
        def compose_node(self, parent, index):
            event = self.peek_event()
            if parent is not None and not isinstance(event, yaml.ScalarEvent):
                kind = {yaml.AliasEvent: "alias", yaml.SequenceStartEvent: "sequence"}.get(
                    type(event), "mapping")
                where = (f"{index.value}: must be a plain value"
                         if isinstance(index, yaml.Node)   # a value: index is its key
                         else "config must be a flat mapping of plain values")
                raise ParseError(f"{where}, got a YAML {kind}")
            node = super().compose_node(parent, index)
            if parent is not None and index is None:   # a key of the top-level mapping
                if node.tag != "tag:yaml.org,2002:str" or node.value not in _KEYS:
                    raise ValidationError(f"{node.value}: unknown key")
                if any(key.value == node.value for key, _ in parent.value):   # <= 7 pairs
                    raise ValidationError(f"{node.value}: duplicate key")
            elif isinstance(node, yaml.ScalarNode):   # a value, or the whole document
                try:   # the constructor keeps the value for the document's construction
                    self.construct_object(node, deep=True)
                except (AttributeError, LookupError, ValueError) as exc:
                    tag = node.tag.replace("tag:yaml.org,2002:", "!!")
                    where = "config" if parent is None else index.value
                    raise ParseError(f"{where}: {node.value!r} is not a valid {tag}") from exc
            return node

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"),
        list("-+0123456789."))
    return Loader


def parse_config(text: str) -> ScenarioConfig:
    """Parse a flat YAML mapping into a validated config with defaults applied.

    Keys are checked as the loader reads them, required keys here, and values by
    :class:`ScenarioConfig`; error messages name the offending key.
    """
    import yaml

    try:
        raw = yaml.load(text, Loader=_config_loader())
    except yaml.YAMLError as exc:   # PyYAML's text draws the source line and a caret
        mark = getattr(exc, "problem_mark", None)   # a ReaderError's text ends in its position
        text = " ".join(str(exc).split()) if mark is None else (
            f"{': '.join(filter(None, (exc.context, exc.problem)))} "
            f"at line {mark.line + 1}, column {mark.column + 1}")
        raise ParseError(f"invalid YAML: {text}") from exc
    if raw is None:
        raise ParseError("empty config")
    if not isinstance(raw, dict):
        raise ParseError(f"config must be a flat key-value mapping, got {type(raw).__name__}")
    for required in _REQUIRED:
        if required not in raw:
            raise ValidationError(f"{required}: required key missing")
    return ScenarioConfig(**raw)


def _run_batch(params: np.ndarray, times: np.ndarray, good):
    """Evaluate G rows of checked ``(lambda_a, lambda_b, delta_a, delta_b)`` at the sample times.

    Returns the rows' :class:`ReservoirColumns` (atom A, then B), the ``(G, N)`` columns
    ``(p_a, p_b, mu, lhs, concurrence)``, the :class:`WitnessColumns` and the
    G rows' errors (None for a good row).  Only the rows set in the ``(G,)``
    mask ``good`` are checked, in this order: ``p_a``, ``p_b`` in [0, 1],
    ``mu`` in [-1, 2], ``lhs >= mu``, then the crossing's root-find.  A row's
    first offence, at its first offending sample, is its error, and the row
    gets no later check.
    """
    reservoirs = ReservoirColumns.of(params[:, :2].T, params[:, 2:].T)
    p_a, p_b = excited_population(reservoirs, times)
    with np.errstate(invalid="ignore"):  # an unphysical row is flagged, not warned about
        mu, lhs = uncertainty_columns(p_a, p_b)
        concs = concurrence(p_a, p_b)
    checks = [(~((p >= -POPULATION_TOL) & (p <= 1.0 + POPULATION_TOL)),
               name + " = {} outside [0, 1]", p) for name, p in (("p_a", p_a), ("p_b", p_b))]
    checks += [(~((mu >= -1.0 - 1e-7) & (mu <= 2.0 + 1e-7)), "mu = {} outside [-1, 2]", mu),
               (lhs < mu - 1e-7, "uncertainty inequality violated: lhs = {}, mu = {}", lhs, mu)]
    errors = [None] * len(params)
    good = np.array(good, dtype=bool)
    for bad, message, *columns in checks:
        for g in np.flatnonzero(good & np.any(bad, axis=-1)):
            k = int(np.argmax(bad[g]))
            errors[g] = NotDensityMatrix(message.format(*(c[g, k] for c in columns))
                                         + f" at sample {k} (t = {float(times[k]):.6g})")
            good[g] = False
    witness = witness_rows(times, mu, concs, reservoirs, good)
    for g in np.flatnonzero(good & witness.crossing_found & np.isnan(witness.t_ew)):
        errors[g] = NoConvergence(f"crossing root-find not done after "
                                  f"{MAX_EVALUATIONS} evaluations")
    return reservoirs, (p_a, p_b, mu, lhs, concs), witness, errors


def run_scenario(cfg: ScenarioConfig) -> tuple[Trajectory, WitnessReport]:
    """Evaluate the configured scenario and derive the observable columns.

    The one-row batch of :func:`sweep`: every column is one element-wise pass
    over the sampled excited populations.
    """
    times = cfg.sample_times()
    params = np.array([[cfg.lambda_a, cfg.lambda_b, cfg.delta_a, cfg.delta_b]])
    reservoirs, columns, witness, (error,) = _run_batch(params, times, [True])
    if error is not None:
        raise error
    p_a, p_b, mu, lhs, concs = (column[0] for column in columns)
    f_a, f_b = correlation_f(reservoirs, times)[:, 0]
    traj = Trajectory(times=times, p_a=p_a, p_b=p_b, mu=mu, lhs=lhs, concurrence=concs,
                      f_a=f_a, f_b=f_b)
    return traj, witness.report(0)


def _fmt(x) -> str:
    # repr of a float is the shortest string that round-trips exactly,
    # so it always carries >= 12 significant digits of information;
    # _csv_rows writes the same text for a whole table at once
    return repr(float(x))


def _csv_rows(table: np.ndarray):
    """The CSV rows of a 2-D float table, each cell ``repr`` of its float, from one orjson pass.

    orjson writes the same shortest round-trip digits as ``repr``, and in the
    same positional form for ``1e-4 <= |x| < 1e16`` and for zeros of either
    sign; outside that range it switches to exponent form at other points and
    writes NaN and infinities as ``null``, so those cells are spliced in from
    ``repr``.  The rows are yielded in pieces as they are made: slices of
    orjson's text and each spliced cell's ``repr``.  The spliced cells are
    walked ``ROWS_PER_CHUNK`` at a time, so that no more than that many
    cells' Python objects are alive at once.  orjson is imported here, not at
    module level: its import takes several milliseconds that only a series
    CSV needs to pay.
    """
    import orjson

    values = table.ravel()
    text = bytearray(orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY))
    chars = np.frombuffer(text, dtype=np.uint8)
    # cell k lies between delimiters k and k + 1: "[", the commas, "]"
    delims = np.concatenate(([0], np.flatnonzero(chars == ord(",")), [len(text) - 1]))
    chars[delims[table.shape[1]::table.shape[1]]] = ord("\n")   # each row's last comma, and "]"
    magnitude = np.abs(values)
    bad = np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1e16)) & (values != 0))   # NaN too
    del magnitude   # not held while the cells are yielded
    view, end = memoryview(text), 1
    for k in range(0, len(bad), ROWS_PER_CHUNK):
        cells = bad[k:k + ROWS_PER_CHUNK]
        for first, last, value in zip(delims[cells].tolist(), delims[cells + 1].tolist(),
                                      values[cells].tolist()):
            yield view[end:first + 1]
            yield repr(value).encode()
            end = last
    yield view[end:]


def _cell(value, none: str) -> str:
    """A report value's text: ``none`` for None or NaN, true/false for a bool, else the float."""
    if value is None or value != value:
        return none
    if isinstance(value, bool):
        return "true" if value else "false"
    return _fmt(value)


def emit_csv(traj: Trajectory, report: WitnessReport, path) -> None:
    """Write the sampled series as CSV plus a sibling ``<path>.report`` file."""
    columns = (traj.times, traj.mu, traj.lhs, traj.concurrence,
               traj.f_a.real, traj.f_a.imag, traj.f_b.real, traj.f_b.imag)
    pieces = itertools.chain.from_iterable(
        _csv_rows(np.column_stack([c[k:k + ROWS_PER_CHUNK] for c in columns]))
        for k in range(0, len(traj.times), ROWS_PER_CHUNK))
    path = str(path)
    _overwrite(path, itertools.chain([f"{CSV_HEADER}\n".encode()], pieces))
    _overwrite(path + ".report", [
        "".join(f"{key}: {_cell(getattr(report, key), 'none')}\n" for key in REPORT_KEYS).encode()])


def _overwrite(path, chunks) -> None:
    """Write the bytes-like ``chunks`` to ``path`` in turn, over an existing file in place.

    The file is then cut to the bytes written if it is longer (a pipe or device has no
    length to cut), also when a chunk or its write fails, so no old bytes are left.
    Truncating an existing file first, as ``open(path, "w")`` does, frees its blocks
    only to allocate them again, which takes about ten times as long.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        size = 0
        try:
            for chunk in chunks:
                size += fh.write(chunk)
                del chunk   # freed once written, before the next chunk is made
        finally:
            if os.fstat(fh.fileno()).st_size > size:
                fh.truncate(size)


class SweepRows(NamedTuple):
    """A sweep's rows in grid order: ``(lambda, delta)`` as given, report, and error or None."""

    points: list
    witness: WitnessColumns
    errors: list


def _axis_checks(axis, key: str, base_values: tuple):
    """Per grid value: the ``(a, b)`` floats it gives both reservoirs (``base_values`` for
    None or a rejected value), and its :func:`checked_value` error under ``key``, or None."""
    checks = []
    for value in axis:
        try:
            checks.append((base_values if value is None else (checked_value(key, value),) * 2,
                            None))
        except ValidationError as exc:
            checks.append((base_values, exc))
    return checks


def sweep(lambdas, deltas, base: ScenarioConfig) -> SweepRows:
    """Witness reports over the Cartesian grid of widths and detunings.

    Each grid value is applied to both reservoirs of ``base`` and checked once,
    as :class:`ScenarioConfig` checks ``lambda_a`` or ``delta_a`` (see :func:`_axis_checks`);
    ``None`` or an empty sequence for a whole axis keeps the base values.  A
    rejected point keeps its width's error, else its detuning's, as its run would.
    The grid points run in batches (see :func:`run_scenario`) on ``base``'s
    sample grid, each of as many rows as fit in ``BLOCK_SAMPLES`` samples, and
    at least one, which bounds a sweep's memory; a rejected value runs as
    ``base``'s, unchecked.  Rows are independent, root-find included, so the
    blocks give the rows of one batch, bit for bit: a failing point is
    recorded in its row and does not disturb the others.
    Only package errors (:class:`EntwitnessError`) mark a row as failed; any
    other exception is a programming error and propagates.  Row order
    follows the given value order (lambdas outer, deltas inner).
    """
    lam_axis = [None] if lambdas is None else list(lambdas) or [None]
    delta_axis = [None] if deltas is None else list(deltas) or [None]
    if lam_axis == [None] and delta_axis == [None]:
        raise ValidationError("sweep grid: at least one of lambdas/deltas must be non-empty")
    lam_checks = _axis_checks(lam_axis, "lambda_a", (base.lambda_a, base.lambda_b))
    delta_checks = _axis_checks(delta_axis, "delta_a", (base.delta_a, base.delta_b))
    points = list(itertools.product(lam_axis, delta_axis))
    checks = list(itertools.product(lam_checks, delta_checks))
    params = np.array([(*widths, *detunings) for (widths, _), (detunings, _) in checks])
    errors = [lam_error or delta_error for (_, lam_error), (_, delta_error) in checks]
    times = base.sample_times()
    rows_per_block = max(1, BLOCK_SAMPLES // len(times))
    good = np.array([error is None for error in errors])
    witnesses, checked = zip(*(_run_batch(params[k:k + rows_per_block], times,
                                          good[k:k + rows_per_block])[2:]
                               for k in range(0, len(params), rows_per_block)))
    # a batch does not check a config-rejected row, so no row has two errors
    errors = [config or batch for config, batch in zip(errors, itertools.chain(*checked))]
    return SweepRows(points, WitnessColumns(*map(np.concatenate, zip(*witnesses))),
                     [None if error is None else f"{type(error).__name__}: {error}"
                      for error in errors])


def _given(value) -> str:
    """A grid value or an error as given: empty for None, :func:`_fmt` of a finite real
    number, and any other text as RFC 4180 has it, quoted only if it holds a comma,
    ``"`` or a line break, with each inner double quote doubled."""
    if value is None:
        return ""
    if is_number(value):
        return _fmt(value)
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if re.search('[",\r\n]', text) else text


def write_sweep_csv(rows: SweepRows, path) -> None:
    """Write sweep rows as CSV, a line per row: its grid values and error by :func:`_given`,
    its witness report by :func:`_cell`, with every report cell of a failed row empty."""
    lines = [",".join(("lambda", "delta", *SWEEP_KEYS, "error"))]
    columns = [getattr(rows.witness, key).tolist() for key in SWEEP_KEYS]
    for (lam, delta), error, *values in zip(rows.points, rows.errors, *columns):
        cells = [""] * len(values) if error else [_cell(value, "") for value in values]
        lines.append(",".join((_given(lam), _given(delta), *cells, _given(error))))
    _overwrite(path, ["\n".join(lines).encode() + b"\n"])
