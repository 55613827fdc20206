"""The written outputs, byte for byte, against the digests in ``golden.json``.

The digests cover each preset's CSV and ``.report``, two runs with a 0.0 and
a -0.0 detuning, the sweep CSVs of fixed grids (equal and unequal bases, a
-0.0 detuning, rejected values and failed rows), and a CLI sweep's stderr and
exit code.  Their bits come from numpy's SIMD ``exp``, ``expm1`` and
``log2``, so they hold for the numpy version and CPU dispatch recorded with
them.  There the sha256 of every file must match.  Elsewhere each file's
line count and its recorded lines are compared, numbers within
``rel_tol`` / ``abs_tol`` and any other cell as text; the test prints which
comparison ran.

A change that is meant to change bytes rewrites the digests in the same
commit, from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from entwitness import ScenarioConfig, cli, run_scenario, sweep
from entwitness.scenario import PRESETS, emit_csv, write_sweep_csv

GOLDEN = Path(__file__).with_name("golden.json")
REL_TOL, ABS_TOL = 1e-9, 1e-12
# lines kept per file for the parsed comparison, besides its last line
KEPT_LINES = 8

_EQUAL = ScenarioConfig(lambda_a=0.1, lambda_b=0.1, t_max=10.0, sample_every=5)
_SIGNED_ZERO = dict(lambda_a=0.1, lambda_b=0.1, delta_a=0.0, delta_b=-0.0)
RUNS = {**PRESETS,
        "delta_b_negative_zero": ScenarioConfig(**_SIGNED_ZERO, t_max=12.0),
        "delta_a_negative_zero": ScenarioConfig(**{**_SIGNED_ZERO, "delta_a": -0.0,
                                                   "delta_b": 0.0}, t_max=12.0)}
# (lambdas, deltas, base): a value is applied to both reservoirs, so a base's
# unequal reservoirs show only on the axis that is left out
SWEEPS = {
    "equal_base": ([0.05, 0.1, 0.5, 2.0, 5.0], [0.0, 0.8, 1.6, 3.0], _EQUAL),
    "unequal_widths": (None, [0.0, 1.0, 2.0],
                       ScenarioConfig(lambda_a=0.1, lambda_b=5.0, t_max=3.0, sample_every=2)),
    "unequal_detunings": ([0.05, 0.1, 5.0], None,
                          ScenarioConfig(lambda_a=0.1, lambda_b=0.1, delta_a=2.0, t_max=10.0,
                                         sample_every=5)),
    "signed_zero_axis": ([0.1, 1.0], [0.0, -0.0, 1.6], _EQUAL),
    "signed_zero_base": ([0.1, 1.0], None,
                         ScenarioConfig(**_SIGNED_ZERO, t_max=10.0, sample_every=5)),
    "rejected": ([0.5, -1.0, float("nan"), 2.0], [0.0, "abc", 1.0, float("inf"), None], _EQUAL),
}
CLI_SWEEP = ["--lambda", "0.1", "-1", "--delta", "0", "inf", "1.6"]


def platform() -> dict:
    """The numpy version and the CPU features numpy dispatches to on this machine."""
    try:
        from numpy._core import _multiarray_umath as umath
        dispatch = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    except (ImportError, AttributeError):   # numpy < 2, or another layout: never equal
        dispatch = None
    return {"numpy": np.__version__, "cpu_dispatch": dispatch}


def outputs(tmp: Path):
    """``(name, bytes)`` of every output the digests cover, written into ``tmp``."""
    for name, cfg in RUNS.items():
        out = tmp / f"{name}.csv"
        emit_csv(*run_scenario(cfg), out)
        yield out.name, out.read_bytes()
        yield out.name + ".report", Path(f"{out}.report").read_bytes()
    for name, (lambdas, deltas, base) in SWEEPS.items():
        out = tmp / f"sweep_{name}.csv"
        write_sweep_csv(sweep(lambdas, deltas, base), out)
        yield out.name, out.read_bytes()
    config, out, stderr = tmp / "base.yaml", tmp / "cli_sweep.csv", io.StringIO()
    config.write_text("lambda_a: 0.1\nlambda_b: 0.1\nt_max: 10.0\nsample_every: 5\n")
    with contextlib.redirect_stderr(stderr):
        code = cli.main(["sweep", "--config", str(config), "--out", str(out), *CLI_SWEEP])
    yield out.name, out.read_bytes()
    yield "cli_sweep.stderr", f"exit code {code}\n{stderr.getvalue()}".encode()


def _kept_lines(text: str) -> dict:
    lines = text.splitlines()
    step = max(1, len(lines) // KEPT_LINES)
    return {k: lines[k] for k in sorted({*range(0, len(lines), step), len(lines) - 1})}


def _close(cell: str, golden: str) -> bool:
    try:
        value, expected = float(cell), float(golden)
    except ValueError:
        return cell == golden
    return (math.isnan(value) and math.isnan(expected)) or math.isclose(
        value, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _same_numbers(text: str, golden: dict) -> bool:
    lines = text.splitlines()
    if len(lines) != golden["lines"]:
        return False
    for k, line in golden["kept"].items():
        cells, expected = (row.replace(":", ",").split(",") for row in (lines[int(k)], line))
        if len(cells) != len(expected) or not all(map(_close, cells, expected)):
            return False
    return True


def test_outputs_match_the_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        written = dict(outputs(Path(tmp)))
    assert sorted(written) == sorted(golden["files"])
    if platform() == golden["platform"]:
        print(f"golden: sha256 of {len(written)} files")
        assert {name: hashlib.sha256(data).hexdigest() for name, data in written.items()} == {
            name: entry["sha256"] for name, entry in golden["files"].items()}
    else:
        print(f"golden: {platform()} is not {golden['platform']}, so the parsed numbers of "
              f"{len(written)} files are compared within rel_tol {REL_TOL}, abs_tol {ABS_TOL}")
        assert [name for name, data in written.items()
                if not _same_numbers(data.decode(), golden["files"][name])] == []


def main():
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: {"sha256": hashlib.sha256(data).hexdigest(),
                        "lines": len(data.decode().splitlines()),
                        "kept": _kept_lines(data.decode())}
                 for name, data in outputs(Path(tmp))}
    GOLDEN.write_text(json.dumps({"platform": platform(), "files": files}, indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(files)} digests to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
