"""Command-line front end: run scenarios, reproduce preset panels, sweep grids.

Exit codes: 0 success; 2 configuration/validation error, or a sweep in which
every grid point failed; 3 numerical failure (any other package error, such as
a state that is no longer a density matrix); 1 I/O error.  Diagnostics go to
standard error.
"""

import argparse
import dataclasses
import sys

from .errors import EntwitnessError, ParseError, ValidationError
from .scenario import PRESETS, emit_csv, parse_config, run_scenario, sweep, write_sweep_csv


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, metavar="CSV",
                        help="output CSV path (a sibling <CSV>.report is written too)")
    common.add_argument("--dt", type=float, default=None,
                        help="override dt, the base spacing of the time grid, which is "
                             "sampled every sample_every-th point; t_max must be a whole "
                             "number of dt * sample_every (units of 1/gamma0)")
    common.add_argument("--tmax", type=float, default=None,
                        help="override the final time (units of 1/gamma0)")

    parser = argparse.ArgumentParser(
        prog="entwitness",
        description="Two dissipative qubits in Lorentzian reservoirs: minimum "
                    "uncertainty, concurrence, and entanglement-witness reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common],
                           help="run a scenario described by a YAML config file")
    p_run.add_argument("--config", required=True, metavar="FILE",
                       help="flat YAML config (keys: lambda_a, lambda_b, t_max, ...)")

    p_preset = sub.add_parser("preset", parents=[common],
                              help="run one of the built-in named presets")
    p_preset.add_argument("preset_id", choices=sorted(PRESETS), metavar="PRESET",
                          help="preset id, one of: " + ", ".join(sorted(PRESETS)))

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="sweep widths/detunings over a base config")
    p_sweep.add_argument("--config", required=True, metavar="FILE",
                         help="base YAML config for the sweep")
    p_sweep.add_argument("--lambda", dest="lambdas", type=float, nargs="+", action="extend",
                         metavar="L", help="spectral widths applied to both reservoirs; repeatable")
    p_sweep.add_argument("--delta", dest="deltas", type=float, nargs="+", action="extend",
                         metavar="D", help="detunings applied to both reservoirs; repeatable")
    return parser


def _load_config(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse_config(text)


def _apply_overrides(cfg, args):
    overrides = {}
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.tmax is not None:
        overrides["t_max"] = args.tmax
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = PRESETS[args.preset_id] if args.command == "preset" else _load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        if args.command != "sweep":
            emit_csv(*run_scenario(cfg), args.out)
        else:
            rows = sweep(args.lambdas, args.deltas, cfg)
            write_sweep_csv(rows, args.out)
            for (lam, delta), error in zip(rows.points, rows.errors):
                if error is not None:
                    print(f"sweep row (lambda={lam}, delta={delta}) failed: {error}",
                          file=sys.stderr)
            if None not in rows.errors:
                print("error: every sweep row failed", file=sys.stderr)
                return 2
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EntwitnessError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0
