#!/usr/bin/env python3
"""Benchmark of the entwitness witness pipeline.

Run from the repository root::

    python3 bench/run.py --workload panel_long --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of this checkout.  Every metric is
printed by name with its unit on standard error, and the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from a separately traced run.  A fuller
record with provenance goes to ``bench/results/``.  See ``bench/README.md``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("panel_long", "param_sweep", "cli_short", "quadrature_check")

# One set-up: a fresh interpreter imports the package, then builds the inputs.
SETUP_PROBE = ("import sys; import entwitness; import workloads; "
               "workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])")


def parse_importtime(text):
    """``(package total, outermost scipy imports)`` in seconds from ``-X importtime``."""
    total = scipy = 0
    ancestors = []
    # The log lists each module after its children; reversed, parents come first.
    for line in reversed(text.splitlines()):
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        depth = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
        name = parts[2].strip()
        del ancestors[depth:]
        if name == "entwitness":
            total = int(parts[1])
        if name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for a in ancestors):
            scipy += int(parts[1])
        ancestors.append(name)
    return total / 1e6, scipy / 1e6


def measure_setup(workload, seed, workdir, importtime):
    """Wall times of ``SETUP_REPEATS`` set-ups, each from spawn to exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(BENCH)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", SETUP_PROBE, workload, str(seed), str(workdir)]
    times, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed:\n{proc.stderr}")
        if importtime:
            imports.append(parse_importtime(proc.stderr))
    return times, imports


def provenance():
    import numpy
    import scipy
    import yaml
    import entwitness
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "pyyaml": yaml.__version__, "entwitness": entwitness.__version__,
            "platform": platform.platform(),
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def measure(args, workdir):
    import entwitness
    import tracer
    import workloads

    traced_run = bool(args.trace)
    setup_times, imports = measure_setup(args.workload, args.seed, workdir / "setup",
                                         importtime=traced_run)
    w = workloads.WORKLOADS[args.workload](args.seed, workdir)
    w.prepare()
    w.warm_up()

    # Untraced rounds only, or untraced and traced rounds alternating.
    t = tracer.Tracer() if traced_run else None
    plain, traced = [], []
    attempted = failed = 0
    problems = []
    while (sum(plain) + sum(traced) < args.seconds or not plain
           or (traced_run and not traced)):
        use = t if traced_run and len(traced) < len(plain) else None
        start = time.perf_counter()
        try:
            w.round(use)
            error = None
        except entwitness.EntwitnessError as exc:
            error = exc
        elapsed = time.perf_counter() - start
        if use is None:
            plain.append(elapsed)
        else:
            traced.append(elapsed)
            use.fold()
        attempted += w.attempts
        if error is None:
            round_failed, round_problems = w.check()
        else:
            print(f"round failed: {type(error).__name__}: {error}", file=sys.stderr)
            round_failed, round_problems = w.attempts, []
        failed += round_failed
        problems += round_problems

    median = statistics.median
    if traced_run:
        metrics = t.metrics(len(traced))
        metrics["import.total_s"] = (median(i[0] for i in imports), "s")
        metrics["import.scipy_s"] = (median(i[1] for i in imports), "s")
        metrics["trace.overhead_pct"] = ((median(traced) / median(plain) - 1.0) * 100.0, "%")
    else:
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "latency_s": (median(r / w.ops for r in plain), "s"),
            "items_per_s": (median(w.items / r for r in plain), "1/s"),
            "peak_rss_mb": (w.peak_rss_mb(), "MB"),
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(), "inputs": w.describe(),
              "setup_s": setup_times, "rounds_s": plain, "traced_rounds_s": traced,
              "problems": problems[:50], **result}
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    if not (SRC / "entwitness" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'entwitness'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import entwitness
    if SRC.resolve() not in Path(entwitness.__file__).resolve().parents:
        print(f"error: entwitness imported from {entwitness.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workdir = BENCH / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, record = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in record["problems"]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
