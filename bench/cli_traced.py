"""Run the ``entwitness`` command line with the benchmark's timing wrappers.

Usage (with ``src`` and ``bench`` on ``PYTHONPATH``)::

    python bench/cli_traced.py TOTALS.json preset fig1b_l5 --out run.csv

Writes the folded per-layer totals to ``TOTALS.json`` and exits with the
command's exit code.
"""

import json
import sys

import tracer


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    t.install()
    from entwitness import cli
    code = t.call("cli.main", cli.main, argv)
    t.remove()
    t.fold()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(t.totals(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
