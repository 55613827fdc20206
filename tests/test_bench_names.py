"""The names the benchmark reads off the package, and the commands it runs, still work.

``bench/`` drives the program through its public modules and its command
line, so deleting or renaming a name it reads stops every benchmark run.
These checks read the benchmark's sources with ``ast`` and resolve each such
attribute on the package as it is now, and parse each command form of the
``cli_short`` workload with the package's own parser.  ``bench/tracer.py``
names its traced sites in strings, not attributes, and is not read here.
"""

import ast
import importlib
from pathlib import Path

import pytest

from entwitness import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
SOURCES = ("workloads.py", "run.py", "cli_traced.py")
MODULES = ("entwitness", "entwitness.scenario", "entwitness.dynamics", "entwitness.cli")


def _package_references(tree):
    """``(module, dotted attribute)`` for every attribute chain read off a package module.

    A local name is a package module where an import binds it to one of
    ``MODULES``; ``from entwitness import X`` reads ``X`` off ``entwitness``.
    """
    bound, references = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):   # "import a.b" binds "a", "import a.b as c" binds c
            for alias in node.names:
                if alias.name in MODULES:
                    top = alias.name.partition(".")[0]
                    bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and node.module in MODULES:
            for alias in node.names:
                if f"{node.module}.{alias.name}" in MODULES:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                else:
                    references.append((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in bound:
                references.append((bound[node.id], ".".join(reversed(chain))))
    return references


@pytest.mark.parametrize("source", SOURCES)
def test_every_package_attribute_the_benchmark_reads_resolves(source):
    path = BENCH / source
    references = _package_references(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert references, f"{source} reads nothing off the package"
    for module, dotted in references:
        value = importlib.import_module(module)
        for attr in dotted.split("."):
            assert hasattr(value, attr), f"{source}: {module}.{dotted} does not resolve"
            value = getattr(value, attr)


@pytest.mark.parametrize("seed", range(1, 6))
def test_cli_short_commands_parse(seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workload = importlib.import_module("workloads").CliShort(seed, tmp_path)
    parser = cli._build_parser()
    assert [args[0] for args in workload.commands] == ["preset", "run", "sweep"]
    for args in workload.commands:
        parsed = parser.parse_args(args)
        assert parsed.command == args[0]
        if parsed.command != "preset":
            cli._load_config(parsed.config)   # the config file the workload wrote
