"""The package's third-party imports are exactly the dependencies that pyproject.toml declares.

The package's source is read with ``ast``, so an import inside a function (PyYAML's
and orjson's are) counts as much as one at the top of a module.
"""

import ast
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

import entwitness

tomllib = pytest.importorskip("tomllib")   # in the standard library from Python 3.11

PACKAGE = Path(entwitness.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _normalized(name: str) -> str:
    """A distribution name as PEP 503 compares it: ``PyYAML`` and ``pyyaml`` are one."""
    return re.sub(r"[-_.]+", "-", name).lower()


def _declared() -> set:
    requirements = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    return {_normalized(re.match(r"[A-Za-z0-9._-]+", requirement)[0])
            for requirement in requirements}


def _imported() -> dict:
    """Each third-party top-level module the package imports, and its distribution's name."""
    modules = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.partition(".")[0])
    distributions = packages_distributions()
    # a module no installed distribution provides keeps its own name
    return {module: _normalized(distributions.get(module, [module])[0])
            for module in modules - set(sys.stdlib_module_names) - {PACKAGE.name}}


def test_every_third_party_import_is_declared():
    undeclared = {module: dist for module, dist in _imported().items() if dist not in _declared()}
    assert not undeclared


def test_every_declared_dependency_is_imported():
    assert not _declared() - set(_imported().values())
