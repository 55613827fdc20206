"""The element-wise modules hold math only; the batch runner checks the rows.

:func:`entwitness.scenario._run_batch` is the one place that sets a row's
error, and it returns the errors rather than filling a list it is given.
These checks read the package's source and fail if a row check creeps back
into ``dynamics`` or ``witness``, or if any function takes an error list to
fill.  The tests keep their first names, from when they read only the three
physics modules.

:class:`entwitness.dynamics.ReservoirParams` is the input of the ``f(t)``
quadrature alone; the closed form takes ``ReservoirColumns``.  A check reads
where the package names it.  Another keeps the construction of
``ReservoirColumns`` in ``dynamics``, so that ``ReservoirColumns.of`` alone
decides whether both atoms share one row.
"""

import ast
import re
from pathlib import Path

import pytest

import entwitness

PACKAGE = Path(entwitness.__file__).parent
ALL_MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
ELEMENTWISE_MODULES = ("dynamics", "witness")
ROW_CHECK_NAMES = {"flag_rows", "NotDensityMatrix", "NoConvergence"}


def _tree(module):
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("module", ELEMENTWISE_MODULES)
def test_physics_module_uses_no_row_check(module):
    used = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            used.add(node.name)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert not used & ROW_CHECK_NAMES


@pytest.mark.parametrize("module", ALL_MODULES)
def test_physics_module_takes_no_error_list(module):
    for node in ast.walk(_tree(module)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                         *filter(None, (a.vararg, a.kwarg)))]
            assert "errors" not in names, getattr(node, "name", "lambda")


def _names(node, name):
    """Whether ``node`` names ``name``: as a name, an attribute, an import or a word of a string."""
    return any(isinstance(sub, ast.Name) and sub.id == name
               or isinstance(sub, ast.Attribute) and sub.attr == name
               or isinstance(sub, ast.alias) and name in (sub.name, sub.asname)
               or isinstance(sub, ast.Constant) and isinstance(sub.value, str)
               and re.search(rf"\b{name}\b", sub.value)
               for sub in ast.walk(node))


def _label(node):
    if isinstance(node, ast.ImportFrom):
        return f"from .{node.module}"
    if isinstance(node, ast.Assign):
        return node.targets[0].id
    return getattr(node, "name", type(node).__name__)


def test_reservoir_params_serves_only_the_quadrature():
    # named only by its class, by correlation_f_quadrature and by the export:
    # no docstring or signature of the closed form, and no property of f's
    named = {(module, _label(node)) for module in ALL_MODULES for node in _tree(module).body
             if _names(node, "ReservoirParams")}
    assert named <= {("dynamics", "ReservoirParams"), ("dynamics", "correlation_f_quadrature"),
                     ("__init__", "from .dynamics"), ("__init__", "__all__")}, named
    params = next(node for node in _tree("dynamics").body
                  if isinstance(node, ast.ClassDef) and node.name == "ReservoirParams")
    defined = {node.name if isinstance(node, ast.FunctionDef) else node.target.id
               for node in params.body if isinstance(node, (ast.FunctionDef, ast.AnnAssign))}
    assert not defined & {"scale", "z"}, defined


def test_only_dynamics_builds_reservoir_columns():
    # any other module takes its columns from ReservoirColumns.of or take, so
    # the equal-atoms decision is made in one place
    built = [(module, node.lineno) for module in ALL_MODULES if module != "dynamics"
             for node in ast.walk(_tree(module))
             if isinstance(node, ast.Call) and (
                 isinstance(node.func, ast.Name) and node.func.id == "ReservoirColumns"
                 or isinstance(node.func, ast.Attribute) and node.func.attr == "ReservoirColumns")]
    assert not built, built
