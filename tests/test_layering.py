"""The physics modules hold element-wise math only; the batch runner checks the rows.

:func:`entwitness.scenario._run_batch` is the one place that sets a row's
error.  These checks read the source of ``dynamics``, ``information`` and
``witness`` and fail if a row check or an error list creeps back into them.
"""

import ast
from pathlib import Path

import pytest

import entwitness

PHYSICS_MODULES = ("dynamics", "information", "witness")
ROW_CHECK_NAMES = {"flag_rows", "NotDensityMatrix", "NoConvergence"}


def _tree(module):
    path = Path(entwitness.__file__).with_name(f"{module}.py")
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("module", PHYSICS_MODULES)
def test_physics_module_uses_no_row_check(module):
    used = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert not used & ROW_CHECK_NAMES


@pytest.mark.parametrize("module", PHYSICS_MODULES)
def test_physics_module_takes_no_error_list(module):
    for node in ast.walk(_tree(module)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                         *filter(None, (a.vararg, a.kwarg)))]
            assert "errors" not in names, getattr(node, "name", "lambda")
