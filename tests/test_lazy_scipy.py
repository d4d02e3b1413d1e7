"""No module of the package imports scipy at module level.

scipy is imported inside the functions that need it, so that importing
bitesim, or running a trial, loads none of it. The modules under
src/bitesim/ are parsed, never run: an ``import`` or ``from ... import``
of scipy outside a function body fails here, also inside a module-level
``if``, ``try`` or class body, which run on import.
"""

import ast
from pathlib import Path

import pytest

import bitesim

MODULES = sorted(Path(bitesim.__file__).resolve().parent.glob("*.py"))


def module_level_scipy_imports(source: str) -> list[int]:
    """The lines of the scipy imports that run when source is imported."""
    lines = []
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else []
        else:
            todo.extend(ast.iter_child_nodes(node))
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    assert module_level_scipy_imports(path.read_text(encoding="utf-8")) == []


def test_a_module_level_scipy_import_is_found():
    source = ("import numpy as np\n"
              "import scipy.special\n"
              "from scipy import stats\n"
              "try:\n    import scipy as sp\nexcept ImportError:\n    pass\n"
              "class A:\n    from scipy.special import ndtr\n"
              "def f():\n    from scipy import stats\n    return stats\n"
              "from .scipy_like import x\n"
              "import scipyx\n")
    assert module_level_scipy_imports(source) == [2, 3, 5, 9]
