"""No module of the package imports scipy.

Importing bitesim, running a trial or running a wrist study loads none
of it: the study's normal tail is comfort._ndtr, and scipy is only the
tests' oracle. The modules under src/bitesim/ are parsed, never run: an
``import`` or ``from ... import`` of scipy anywhere fails here, function
bodies included.
"""

import ast
from pathlib import Path

import pytest

import bitesim

MODULES = sorted(Path(bitesim.__file__).resolve().parent.glob("*.py"))


def scipy_imports(source: str) -> list[int]:
    """The lines of the scipy imports in source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else []
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def test_a_module_level_scipy_import_is_found():
    source = ("import numpy as np\n"
              "import scipy.special\n"
              "from scipy import stats\n"
              "try:\n    import scipy as sp\nexcept ImportError:\n    pass\n"
              "class A:\n    from scipy.special import ndtr\n"
              "def f():\n    from scipy import stats\n    return stats\n"
              "from .scipy_like import x\n"
              "import scipyx\n")
    assert scipy_imports(source) == [2, 3, 5, 9, 11]
