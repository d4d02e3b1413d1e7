"""Every module-level import of the package is used in its module.

The modules under src/bitesim/ (not __init__.py, which imports to
re-export) are parsed, never run: each name a module-level ``import`` or
``from ... import`` binds must be read somewhere in that module. A
refactor that leaves an import behind fails here.
"""

import ast
from pathlib import Path

import pytest

import bitesim

MODULES = sorted(p for p in Path(bitesim.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that module-level imports of source bind and no code reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.extend((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import json\nimport numpy as np\nfrom math import inf, pi\nx = np.zeros(pi)\n"
    assert unused_imports(source) == ["json", "inf"]
