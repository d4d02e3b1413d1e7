"""Every bitesim name that the benchmark scripts import still exists.

The scripts under perfbench/ are parsed, never run: each
``from bitesim... import name`` must resolve to an attribute or a
submodule, and each ``import bitesim...`` to a module. A deletion that
would crash a benchmark run fails here instead.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def bitesim_imports():
    """(script, module, name) for each bitesim import; name is None for
    a plain ``import module``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "bitesim":
                    found.extend((path.name, node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                found.extend((path.name, a.name, None) for a in node.names
                             if a.name.split(".")[0] == "bitesim")
    return found


def resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            return True
        importlib.import_module(f"{module}.{name}")
        return True
    except ImportError:
        return False


def test_every_bitesim_import_of_the_benchmark_resolves():
    imports = bitesim_imports()
    # the scripts import dozens of names; an empty list means the parse missed them
    assert len(imports) >= 40, imports
    missing = [f"{script}: from {module} import {name}" if name else f"{script}: import {module}"
               for script, module, name in imports if not resolves(module, name)]
    assert not missing, missing
