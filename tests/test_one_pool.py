"""The package forks worker processes in one place: harness._pooled.

The modules under src/bitesim/ are parsed, never run. Every import,
name or attribute that mentions multiprocessing or ProcessPoolExecutor
must lie inside the function harness._pooled, so that a later fan-out
reuses that pool instead of adding one of its own.
"""

import ast
from pathlib import Path

import bitesim

PACKAGE = Path(bitesim.__file__).resolve().parent
POOL_NAMES = {"multiprocessing", "ProcessPoolExecutor"}


def _mentioned(node: ast.AST) -> set[str]:
    """The dotted parts of the names an import, name or attribute node mentions."""
    if isinstance(node, ast.Name):
        names = [node.id]
    elif isinstance(node, ast.Attribute):
        names = [node.attr]
    elif isinstance(node, ast.alias):
        names = [node.name, node.asname or ""]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return set()
    return {part for name in names for part in name.split(".")}


def pool_uses(source: str) -> list[tuple[str, int]]:
    """(top-level function or class, line) of each mention of a pool name
    in source, in order; '' for one at module level."""
    uses = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else ""
        uses += sorted((owner, node.lineno) for node in ast.walk(top)
                       if _mentioned(node) & POOL_NAMES)
    return uses


def test_pools_only_in_harness_pooled():
    owners = {(path.relative_to(PACKAGE).as_posix(), owner) for path in PACKAGE.rglob("*.py")
              for owner, _ in pool_uses(path.read_text(encoding="utf-8"))}
    assert owners == {("harness.py", "_pooled")}


def test_a_second_pool_is_found():
    source = ("import multiprocessing as mp\n"
              "def _pooled(fn, tasks):\n"
              "    from concurrent.futures import ProcessPoolExecutor\n"
              "def fan_out(fn):\n"
              "    return mp.get_context('fork'), futures.ProcessPoolExecutor\n"
              "class Study:\n"
              "    def run(self):\n"
              "        from multiprocessing.pool import Pool\n")
    assert pool_uses(source) == [("", 1), ("_pooled", 3), ("fan_out", 5), ("Study", 8)]
