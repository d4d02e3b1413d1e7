"""Every local a function of the package assigns is read in that function.

The modules under src/bitesim/ are parsed, never run. For each function
(nested ones too), every name it binds by assignment, augmented
assignment, a for target, a with target, an except name or a walrus must
be read somewhere in the function, its nested functions included, since
a closure reads its outer function's locals. Tuple unpacking gets no
exemption: a name unpacked and never read is dead state like any other.
Names the function declares global or nonlocal belong to another scope,
and ``_`` is the name for a value thrown away. A refactor that leaves
state behind, written but never read, fails here.
"""

import ast
from pathlib import Path

import pytest

import bitesim

MODULES = sorted(Path(bitesim.__file__).resolve().parent.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
SCOPES = (*FUNCTIONS, ast.ClassDef)


def own_nodes(node):
    """The nodes of node's body in source order, not those of a nested
    function or class, which bind names in scopes of their own."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, SCOPES):
            yield from own_nodes(child)


def dead_locals(source: str) -> list[str]:
    """'function.name' for each local that a function of source assigns
    and never reads, in the order it first assigns them."""
    dead = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, FUNCTIONS):
            continue
        outer = set()
        assigned = {}
        for node in own_nodes(function):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assigned.setdefault(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                assigned.setdefault(node.name)
        read = {node.id for node in ast.walk(function)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        name = getattr(function, "name", "<lambda>")
        dead.extend(f"{name}.{local}" for local in assigned
                    if local not in read and local not in outer and local != "_")
    return dead


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_assigned_local_is_read(path):
    assert dead_locals(path.read_text(encoding="utf-8")) == []


def test_a_dead_local_is_found():
    source = '''
def f(xs):
    total, count = 0, 0
    for x in xs:
        total += x
    seen = [y for y in xs]
    def g():
        nonlocal count
        count = 1
        spare = 2
        return seen
    try:
        pass
    except ValueError as err:
        pass
    for _ in xs:
        pass
    return g() and (last := xs[-1])
'''
    # count is assigned in f and, as nonlocal, in g, and read in neither
    assert dead_locals(source) == ["f.total", "f.count", "f.err", "f.last", "g.spare"]
