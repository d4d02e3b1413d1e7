"""Every public function and method of the package has a reader outside
the unit tests.

The modules under src/bitesim/ are parsed, never run. Each public
module-level function and each public method of a public class must be
read in the package itself, read by a benchmark script under perfbench/
(an import, an attribute, or a name its tracer wraps), or read by
tests/test_acceptance.py; simulate_tick, the reference the kernel tests
hold the tick kernel to, is named here. A class method or static method
counts as read where it is reached through its class (``Class.name``,
or ``cls.name`` inside it); any other method or property, whose object
a parse cannot tell, where an attribute of its name is read.
"""

import ast
from pathlib import Path

import bitesim

PACKAGE = Path(bitesim.__file__).resolve().parent
ROOT = PACKAGE.parent.parent
REFERENCE = {"simulate_tick"}


def trees(paths) -> list[ast.Module]:
    return [ast.parse(Path(p).read_text(encoding="utf-8")) for p in paths]


def public_names(modules: dict[str, ast.Module]) -> list[tuple[str, str | None, str, bool]]:
    """(module, class or None, name, reached through the class) for each
    public module-level function and public method of a public class."""
    found = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found.append((module, None, node.name, False))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        on_class = any(isinstance(d, ast.Name)
                                       and d.id in ("classmethod", "staticmethod")
                                       for d in item.decorator_list)
                        found.append((module, node.name, item.name, on_class))
    return found


def reads(forest) -> tuple[set[str], set[tuple[str, str]]]:
    """The names and attribute names read, and each (name, attribute)
    pair read as ``name.attribute``; an import counts as a read."""
    names, pairs = set(), set()
    for tree in forest:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if isinstance(node.value, ast.Name):
                    pairs.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and all(
                    part.isidentifier() for part in node.value.split(".")):
                # a name as the tracer lists those it wraps: "name" or "Class.name"
                parts = node.value.split(".")
                names.add(parts[-1])
                if len(parts) == 2:
                    pairs.add((parts[0], parts[1]))
    return names, pairs


def unread(modules: dict[str, ast.Module], readers) -> list[str]:
    """The public functions and methods of modules that no reader reads."""
    own_names, own_pairs = reads(modules.values())
    # a module's import of a name reads it, as does a call from another module
    names, pairs = reads(readers)
    names |= own_names | REFERENCE
    pairs |= own_pairs
    missing = []
    for module, cls, name, on_class in public_names(modules):
        if cls is not None and on_class:
            ok = (cls, name) in pairs or ("cls", name) in pairs
        else:
            ok = name in names
        if not ok:
            missing.append(f"{module}.{cls + '.' if cls else ''}{name}")
    return missing


def package_modules() -> dict[str, ast.Module]:
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    return dict(zip((p.stem for p in paths), trees(paths)))


def readers() -> list[ast.Module]:
    return trees([*sorted((ROOT / "perfbench").glob("*.py")),
                  ROOT / "tests" / "test_acceptance.py"])


def test_every_public_name_has_a_reader_outside_the_unit_tests():
    modules = package_modules()
    # the package defines over a hundred; a short list means the parse missed them
    assert len(public_names(modules)) >= 100
    assert unread(modules, readers()) == []


def test_a_name_only_the_unit_tests_read_is_found():
    source = '''
def quat_distance(a, b):
    return 0.0


def used():
    return Gains.default()


class Gains:
    @classmethod
    def default(cls):
        return cls()

    @classmethod
    def zero(cls):
        return cls()

    def update(self):
        pass
'''
    modules = {"geometry": ast.parse(source)}
    # zero is reached through another class only, update as an attribute
    reader = ast.parse("used()\nWrench.zero()\nlatch.update(w)\n")
    assert unread(modules, [reader]) == ["geometry.quat_distance", "geometry.Gains.zero"]
