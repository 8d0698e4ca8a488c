"""`src/morseflow` keeps nothing that only tests read.

Every function, class and method defined in the package must meet one of
these conditions:
- its name is read in the package's source beyond its own definition;
- it is exported from the package root;
- it is a dunder;
- it overrides a method of a base class from outside the package, as the
  command line's parser overrides `argparse.ArgumentParser.error`.

A name counts as read wherever it appears as a name or as an attribute, so a
definition that shares its name with something read passes; the check can
miss an unused definition but never flags a used one.
"""
import ast
import importlib
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "morseflow"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def reads(tree) -> Counter:
    """How often each name is read under tree, as a name or an attribute."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def definitions(tree, owner=None):
    """(definition, the class that holds it as a method or None), nested ones
    included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, DEFINITIONS):
            yield node, owner
        yield from definitions(node, node if isinstance(node, ast.ClassDef) else None)


def exported(src: Path) -> set[str]:
    tree = ast.parse((src / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def overrides_a_foreign_base(module: str, owner: ast.ClassDef, name: str) -> bool:
    cls = getattr(importlib.import_module(f"morseflow.{module}"), owner.name, None)
    return cls is not None and any(
        hasattr(base, name) for base in cls.__mro__[1:]
        if not base.__module__.startswith("morseflow"))


def unread_definitions(src: Path = SRC) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    total = sum((reads(tree) for tree in trees.values()), Counter())
    public = exported(src)
    out = []
    for module, tree in trees.items():
        for node, owner in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in public:
                continue
            if total[name] > reads(node)[name]:
                continue
            if owner is not None and overrides_a_foreign_base(module, owner, name):
                continue
            out.append(f"{module}.{owner.name + '.' if owner else ''}{name}")
    return out


def test_src_keeps_nothing_that_only_tests_read():
    assert unread_definitions() == []


def test_the_check_sees_an_unread_method(tmp_path):
    # a copy of the package with a class and a method that nothing reads
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    geometry = tmp_path / "geometry.py"
    geometry.write_text(geometry.read_text() + (
        "\n\nclass Unread:\n    def scaled(self):\n        return 2.0\n"))
    assert unread_definitions(tmp_path) == ["geometry.Unread", "geometry.Unread.scaled"]
