"""Every name a tonalg module imports is used in that module, and every
public name it defines is read by the library or a demo."""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tonalg"
DEMOS = ROOT / "demos"


def unused_imports(source):
    """The names bound by import statements anywhere in `source` that no
    other expression of it mentions."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_module_imports_are_used(path):
    assert unused_imports((SRC / path).read_text()) == []


def test_unused_import_is_reported():
    # negative control: the checker sees a dead name, and a used one is not
    src = "from .algebra import Element, enumerate_basis\nimport os.path\n\nx = enumerate_basis\n"
    assert unused_imports(src) == [(1, "Element"), (2, "os")]


def references(tree):
    """How often `tree` mentions each identifier: as a Name, as the
    attribute of an Attribute, or as the name of an import alias."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name] += 1
    return refs


def unread_definitions(modules, readers=()):
    """(module, name) for each module-level public def or class in the
    sources `modules` ({module: text}) that no code outside its own
    definition mentions, in `modules` or in the `readers` texts."""
    trees = {module: ast.parse(text) for module, text in modules.items()}
    refs = Counter()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        refs.update(references(tree))
    return sorted(
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and refs[node.name] == references(node)[node.name]
    )


def test_public_names_have_readers():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    demos = [p.read_text() for p in sorted(DEMOS.glob("*.py"))]
    assert unread_definitions(modules, demos) == []


def test_unread_definition_is_reported():
    # negative control: a def named only by itself, in its own body, is
    # reported; one a reader imports, a private one and a method are not
    src = (
        "def used():\n    pass\n\n"
        "def dead():\n    return dead()\n\n"
        "def _private():\n    pass\n\n"
        "class Box:\n    def size(self):\n        pass\n"
    )
    reader = "from tonalg.x import Box, used\n\nused()\n"
    assert unread_definitions({"x.py": src}, [reader]) == [("x.py", "dead")]
