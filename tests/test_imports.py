"""Every name a tonalg module imports is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "tonalg"


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
