"""Every name a tonalg module, test or demo imports is used in that file, and
every public name the library defines is read by the library or a demo."""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tonalg"
DEMOS = ROOT / "demos"
TESTS = ROOT / "tests"


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


@pytest.mark.parametrize(
    "path", sorted(str(p.relative_to(ROOT)) for d in (TESTS, DEMOS) for p in d.glob("*.py"))
)
def test_test_and_demo_imports_are_used(path):
    assert unused_imports((ROOT / path).read_text()) == []


def test_unused_import_is_reported():
    # negative control: the checker sees a dead name, and a used one is not
    src = "from .algebra import basis_texts, enumerate_basis\nimport os.path\n\nx = enumerate_basis\n"
    assert unused_imports(src) == [(1, "basis_texts"), (2, "os")]


def _package_module(node):
    """The tonalg module an ImportFrom reads from: "" for the package
    itself, None for a source outside tonalg."""
    if node.level == 1:
        return node.module or ""
    head, _, rest = (node.module or "").partition(".")
    return rest if node.level == 0 and head == "tonalg" else None


def module_reads(tree, own=None):
    """(module, name) for each read of a module-level name in `tree`, one
    per reading node.  A bare Name reads `own`, the module `tree` is (None
    for a demo); `from .X import name` and `from tonalg.X import name` read
    X; `alias.name` reads X where `from . import X as alias`, `from tonalg
    import X as alias` or `import tonalg.X as alias` binds alias to X."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_module(node) == "":
            bound.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                head, _, rest = a.name.partition(".")
                if head == "tonalg" and rest and a.asname:
                    bound[a.asname] = rest
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and own is not None:
            reads[own, node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                reads[bound[node.value.id], node.attr] += 1
        elif isinstance(node, ast.ImportFrom) and _package_module(node):
            reads.update((_package_module(node), a.name) for a in node.names)
    return reads


def attributes(tree):
    """How often `tree` names each attribute, as in `x.name`."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def unread_definitions(modules, readers=()):
    """(module, name) for each public module-level def or class of the
    library `modules` ({module name: source}) that nothing reads outside
    its own definition, and (module, "Class.method") for each public method
    of a module-level class that no `.method` attribute names outside the
    method itself; readers are the library and the `readers` sources.

    Module-level names resolve per module (see `module_reads`), so a local
    variable that shares a def's name elsewhere does not read it.  Methods
    match by name alone: `DeltaPoly.evaluate` counts as read through any
    `.evaluate`, `GramMatrix.evaluate` included."""
    trees = {module: ast.parse(text) for module, text in modules.items()}
    others = [ast.parse(text) for text in readers]
    reads, attrs = Counter(), Counter()
    for module, tree in trees.items():
        reads.update(module_reads(tree, module))
        attrs.update(attributes(tree))
    for tree in others:
        reads.update(module_reads(tree))
        attrs.update(attributes(tree))
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            inside = module_reads(node, module)[module, node.name]
            if reads[module, node.name] == inside:
                out.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (module, "%s.%s" % (node.name, f.name))
                    for f in node.body
                    if isinstance(f, ast.FunctionDef)
                    and not f.name.startswith("_")
                    and attrs[f.name] == attributes(f)[f.name]
                )
    return sorted(out)


def test_public_names_have_readers():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    demos = [p.read_text() for p in sorted(DEMOS.glob("*.py"))]
    assert unread_definitions(modules, demos) == []


def test_unread_definition_is_reported():
    # negative control: a def named only by itself, a def whose name is only
    # a local variable of another module and a method no `.name` reads are
    # reported; defs read by import, through a module alias or within their
    # module, a private def and a read method are not
    x = (
        "def used():\n    pass\n\n"
        "def aliased():\n    pass\n\n"
        "def dead():\n    return dead()\n\n"
        "def w():\n    pass\n\n"
        "def _private():\n    pass\n\n"
        "def inner():\n    pass\n\n"
        "class Box:\n"
        "    def size(self):\n        return self.size()\n\n"
        "    def open(self):\n        return inner()\n"
    )
    y = "from .x import Box\n\ndef _f():\n    w = 1\n    return Box().open(), w\n"
    reader = "from tonalg.x import used\nfrom tonalg import x as xx\n\nused()\nxx.aliased()\n"
    assert unread_definitions({"x": x, "y": y}, [reader]) == [
        ("x", "Box.size"),
        ("x", "dead"),
        ("x", "w"),
    ]
