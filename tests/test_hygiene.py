"""Source hygiene: every name a library module imports is used in it, and
every function it defines is referenced somewhere in the repository."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "phylodist"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        (1, "os"),
        (2, "tau"),
    ]


REPO = PACKAGE.parent.parent
REFERENCING = sorted(
    [*REPO.glob("src/**/*.py"), *REPO.glob("tests/**/*.py"), *REPO.glob("demos/*.py"),
     *REPO.glob("perfbench/*.py")]
)


def referenced_names(source):
    """Every name a module mentions: bare names, attributes and import aliases."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def dead_definitions(source, referenced):
    """(line, name) of each non-dunder function or method of source whose
    name is not in referenced."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced
    )


def test_every_library_function_is_referenced():
    referenced = set().union(*(referenced_names(p.read_text()) for p in REFERENCING))
    dead = {
        str(p.relative_to(PACKAGE)): found
        for p in sorted(PACKAGE.rglob("*.py"))
        if (found := dead_definitions(p.read_text(), referenced))
    }
    assert dead == {}


def test_guard_flags_an_unreferenced_function():
    source = (
        "def used():\n    pass\n"
        "def unused():\n    pass\n"
        "class C:\n    def __init__(self):\n        pass\n    def gone(self):\n        pass\n"
    )
    referenced = referenced_names("from m import used\nC().other()\n")
    assert dead_definitions(source, referenced) == [(3, "unused"), (8, "gone")]
