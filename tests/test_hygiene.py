"""Source hygiene: every name a library module imports is used in it, every
function it defines and every name it binds at module level is read by the
library, a demo or the bench (not only by tests), only phylodist.files
opens files for writing or makes directories, only phylodist.tree
constructs a PhyloTree, and no module starts threads or processes."""

import ast
import importlib.util
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


def write_opens(source):
    """(line, mode) of each open() call whose mode may write: one that is not
    a string constant, or one with w, a, x or +."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None)
        if getattr(func, "id", getattr(func, "attr", None)) != "open":
            continue
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        for mode in modes:
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                found.append((node.lineno, ast.unparse(mode)))
    return found


def test_only_files_opens_for_writing():
    """Every output goes through phylodist.files, whose writes are atomic."""
    found = {
        str(p.relative_to(PACKAGE)): modes
        for p in MODULES
        if p.name != "files.py" and (modes := write_opens(p.read_text()))
    }
    assert found == {}


def test_guard_flags_a_write_open():
    source = (
        'open(p)\nopen(p, "rb")\nopen(p, "w")\nio.open(p, mode="ab")\nopen(p, m)\n'
        'open(p, "r+")\nopen(p, encoding="utf-8")\nopen(p, "x")\n'
    )
    assert write_opens(source) == [
        (3, "'w'"), (4, "'ab'"), (5, "m"), (6, "'r+'"), (8, "'x'"),
    ]


def mentions(source, names):
    """(line, name) of each name, attribute, import or definition of source
    that is one of names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
        if name in names:
            found.append((node.lineno, name))
    return sorted(found)


def directory_makers(source):
    return mentions(source, ("makedirs", "mkdir"))


def test_only_files_makes_directories():
    """An output directory appears with the first file written into it, so a
    run that fails before it writes leaves nothing behind."""
    found = {
        str(p.relative_to(PACKAGE)): names
        for p in MODULES
        if p.name != "files.py" and (names := directory_makers(p.read_text()))
    }
    assert found == {}


def test_guard_flags_a_directory_maker():
    source = (
        "os.makedirs(p, exist_ok=True)\nos.listdir(p)\nos.mkdir(p)\nPath(p).mkdir()\n"
        "from os import makedirs\nmake = os.makedirs\nos.path.dirname(p)\n"
    )
    assert directory_makers(source) == [
        (1, "makedirs"), (3, "mkdir"), (4, "mkdir"), (5, "makedirs"), (6, "makedirs"),
    ]


TRIANGLES = ("triu", "triu_indices", "triu_indices_from", "tril", "tril_indices", "tril_indices_from")


def test_only_matrices_builds_triangles():
    """matrices.upper_mask is the one pair order; a module that builds its own
    triangle can drift from it."""
    found = {
        str(p.relative_to(PACKAGE)): names
        for p in MODULES
        if p.name != "matrices.py" and (names := mentions(p.read_text(), TRIANGLES))
    }
    assert found == {}


def test_guard_flags_a_triangle():
    source = (
        "np.triu(a, 1)\nnp.triu_indices(n)\nfrom numpy import tril\nnp.diag(a)\n"
        "upper_mask(n)\nnp.tril_indices(n, -1)\ntriu = 1\n"
    )
    assert mentions(source, TRIANGLES) == [
        (1, "triu"), (2, "triu_indices"), (3, "tril"), (6, "tril_indices"), (7, "triu"),
    ]


def tree_constructions(source):
    """Line of each call of PhyloTree, by its bare name or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "PhyloTree"
    )


def test_only_tree_builds_trees():
    """tree.NodeTable is the one node-table builder; a module that fills
    PhyloTree's four lists itself can drift from it."""
    found = {
        str(p.relative_to(PACKAGE)): lines
        for p in MODULES
        if p.name != "tree.py" and (lines := tree_constructions(p.read_text()))
    }
    assert found == {}


def test_guard_flags_a_tree_construction():
    source = (
        "PhyloTree(p, c, b, l, True)\nfrom .tree import PhyloTree\nisinstance(t, PhyloTree)\n"
        "tree.PhyloTree(p, c, b, l, rooted=False)\nNodeTable(labels).tree(True)\n"
        "PhyloTree.__init__\n"
    )
    assert tree_constructions(source) == [1, 4]


CONCURRENCY = ("concurrent", "threading", "_thread", "multiprocessing")


def concurrency_imports(source):
    """(line, module) of each absolute import of a thread or process module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] in CONCURRENCY]
    return found


def test_no_module_imports_threads_or_processes():
    """The library runs serially: a pool bought no speed on two cores and its
    outputs had to be checked against the serial ones."""
    found = {
        str(p.relative_to(PACKAGE)): imports
        for p in MODULES
        if (imports := concurrency_imports(p.read_text()))
    }
    assert found == {}


def test_guard_flags_a_concurrency_import():
    source = (
        "import threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
        "import multiprocessing.pool as mp\nfrom concurrent import futures\n"
        "import contextvars\nfrom .threading import pool\nimport os, _thread\n"
        "from multiprocessing import get_context\n"
    )
    assert concurrency_imports(source) == [
        (1, "threading"), (2, "concurrent.futures"), (3, "multiprocessing.pool"),
        (4, "concurrent"), (7, "_thread"), (8, "multiprocessing"),
    ]


REPO = PACKAGE.parent.parent
# Only the library, the demos and the bench keep a definition alive: a
# function that only tests call is test code and belongs in tests/.
REFERENCING = sorted(
    [*REPO.glob("src/**/*.py"), *REPO.glob("demos/*.py"), *REPO.glob("perfbench/*.py")]
)


def referenced_names(source):
    """Every name a module reads: bare names not assigned to, attributes and
    import aliases."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def library_references():
    """Every name that a file of REFERENCING reads."""
    return set().union(*(referenced_names(p.read_text()) for p in REFERENCING))


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
    referenced = library_references()
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


def test_guard_flags_a_function_only_tests_call():
    """The helpers of tests/util.py are called from tests alone, so the
    guard would flag each of them in a library module."""
    source = (REPO / "tests" / "util.py").read_text()
    flagged = {name for _, name in dead_definitions(source, library_references())}
    assert {"finite_difference_check", "naive_site_forward", "site_pattern_compression"} <= flagged


def unread_module_names(source, referenced):
    """(line, name) of each non-dunder name that source binds at module level,
    by assignment or class statement, and that is not in referenced."""
    bound = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            bound.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
            bound += [(node.lineno, n.id) for n in names]
    return sorted(
        (line, name)
        for line, name in bound
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_module_level_name_is_read():
    referenced = library_references()
    unread = {
        str(p.relative_to(PACKAGE)): found
        for p in sorted(PACKAGE.rglob("*.py"))
        if (found := unread_module_names(p.read_text(), referenced))
    }
    assert unread == {}


def test_guard_flags_an_unread_module_name():
    source = (
        "USED = 1\nUNUSED = 2\n_A, _B = 3, 4\nSTORED_ONLY: int = 5\n"
        "class Kept:\n    pass\nclass Gone:\n    pass\n__all__ = []\n"
    )
    referenced = referenced_names("from m import USED, Kept\nprint(_A)\nSTORED_ONLY = 6\n")
    assert unread_module_names(source, referenced) == [
        (2, "UNUSED"), (3, "_B"), (4, "STORED_ONLY"), (7, "Gone"),
    ]


def test_tracer_bindings_resolve():
    """Every library attribute the bench tracer rebinds still exists, so a
    rename in src/ cannot silently break a traced bench run."""
    spec = importlib.util.spec_from_file_location("tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = tracing.bindings()
    assert bindings
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in bindings
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
