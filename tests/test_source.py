"""Static checks on the package source (stdlib ``ast`` only)."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "derivop"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# Program code that may read a src/derivop name; tests/ does not count.
READERS = ("src", "perfbench", "scripts")
# Names only the acceptance suite reads, each with the criteria that read it.
ACCEPTANCE_ONLY = {"truncation_error_bound": "3", "ms_penalty": "4",
                   "reset": "8", "as_dense": "2, 3"}


def unused_imports(source):
    """Names bound by an import that the module never reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_checker_flags_unused_names():
    source = ("import os, sys\nfrom a.b import c, d as e\n"
              "import x.y\nprint(sys.argv, e, x.y)\n")
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(source):
    """Functions and classes defined anywhere in a module, dunders excluded."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def read_names(source):
    """Names a module reads: bare names, attributes and imported names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(part for alias in node.names
                        for part in alias.name.split("."))
    return read


def test_name_checkers():
    source = ("import a.b\nfrom c import d\nclass K:\n    def m(self):\n"
              "        return e.f(g)\n    def __init__(self):\n        pass\n"
              "def h():\n    pass\n")
    assert defined_names(source) == {"K", "m", "h"}
    assert read_names(source) == {"a", "b", "d", "e", "f", "g"}


def test_every_definition_has_a_program_reader():
    """Code that only its own unit test uses does not belong in src/."""
    read = set()
    for root in READERS:
        for path in (REPO / root).rglob("*.py"):
            read |= read_names(path.read_text(encoding="utf-8"))
    defined = set()
    for path in SRC.glob("*.py"):
        defined |= defined_names(path.read_text(encoding="utf-8"))
    assert set(ACCEPTANCE_ONLY) <= defined
    assert sorted(defined - read - set(ACCEPTANCE_ONLY)) == []
    assert sorted(set(ACCEPTANCE_ONLY) & read) == []
