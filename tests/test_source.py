"""Static checks on the package source (stdlib ``ast`` only)."""

import ast
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "derivop"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# Program code that may read a src/derivop name; tests/ does not count, and
# neither do the re-exports of an __init__.py.
READERS = ("src", "perfbench", "scripts")
# Names only the acceptance suite reads, each with the criteria that read it.
ACCEPTANCE_ONLY = {"truncation_error_bound": "3", "ms_penalty": "4",
                   "reset": "8", "as_dense": "2, 3",
                   "full_space_jacobian": "5, 7"}
# Top-level packages src/derivop may import: the runtime deps stay numpy and
# scipy.
ALLOWED_IMPORTS = set(sys.stdlib_module_names) | {"numpy", "scipy", "derivop"}
# Parameters with a default in src/derivop signatures, dataclass fields with
# a default, and CLI options with a default.  A change that adds or removes
# a knob updates this count.
KNOBS = 117


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


def foreign_imports(source):
    """Top-level packages a module imports outside ALLOWED_IMPORTS, sorted.
    Relative imports stay inside the package."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found - ALLOWED_IMPORTS)


def test_import_checker():
    source = ("import os, numpy.linalg, torch\nfrom scipy import sparse\n"
              "from . import io\nfrom .models import Grid\n"
              "from jax.numpy import zeros\nimport derivop.bases\n"
              "import scipy.linalg as sla\nfrom collections import abc\n")
    assert foreign_imports(source) == ["jax", "torch"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_deps_are_numpy_and_scipy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source):
    """Dotted names a module imports, counting ``from a import b`` as both
    ``a`` and ``a.b`` (b may be a submodule)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_imported_modules():
    source = ("import scipy.sparse as sp\nfrom scipy.sparse import linalg\n"
              "from .linalg import LinearOperator\n")
    assert imported_modules(source) == {"scipy.sparse", "scipy.sparse.linalg"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_sparse_lu(path):
    """Every PDE factorization is the banded Cholesky in ``models``."""
    assert "scipy.sparse.linalg" not in imported_modules(
        path.read_text(encoding="utf-8"))


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
            if path.name != "__init__.py":
                read |= read_names(path.read_text(encoding="utf-8"))
    defined = set()
    for path in SRC.glob("*.py"):
        defined |= defined_names(path.read_text(encoding="utf-8"))
    assert set(ACCEPTANCE_ONLY) <= defined
    assert sorted(defined - read - set(ACCEPTANCE_ONLY)) == []
    assert sorted(set(ACCEPTANCE_ONLY) & read) == []


def knob_count(source):
    """Knobs a module defines: defaults of function and lambda parameters,
    defaulted fields of ``@dataclass`` classes, and ``add_argument`` options
    that are not ``required=True``."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            count += len(node.args.defaults) \
                + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).startswith("dataclass")
                for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
        elif isinstance(node, ast.Call) \
                and getattr(node.func, "attr", None) == "add_argument" \
                and str(node.args[0].value).startswith("-"):
            count += not any(k.arg == "required" and k.value.value is True
                             for k in node.keywords)
    return count


def test_knob_counter():
    source = ("from dataclasses import dataclass\n"
              "def f(a, b=1, *, c=2, d):\n    return lambda x=0: x\n"
              "@dataclass(frozen=True)\nclass K:\n    a: int\n    b: int = 1\n"
              "class L:\n    c: int = 1\n"
              "p.add_argument('--x', default=1)\n"
              "p.add_argument('--y', action='store_true')\n"
              "p.add_argument('--z', required=True)\n"
              "p.add_argument('pos')\n")
    assert knob_count(source) == 3 + 1 + 2


def test_knob_count():
    assert sum(knob_count(p.read_text(encoding="utf-8"))
               for p in SRC.glob("*.py")) == KNOBS
