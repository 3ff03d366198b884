"""Every name a module of efbound imports is used in that module, and every
module it imports is in the standard library or in efbound itself.

No linter is a dependency, and moving a function between modules is where
stale imports appear, so this parses each module with ast.  The package's
__init__ imports names only to re-export them, so it is exempt from the
unused-name check.
"""

import ast
import os
import sys

import pytest

import efbound

SRC = os.path.dirname(os.path.abspath(efbound.__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


def unused_imports(source):
    """The names that source binds by an import and never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_unused_import_is_found():
    source = ("from fractions import Fraction\nimport os.path\nimport numpy as np\n"
              "from .x import a, b as c\n\ndef f():\n    return os.sep, c\n")
    assert unused_imports(source) == ["Fraction", "a", "np"]


def absolute_imports(source):
    """The top-level names of the modules that source imports absolutely."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_standard_library_only(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert sorted(absolute_imports(fh.read()) - sys.stdlib_module_names) == []


def test_absolute_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path, numpy as np\n"
              "from scipy.optimize import nnls\nfrom .ratlin import rat\n"
              "from . import errors\n")
    assert absolute_imports(source) == {"__future__", "os", "numpy", "scipy"}


def test_no_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []
