"""Every name a module of efbound imports is used in that module.

No linter is a dependency, and moving a function between modules is where
stale imports appear, so this parses each module with ast.  The package's
__init__ imports names only to re-export them, so it is exempt.
"""

import ast
import os

import pytest

import efbound

SRC = os.path.dirname(os.path.abspath(efbound.__file__))
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
