"""No module of the library imports a name it never uses.

Each ``src/dcrep/*.py`` but ``__init__.py`` is parsed with ``ast``.  A name
bound by a module-level import must be read somewhere in the module, unless
the line that names it carries ``# noqa: F401``: those names are kept only so
that another module (bench/tracing.py) can find them here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dcrep"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def module_imports(body):
    """The import statements of a module body, those inside top-level
    ``try`` and ``if`` blocks included, but none inside a def or class."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody,
                          *(handler.body for handler in node.handlers)):
                yield from module_imports(block)
        elif isinstance(node, ast.If):
            yield from module_imports(node.body)
            yield from module_imports(node.orelse)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for stmt in module_imports(tree.body):
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"line {alias.lineno}: {name}")
    return unused


def test_the_check_sees_an_unused_import():
    source = ("from functools import cache, lru_cache\nimport numpy as np\n"
              "import os.path\nfrom math import (pi,  # noqa: F401\n    tau)\n"
              "try:\n    import json\nexcept ImportError:\n    json = None\n"
              "@cache\ndef f():\n    import sys\n    return np.ones(1)\n")
    assert unused_imports(source) == ["line 1: lru_cache", "line 3: os", "line 5: tau",
                                      "line 7: json"]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((SRC / module).read_text()) == []
