"""Each module of the package uses every name it imports.

An import that nothing reads still costs every run that loads the module:
its lookup, and the import of a module no one needs. The check reads each
module's syntax tree, so nothing is imported to run it. `__init__.py`
imports to re-export, and `from __future__` imports are compiler
directives; both are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hiersched"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names `source` binds by import and never reads, an annotation
    counting as a read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = "import os, a.b\nfrom x import y as z, w\nos.sep\nw()\n"
    assert unused_imports(source) == ["a", "z"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
