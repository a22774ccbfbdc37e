"""Each module of the package uses every name it imports, and the package
reads every private name it defines.

An import that nothing reads still costs every run that loads the module:
its lookup, and the import of a module no one needs. A private function,
class, method or module-level name that nothing reads is dead code, compiled
by every run. No module imports `typing`: the package's records are
`collections.namedtuple`, and a `typing.NamedTuple` class compiles its
annotations at every import. The checks read each module's syntax tree, so
nothing is imported to run them. For imports, `__init__.py` imports to re-export, and
`from __future__` imports are compiler directives; both are exempt.
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


def imported_modules(source):
    """The top-level names of the modules `source` imports."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_module_imports_typing(module):
    assert "typing" not in imported_modules((PACKAGE / module).read_text(encoding="utf-8"))


# namedtuple hooks a value type overrides: `collections` reads them, not us
_HOOKS = {"_make", "_replace", "_asdict", "_fields"}


def private_definitions(tree):
    """The private names `tree` defines at module level (functions, classes
    and assigned names) and as methods of its classes, dunders and the
    namedtuple hooks excepted."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        if isinstance(node, ast.ClassDef):
            defined.update(m.name for m in node.body
                           if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return {n for n in defined
            if n.startswith("_") and not n.endswith("__") and n not in _HOOKS}


def names_read(tree):
    """The names `tree` reads: as a name, as an attribute or by import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def dead_private_names(sources):
    """The private names defined in any of `sources` that none of them reads."""
    trees = [ast.parse(s) for s in sources]
    defined = set().union(*map(private_definitions, trees))
    return sorted(defined - set().union(*map(names_read, trees)))


def test_dead_private_names_are_found():
    a = ("_used = 1\n_dead, _unpacked = 2, 3\n_typed: int = 4\n"
         "def _helper(): return _used\n"
         "class _Box:\n"
         "    _ATTR = 5\n"
         "    def __init__(self): self._slot = 6\n"
         "    def _method(self): pass\n"
         "    def _replace(self): pass\n"
         "    def _gone(self): pass\n")
    b = "from a import _helper\n_Box()._method()\nx = _typed\n"
    assert dead_private_names([a, b]) == ["_dead", "_gone", "_unpacked"]


def test_every_private_name_is_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert dead_private_names(sources) == []
