"""Count the code lines and AST nodes of Python modules.

    python3 tests/code_lines.py              # src/hiersched/*.py
    python3 tests/code_lines.py a.py b.py    # the named files

Each module is parsed, the docstrings of the module, its classes and its
functions are dropped, and the lines of `ast.unparse` of what is left are
counted. Comments and the source's blank lines do not survive the parse;
the one blank line `ast.unparse` puts before each class and function
definition is counted. A docstring costs nothing to compile while a line
of code does, so this is the size that ROADMAP item 7 asks each change to
report.

The AST node count is that of the whole parse, docstrings included: it is
what `compile()` walks, so it counts code where a denser expression saves
lines but not work.

The compile peak is the most memory `compile()` of the module holds at
once, traced by `tracemalloc`, in KiB: mostly the syntax tree, held whole
while the code is generated. It is taken on a second compile of the
module, so that the interpreter's one-time caches do not count, and it
repeats to the KiB from run to run. Without bytecode cached, an import
compiles every module, so the largest of them sets the peak RSS of
importing the package; the total row gives that largest.

Prints, per module and for the total, the code lines, the AST nodes, the
compile peak and the name.
"""

import ast
import sys
import tracemalloc
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hiersched"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The code lines of `source`, with docstrings and comments excluded."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            node.body = node.body[1:] or [ast.Pass()]
    return len(ast.unparse(tree).splitlines())


def ast_nodes(source):
    """The nodes of the syntax tree of `source`, docstrings included."""
    return sum(1 for _ in ast.walk(ast.parse(source)))


def compile_kib(source):
    """The traced peak of a second `compile()` of `source`, in KiB."""
    compile(source, "<module>", "exec")
    tracemalloc.start()
    try:
        compile(source, "<module>", "exec")
        return round(tracemalloc.get_traced_memory()[1] / 1024)
    finally:
        tracemalloc.stop()


def main(argv):
    paths = [Path(a) for a in argv] or sorted(PACKAGE.glob("*.py"))
    lines = nodes = largest = 0
    for path in paths:
        source = path.read_text(encoding="utf-8")
        n, k, kib = code_lines(source), ast_nodes(source), compile_kib(source)
        lines, nodes, largest = lines + n, nodes + k, max(largest, kib)
        print(f"{n:6,} {k:7,} {kib:6,} {path.name}")
    print(f"{lines:6,} {nodes:7,} {largest:6,} total")


if __name__ == "__main__":
    main(sys.argv[1:])
