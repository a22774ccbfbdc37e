"""Count the code lines of Python modules: docstrings and comments excluded.

    python3 tests/code_lines.py              # src/hiersched/*.py
    python3 tests/code_lines.py a.py b.py    # the named files

Each module is parsed, the docstrings of the module, its classes and its
functions are dropped, and the lines of `ast.unparse` of what is left are
counted. Comments and the source's blank lines do not survive the parse;
the one blank line `ast.unparse` puts before each class and function
definition is counted. A docstring costs nothing to compile while a line
of code does, so this is the size that ROADMAP item 7 asks each change to
report. Prints one line per module and the total.
"""

import ast
import sys
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


def main(argv):
    paths = [Path(a) for a in argv] or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in paths:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6,} {path.name}")
    print(f"{total:6,} total")


if __name__ == "__main__":
    main(sys.argv[1:])
