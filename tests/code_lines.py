"""Count the code lines and AST nodes of Python modules.

    python3 tests/code_lines.py              # src/hiersched/*.py
    python3 tests/code_lines.py a.py b.py    # the named files
    python3 tests/code_lines.py --against REF   # src/hiersched/*.py at git
                                                # revision REF and now

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
module, with the first one's code object still held, after a full
collection and with the collector off, so that neither the interpreter's
one-time caches, nor the names the first compile interned, nor what the
process left in its free lists count. It repeats to the KiB from run to
run, and a module's figure is the same alone and in a listing of others,
whatever was measured before it.
Without bytecode cached, an import compiles every module, so the largest of
them sets the peak RSS of importing the package; the total row gives that
largest and names its module.

Prints, per module and for the total, the code lines, the AST nodes, the
compile peak and the name. With `--against REF` it reads the package's
modules at REF with `git show` and prints each figure at REF, in the
working tree and the change, so one command gives a change's size report;
a module on one side only counts as zero on the other.
"""

import ast
import gc
import subprocess
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hiersched"
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
    """The traced peak of a second `compile()` of `source`, in KiB. The first
    compile's code object is held through the second, so that the second
    finds every name of `source` interned: an interned string is freed once
    nothing holds it, and one the second compile interned again would count,
    with a resize of the interpreter's table of them that lands in whichever
    module crosses its threshold. A full collection first empties the free
    lists of tuples, lists and dicts, whose fill would decide how many of
    the compile's objects are new memory, and the collector stays off while
    the compile is traced."""
    first = compile(source, "<module>", "exec")
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        compile(source, "<module>", "exec")
        return round(tracemalloc.get_traced_memory()[1] / 1024)
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
        del first


def measure(source):
    """The code lines, AST nodes and compile peak of `source`."""
    return code_lines(source), ast_nodes(source), compile_kib(source)


def _git(root, *args):
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout


def against(ref, root=ROOT):
    """Print each figure of src/hiersched/*.py under `root` at git revision
    `ref`, in the working tree and the change, per module and in total."""
    listed = _git(root, "ls-tree", "--name-only", ref, "src/hiersched/").split()
    old = {Path(p).name: _git(root, "show", f"{ref}:{p}") for p in listed if p.endswith(".py")}
    new = {p.name: p.read_text(encoding="utf-8")
           for p in (root / "src" / "hiersched").glob("*.py")}
    print(f"{'code lines':^20} {'AST nodes':^23} {'compile peak (KiB)':^20}".rstrip())
    print(f"{'ref':>6} {'tree':>6} {'change':>6} {'ref':>7} {'tree':>7} {'change':>7} "
          f"{'ref':>6} {'tree':>6} {'change':>6}")
    names = sorted(old.keys() | new.keys())
    pairs = []
    for name in names:
        pairs.append((measure(old[name]) if name in old else (0, 0, 0),
                      measure(new[name]) if name in new else (0, 0, 0)))
        print(_compared(*pairs[-1], name))
    sides = list(zip(*pairs))
    print(_compared(*map(_total, sides), "total (largest peak: {} -> {})".format(
        *(_largest(side, names) for side in sides))))


def _total(figures):
    """Summed code lines and AST nodes, and the largest compile peak."""
    lines, nodes, kib = zip(*figures)
    return sum(lines), sum(nodes), max(kib)


def _largest(figures, names):
    """The name of the module whose compile peak is the largest in
    `figures`, the first of equal ones; `names` are the modules' names."""
    return max(zip(figures, names), key=lambda pair: pair[0][2])[1]


def _compared(a, b, name):
    return (f"{a[0]:6,} {b[0]:6,} {b[0] - a[0]:+6,} {a[1]:7,} {b[1]:7,} {b[1] - a[1]:+7,} "
            f"{a[2]:6,} {b[2]:6,} {b[2] - a[2]:+6,} {name}")


def main(argv):
    if argv[:1] == ["--against"] and len(argv) == 2:
        return against(argv[1])
    paths = [Path(a) for a in argv] or sorted(PACKAGE.glob("*.py"))
    rows = []
    for path in paths:
        rows.append(measure(path.read_text(encoding="utf-8")))
        n, k, kib = rows[-1]
        print(f"{n:6,} {k:7,} {kib:6,} {path.name}")
    lines, nodes, largest = _total(rows)
    peak = _largest(rows, [path.name for path in paths])
    print(f"{lines:6,} {nodes:7,} {largest:6,} total (largest peak: {peak})")


if __name__ == "__main__":
    main(sys.argv[1:])
