"""Print the code of src/hiersched that a set of CLI runs never reaches.

    python3 tests/traffic.py                  # the default runs
    python3 tests/traffic.py a.json b.json    # the default runs, then these

Each scenario file is run in this process as `python3 -m hiersched
--scenario FILE --trace-out T --report-out R --allow-reject` runs it (through
`runpy`, so `__main__`, `cli.main` and `cli.run` are entered as they are by
the command), with T and R in a temporary directory and stdout discarded.
All runs go under one `sys.settrace`, which traces only the frames of files
under src/hiersched, the package's import included. The default runs are
the six scenarios in scenarios/ and the three bench workloads at seeds 1, 3
and 7, generated by importing bench/workloads.py.

For each module it prints the functions never entered, by qualified name,
and the lines never executed outside those functions. A line counts when
the compiler gave it code, so docstrings, comments and blank lines never
show. Standard library only.
"""

import ast
import contextlib
import gc
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hiersched"
SEEDS = (1, 3, 7)


def trace(root, work):
    """Run `work()` under `sys.settrace`, tracing only the frames of files
    under directory `root`. Returns {real path: (first lines of the code
    objects entered, lines executed)} for those files."""
    root = os.path.realpath(root) + os.sep
    ran = {}  # co_filename -> its two sets, or None when not under root

    def line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename][1].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ran:
            inside = os.path.realpath(name).startswith(root)
            ran[name] = (set(), set()) if inside else None
        if ran[name] is None:
            return None
        ran[name][0].add(frame.f_code.co_firstlineno)
        return line

    before = sys.gettrace()
    sys.settrace(call)
    try:
        work()
    finally:
        sys.settrace(before)
    return {os.path.realpath(name): sets for name, sets in ran.items()
            if sets is not None}


def _functions(tree):
    """(first line, last line, qualified name) of each function in `tree`.
    The first line is that of its first decorator, as in `co_firstlineno`."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out.append((first, child.end_lineno, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _code_lines(code):
    """The lines that `code` and the code objects nested in it have code on."""
    lines = {n for _, _, n in code.co_lines() if n}  # a module starts at line 0
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _code_lines(const)
    return lines


def unreached(path, entered, executed):
    """(names of the functions never entered, sorted lines never executed
    outside them) for source file `path`, given what `trace` saw of it."""
    source = Path(path).read_text(encoding="utf-8")
    missed = [f for f in _functions(ast.parse(source)) if f[0] not in entered]
    lines = _code_lines(compile(source, str(path), "exec")) - executed
    lines = sorted(n for n in lines if not any(a <= n <= b for a, b, _ in missed))
    return [name for _, _, name in missed], lines


def _ranges(lines):
    """Sorted line numbers as "3, 7-9, 12"."""
    spans = []
    for n in lines:
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(root, ran):
    """The text that main prints: the name of each .py file in directory
    `root`, then its functions never entered and its lines never executed
    outside them."""
    out = []
    for path in sorted(Path(root).glob("*.py")):
        entered, executed = ran.get(os.path.realpath(path), (set(), set()))
        functions, lines = unreached(path, entered, executed)
        out.append(path.name)
        out.append(f"  functions never entered: {', '.join(functions) or '-'}")
        out.append(f"  lines never executed: {_ranges(lines) or '-'}")
    return "\n".join(out) + "\n"


def _default_scenarios(tmp):
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    paths = sorted((ROOT / "scenarios").glob("*.json"))
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            path = Path(tmp) / f"{name}-s{seed}.json"
            workloads.write(name, seed, str(path))
            paths.append(path)
    return paths


def _run_cli(scenario, tmp):
    argv = sys.argv
    sys.argv = ["hiersched", "--scenario", str(scenario),
                "--trace-out", os.path.join(tmp, "trace.csv"),
                "--report-out", os.path.join(tmp, "report.txt"), "--allow-reject"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_module("hiersched", run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.argv = argv
        gc.unfreeze()  # cli.main froze this process's heap before it exited


def main(argv):
    sys.path.insert(0, str(PACKAGE.parent))
    with tempfile.TemporaryDirectory() as tmp:
        scenarios = _default_scenarios(tmp) + [Path(a) for a in argv]

        def work():
            for scenario in scenarios:
                _run_cli(scenario, tmp)

        ran = trace(PACKAGE, work)
    print(f"{len(scenarios)} runs")
    print(report(PACKAGE, ran), end="")


if __name__ == "__main__":
    main(sys.argv[1:])
