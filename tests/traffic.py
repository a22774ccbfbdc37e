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
the lines never executed outside those functions, and the conditions with
one outcome. A line counts when the compiler gave it code, so docstrings,
comments and blank lines never show. A line runs when any of its code
does, so a condition whose other outcome no run takes shows only among the
conditions: the tracer also sees each instruction (`frame.f_trace_opcodes`)
and notes where each conditional jump went, and a jump that ran and always
went the same way is listed by its line, the source of the value it tests
and the one outcome that value had: true or false, None or not None. The
instructions are CPython's (3.11 names them), so other interpreters may
split a condition into jumps differently. Standard library only.
"""

import ast
import contextlib
import dis
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


# the value a conditional jump tests, by the end of the jump's name: as it
# is when the jump is taken, and as it is when it is not
_TAKEN = {"FALSE": ("false", "true"), "TRUE": ("true", "false"),
          "NONE": ("None", "not None"), "NOT_NONE": ("not None", "None")}


def _conditions(code):
    """{offset: (jump, the instruction before it)} for each conditional jump
    of `code` (not of the code nested in it); the instruction before it
    leaves the value that the jump tests. The offset is the one a trace
    sees, that of the jump's first EXTENDED_ARG where it has any."""
    out = {}
    at = prior = None
    for ins in dis.get_instructions(code):
        if ins.opname == "EXTENDED_ARG":
            at = ins.offset if at is None else at
            continue
        # a `with` block's exit tests how its block ended: not a condition
        # of the source
        if ("JUMP" in ins.opname and "_IF_" in ins.opname
                and prior.opname != "WITH_EXCEPT_START"):
            out[ins.offset if at is None else at] = (ins, prior)
        at, prior = None, ins
    return out


def trace(root, work):
    """Run `work()` under `sys.settrace`, tracing only the frames of files
    under directory `root`, by line and by instruction. Returns {real path:
    (first lines of the code objects entered, lines executed, {code object:
    {offset of a conditional jump: offsets run next}})} for those files."""
    root = os.path.realpath(root) + os.sep
    ran = {}  # co_filename -> its three records, or None when not under root

    def call(frame, event, arg):
        code = frame.f_code
        name = code.co_filename
        if name not in ran:
            inside = os.path.realpath(name).startswith(root)
            ran[name] = (set(), set(), {}) if inside else None
        if ran[name] is None:
            return None
        entered, executed, jumps = ran[name]
        entered.add(code.co_firstlineno)
        if code not in jumps:
            jumps[code] = {at: set() for at in _conditions(code)}
        went = jumps[code]
        last = None  # the offset of the frame's last instruction
        frame.f_trace_opcodes = True

        def step(frame, event, arg):
            nonlocal last
            if event == "opcode":
                if last in went:
                    went[last].add(frame.f_lasti)
                last = frame.f_lasti
            elif event == "line":
                executed.add(frame.f_lineno)
            return step

        return step

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


def _source(lines, pos):
    """The source text that positions `pos` span: its first line, with
    "..." for the rest."""
    if pos.lineno is None or pos.col_offset is None:
        return "?"
    line = lines[pos.lineno - 1].encode()  # offsets count UTF-8 bytes
    if pos.end_lineno == pos.lineno:
        return line[pos.col_offset:pos.end_col_offset].decode()
    return line[pos.col_offset:].decode().rstrip() + " ..."


def one_outcome(path, executed, jumps):
    """The conditions of source file `path` that no run took both ways,
    given what `trace` saw of it: "LINE SOURCE: only VALUE" for a value
    tested that always had the same outcome, "LINE SOURCE: never tested"
    for one on a line that ran whose test never did (an `and` before it
    always stopped short). A condition is the value a conditional jump
    tests, found by the source it spans, so the jumps of one condition
    count as one: a `while` tests its condition at its top and its end.
    In line and column order."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    values = {}  # the positions of a value tested -> the values it had
    for code, went in jumps.items():
        for at, (jump, before) in _conditions(code).items():
            if not went[at] and jump.positions.lineno not in executed:
                continue  # its line is listed as never executed
            pos = before.positions
            taken, not_taken = _TAKEN[jump.opname.split("_IF_")[1].removesuffix("_OR_POP")]
            values.setdefault(pos, set()).update(
                taken if nxt == jump.argval else not_taken for nxt in went[at])
    found = []
    for pos, had in sorted(values.items(), key=lambda item: tuple(n or 0 for n in item[0])):
        if len(had) < 2:
            outcome = f"only {had.pop()}" if had else "never tested"
            found.append(f"{pos.lineno} {_source(lines, pos)}: {outcome}")
    return found


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
    `root`, then its functions never entered, its lines never executed
    outside them and its conditions with one outcome."""
    out = []
    for path in sorted(Path(root).glob("*.py")):
        entered, executed, jumps = ran.get(os.path.realpath(path), (set(), set(), {}))
        functions, lines = unreached(path, entered, executed)
        conditions = one_outcome(path, executed, jumps)
        out.append(path.name)
        out.append(f"  functions never entered: {', '.join(functions) or '-'}")
        out.append(f"  lines never executed: {_ranges(lines) or '-'}")
        out.append("  conditions with one outcome:" + ("" if conditions else " -"))
        out.extend(f"    {c}" for c in conditions)
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
