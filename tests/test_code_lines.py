"""The code-line, AST-node and compile-peak counter of tests/code_lines.py."""

import subprocess
import sys
from pathlib import Path

from code_lines import PACKAGE, against, ast_nodes, code_lines, compile_kib, main

SCRIPT = str(Path(__file__).with_name("code_lines.py"))

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment


class Empty:
    """Only a docstring: the class keeps a `pass`."""


class Box:
    """Class docstring."""

    size = 1

    def get(self):
        """Method docstring."""
        # a comment on its own line

        return os.sep


async def fetch():
    """Coroutine docstring."""
    x = "not a docstring"
    return x
'''


def test_docstrings_comments_and_blank_lines_are_not_counted():
    # import os / class Empty: / pass / class Box: / size = 1 / def get(self):
    # / return os.sep / async def fetch(): / x = ... / return x, and the blank
    # line `ast.unparse` puts before each of the four definitions
    assert code_lines(SOURCE) == 14


def test_a_module_of_only_a_docstring_counts_one_line():
    assert code_lines('"""Nothing but this."""\n') == 1


def test_ast_nodes_count_the_whole_parse_docstrings_included():
    # Module; two Assign, each with a Name, its Store context and a Constant
    assert ast_nodes("x = 1\ny = 2\n") == 9
    # the docstring is an Expr and its Constant
    assert ast_nodes('"""Doc."""\nx = 1\n') == 7


def test_the_compile_peak_repeats_and_grows_with_the_tree():
    small = compile_kib("x = 1\ny = 2\n")
    assert small == compile_kib("x = 1\ny = 2\n")
    assert small < compile_kib(SOURCE) < compile_kib(SOURCE * 20)


def test_the_compile_peak_does_not_depend_on_what_was_compiled_before():
    # the names of a compile that nothing holds any more are freed from the
    # interpreter's table of interned strings, and each one interned again
    # takes a slot of it: a figure that counted interning them again would
    # count a resize of that table wherever one lands. Each figure also
    # follows a compile that filled the free lists
    source = "".join(f"def f{i}(a{i}, b{i}):\n    return a{i} + b{i}.c{i}\n"
                     for i in range(1000))
    assert len({compile_kib(source) for _ in range(16)}) == 1


def test_a_module_measures_the_same_alone_and_in_the_listing():
    """Each row of the package's listing is what the module gives measured
    alone, first in a fresh interpreter: no figure depends on the modules
    measured before it."""
    def listing(*paths):
        out = subprocess.run([sys.executable, SCRIPT, *map(str, paths)], check=True,
                             capture_output=True, text=True).stdout
        return out.splitlines()[:-1]  # the total row dropped

    together = listing()
    assert len(together) == len(list(PACKAGE.glob("*.py")))
    assert [listing(PACKAGE / row.split()[-1])[0] for row in together] == together


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(SOURCE, encoding="utf-8")
    b.write_text("x = 1\ny = 2\n", encoding="utf-8")
    main([str(a), str(b)])
    # the compile peaks depend on the interpreter (26 and 12 KiB on 3.11);
    # the total row's is the largest module's, not a sum, and names it
    ka, kb = compile_kib(SOURCE), compile_kib("x = 1\ny = 2\n")
    assert ka > kb
    assert capsys.readouterr().out == (
        f"    14      36 {ka:6,} a.py\n     2       9 {kb:6,} b.py\n"
        f"    16      45 {ka:6,} total (largest peak: a.py)\n")


def test_against_compares_each_module_at_a_git_revision(tmp_path, capsys):
    package = tmp_path / "src" / "hiersched"
    package.mkdir(parents=True)
    (package / "kept.py").write_text("x = 1\n", encoding="utf-8")
    (package / "gone.py").write_text("y = 2\n", encoding="utf-8")

    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                        "-c", "user.email=t@example.com", *args],
                       check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    # after the commit: one module grows, one goes, one comes, and a file
    # that is not a module is not counted
    (package / "kept.py").write_text(SOURCE, encoding="utf-8")
    (package / "gone.py").unlink()
    (package / "new.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (package / "notes.txt").write_text("not code\n", encoding="utf-8")
    against("HEAD", root=tmp_path)
    lines = capsys.readouterr().out.splitlines()
    one, two, big = compile_kib("x = 1\n"), compile_kib("x = 1\ny = 2\n"), compile_kib(SOURCE)
    assert lines[0].split() == ["code", "lines", "AST", "nodes", "compile", "peak", "(KiB)"]
    assert lines[1].split() == ["ref", "tree", "change"] * 3
    assert [line.split() for line in lines[2:]] == [
        ["1", "0", "-1", "5", "0", "-5", str(one), "0", f"-{one}", "gone.py"],
        ["1", "14", "+13", "5", "36", "+31", str(one), str(big), f"+{big - one}", "kept.py"],
        ["0", "2", "+2", "0", "9", "+9", "0", str(two), f"+{two}", "new.py"],
        # code lines and nodes are summed; the compile peak is the largest,
        # and the row names its module at the revision and in the tree (of
        # two equal peaks, the first)
        ["2", "16", "+14", "10", "45", "+35", str(one), str(big), f"+{big - one}", "total",
         "(largest", "peak:", "gone.py", "->", "kept.py)"],
    ]


def test_main_passes_against_its_revision(monkeypatch):
    seen = []
    monkeypatch.setattr("code_lines.against", seen.append)
    main(["--against", "v1"])
    assert seen == ["v1"]
