"""tests/traffic.py, run on a small module written for the test."""

import importlib
import sys
import textwrap

import traffic

SAMPLE = textwrap.dedent('''\
    """Never run: a docstring has no code."""


    def used(x):
        if x:
            return 1
        y = 2
        return y


    def unused():
        return 3


    class K:
        @staticmethod
        def m():
            return 4

        def n(self):
            def inner():
                return 5
            return [i for i in range(2)]
    ''')


def test_traffic_names_what_a_run_never_reaches(tmp_path, monkeypatch):
    (tmp_path / "traffic_sample.py").write_text(SAMPLE)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "traffic_sample", raising=False)

    def work():
        sample = importlib.import_module("traffic_sample")
        sample.used(True)
        sample.K().n()

    before = sys.gettrace()
    ran = traffic.trace(tmp_path, work)
    assert sys.gettrace() is before
    sys.modules.pop("traffic_sample")
    assert traffic.report(tmp_path, ran) == (
        "traffic_sample.py\n"
        "  functions never entered: unused, K.m, K.n.<locals>.inner\n"
        "  lines never executed: 7-8\n"
        "  conditions with one outcome:\n"
        "    5 x: only true\n"
    )


def test_a_file_that_never_ran_misses_every_line(tmp_path):
    """Each line of it shows, but those of a function never entered."""
    (tmp_path / "traffic_sample.py").write_text("x = 1\n\n\ndef f():\n    return x\n")
    assert traffic.report(tmp_path, traffic.trace(tmp_path, lambda: None)) == (
        "traffic_sample.py\n"
        "  functions never entered: f\n"
        "  lines never executed: 1\n"
        "  conditions with one outcome: -\n"
    )


CONDITIONS = textwrap.dedent('''\
    def both(a, b):
        if a and b:
            return 1
        return 0


    def cut_short(a, b):
        if a and b:
            return 1
        return 0


    def every_way(a, b):
        if a and b:
            return 1
        return 0


    def count(n):
        while n > 0:
            n -= 1
        return n


    def default(x):
        if x is None:
            return 0
        return x
    ''')


def test_a_condition_one_way_shows_though_its_line_ran(tmp_path, monkeypatch):
    """Each line runs, so only the conditions show: `b`, only ever true;
    `a`, only ever false, and the `b` after it, which was never tested;
    `x`, never None. A condition taken both ways does not show, nor does a
    `while` whose test at its top only passed, as the same test at its end
    failed."""
    (tmp_path / "traffic_sample.py").write_text(CONDITIONS)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "traffic_sample", raising=False)

    def work():
        sample = importlib.import_module("traffic_sample")
        sample.both(True, True)
        sample.both(False, True)
        sample.cut_short(False, True)
        for a, b in [(True, True), (True, False), (False, True)]:
            sample.every_way(a, b)
        sample.count(2)
        sample.default(3)

    ran = traffic.trace(tmp_path, work)
    sys.modules.pop("traffic_sample")
    assert traffic.report(tmp_path, ran) == (
        "traffic_sample.py\n"
        "  functions never entered: -\n"
        "  lines never executed: 9, 27\n"
        "  conditions with one outcome:\n"
        "    2 b: only true\n"
        "    8 a: only false\n"
        "    8 b: never tested\n"
        "    26 x: only not None\n"
    )
