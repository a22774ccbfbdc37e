"""Fixed reference work that gauges how fast the machine runs Python now.

The benchmark runs this in a fresh process next to every measured run and
divides the run's wall time by this one's. On a shared host the speed of a
process drifts by tens of percent over minutes; the ratio cancels that
drift, because both processes run at the same moment on the same machine.

Standard library only, and independent of hiersched, so that a change to
the program cannot change it. The mix mirrors what hiersched spends its
time on: dict and list churn, small objects, exact fractions, deep copies
and CSV text.
"""

import copy
import csv
import io
import random
from fractions import Fraction


class _Slot:
    __slots__ = ("app", "share", "tags")

    def __init__(self, app, share, tags):
        self.app = app
        self.share = share
        self.tags = tags


def work():
    rng = random.Random(0)
    tree = {n: [_Slot(f"app{a}", Fraction(a, 97), {"c": a}) for a in range(20)]
            for n in range(40)}
    counts = {}
    total = Fraction(0)
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    for i in range(120_000):
        k = rng.randrange(500)
        counts[k] = counts.get(k, 0) + 1
        if i % 40 == 0:
            total += Fraction(k % 7 + 1, 13)
        if i % 4 == 0:
            rows.writerow([i, "RUN", f"app{k}", "root/leaf", ""])
    for _ in range(6):
        copy.deepcopy(tree)
    return len(out.getvalue()) + len(sorted(counts.items())) + total.denominator


if __name__ == "__main__":
    work()
