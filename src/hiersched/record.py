"""The workload model and the trace record, which the simulator writes and
the verifier reads.

A `Workload` is the demand shape an application presents: PERIODIC jobs,
CPU_BOUND work that never runs out, or BURSTY on/off arrivals.

A `Trace` is what a run did. The simulator holds each pick until its next
decision point, so a stretch of ticks with one runner goes into the trace
as one RUN or IDLE segment (start, end, app); the simulator sums each app's
service and the idle ticks from them, and budget exhaustion and deadline
misses are rows at the tick they happen. `Trace.to_csv` expands the
segments to one row per tick, byte for byte what a tick-by-tick loop writes
(tests/engine_reference.py keeps one). `hiersched.verify` reads the record
alone, never the simulator that wrote it.
"""

from __future__ import annotations

import csv
import io
from collections import namedtuple
from enum import Enum


class EngineError(Exception):
    pass


class WorkloadKind(Enum):
    PERIODIC = "PERIODIC"
    CPU_BOUND = "CPU_BOUND"
    BURSTY = "BURSTY"


class Workload(namedtuple("Workload", "kind period wcet offset on off")):
    """Synthetic demand shape an application presents to the scheduler."""

    __slots__ = ()

    def __new__(cls, kind: WorkloadKind, period: int | None = None,
                wcet: int | None = None, offset: int = 0, on: int | None = None,
                off: int | None = None):
        if kind is WorkloadKind.PERIODIC:
            if period is None or wcet is None:
                raise EngineError("PERIODIC needs period and wcet")
            if not 0 < wcet <= period:
                raise EngineError("PERIODIC needs 0 < wcet <= period")
            if offset < 0:
                raise EngineError("offset must be >= 0")
        elif kind is WorkloadKind.BURSTY:
            if on is None or off is None or on < 1 or off < 1:
                raise EngineError("BURSTY needs on > 0 and off > 0")
        return super().__new__(cls, kind, period, wcet, offset, on, off)

    _make = classmethod(lambda cls, values: cls(*values))  # so `_replace` validates


def _on_before(w, n):
    """On-ticks of BURSTY shape `w` among phase-relative ticks [0, n); a
    running count, so differences give the on-ticks of any range."""
    q, r = divmod(n, w.on + w.off)
    return q * w.on + min(r, w.on)


class EventKind(Enum):
    DEPLOY = "DEPLOY"
    UNDEPLOY = "UNDEPLOY"
    REPLENISH = "REPLENISH"
    RUN = "RUN"
    IDLE = "IDLE"
    BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"
    DEADLINE_MISS = "DEADLINE_MISS"


# fixed intra-tick ordering
_RANK = {
    EventKind.DEPLOY: 0,
    EventKind.UNDEPLOY: 0,
    EventKind.REPLENISH: 1,
    EventKind.RUN: 2,
    EventKind.IDLE: 2,
    EventKind.BUDGET_EXHAUSTED: 3,
    EventKind.DEADLINE_MISS: 4,
}


SimEvent = namedtuple("SimEvent", "tick kind app node_id node_path detail",
                      defaults=("", None, "", ""))


class AppTraceInfo(namedtuple(
        "AppTraceInfo", "app_id node_id node_path leaf_policy requested awarded "
        "weight_ppm quantum deployed_at undeployed_at hard_capped backlog")):
    """Static facts the verifier needs about one admitted application.

    `requested` and `awarded` are its Contracts, `undeployed_at` is None
    for an app live to the horizon, `hard_capped` is true for its own RESBH
    award or any ancestor granted RESBH, and `backlog` is the list of merged
    [start, end) intervals of its pending demand."""

    __slots__ = ()


def _csv_line(fields) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(fields)
    return out.getvalue()


class Trace(namedtuple(
        "Trace", "horizon events per_app_service idle_ticks app_info decisions segments",
        defaults=((),))):
    """What a run did. RUN and IDLE are run-length `segments`: `(start, end,
    app)` covers ticks [start, end), `app` None for idle. A run's segments
    are non-empty and disjoint and tile [0, horizon) in tick order, which is
    what `hiersched.verify` reads them as. `events` holds every other row,
    in the order the CSV writes them. `decisions` holds (tick, app_id,
    DeploymentDecision) in timeline order."""

    __slots__ = ()

    def to_csv(self) -> str:
        """One row per event and one RUN or IDLE row per tick of a segment,
        ordered by tick and then by `_RANK`. The text is made once: each
        block of rows is appended in place to one str, so the peak is the
        text and a block, where a buffer's `getvalue()` would copy it all."""
        text = ""
        for block in self._blocks():
            # only this frame holds `text`, so CPython appends in place once
            # it has specialized this `+=`, a few turns into the loop; the
            # last block comes here too, as a `+=` run once stays a copy
            text += block
        return text

    def _blocks(self):
        """`to_csv`'s text, in blocks of the rows of 512 ticks: small, as
        `to_csv` copies the blocks it takes before its `+=` is specialized."""
        # each runner's row after the tick, made before the writer below: a
        # `csv.writer` allocates a 128 KiB row buffer at its first row, and
        # one at a time is live this way
        tails = {None: _csv_line(["", "IDLE", "", "", ""])}
        for app in {app for _, _, app in self.segments} - tails.keys():
            info = self.app_info.get(app)
            tails[app] = _csv_line(["", "RUN", app, info.node_path if info else "", ""])
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["tick", "event", "app", "node_path", "detail"])
        rows, i, limit = self.events, 0, 0
        # the first tick whose RUN or IDLE row each row comes before; taken
        # once per row, as hashing an Enum member for `_RANK` runs Python.
        # Past the last row, the horizon: no RUN or IDLE row reaches it
        after = [e.tick + (_RANK[e.kind] > 2) for e in rows] + [self.horizon]
        for t, end, app in self.segments:
            tail = tails[app]
            while t < end:
                if t >= limit:
                    yield out.getvalue()
                    # empty the buffer; `truncate()` would turn it to 4
                    # bytes a character
                    out.__init__()
                    limit = t + 512
                # the rows that come before the RUN or IDLE row of tick t
                while after[i] <= t:
                    e = rows[i]
                    w.writerow([e.tick, e.kind.value, e.app, e.node_path, e.detail])
                    i += 1
                stop = min(end, after[i], limit)
                out.write(tail.join(map(str, range(t, stop))) + tail)
                t = stop
        w.writerows([e.tick, e.kind.value, e.app, e.node_path, e.detail]
                    for e in rows[i:])
        # free the writer's 128 KiB row buffer before `to_csv` appends the
        # last block
        del w
        yield out.getvalue()
