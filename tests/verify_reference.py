"""The verifier's checks as they were before the sweep rewrite, kept as a
reference for the differential test in test_verify_equivalence.py.

Everything below the imports is copied unchanged from the earlier
`hiersched.verify`: `check_share` walks every tick of the horizon and probes
every peer's backlog cursor, `_covered` scans every demand interval for each
window, and `check_conservation` indexes its per-tick counts without a
range check. Do not edit or optimise it; its value is that it is the old,
obviously correct code. One rule has changed since, here as in
`hiersched.verify`: the lag tolerance counts the backlogged share-holders of
the segment, not every share-holder ever seen on the leaf.

It reads RUN and IDLE as per-tick rows in `trace.events`, the trace format
before segments; `helpers.rows` turns a trace back into that format.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

from hiersched.contracts import Contract, ServiceClass
from hiersched.engine import EventKind, Trace
from hiersched.verify import (
    GuaranteeReport,
    Violation,
    ViolationKind,
    VerifyError,
    _sort_key,
)


def _run_ticks(trace: Trace, app_id: str):
    return [
        e.tick for e in trace.events
        if e.kind is EventKind.RUN and e.app == app_id
    ]


def _covered(window, intervals) -> bool:
    a, b = window
    return any(s <= a and b <= e for s, e in intervals)


def check_reservation(trace: Trace, app_id: str, grant: Contract,
                      demand_windows) -> list:
    """Windowed supply check for one reservation grant.

    UNDER_SUPPLY: a full aligned window that lies entirely inside a demand
    interval delivered less than the budget. OVER_CAP (hard grants only):
    any aligned window delivered more than the budget, demand or not.
    """
    if not grant.is_reservation():
        raise VerifyError(
            f"check_reservation needs a reservation grant, got {grant.service.name}"
        )
    runs = _run_ticks(trace, app_id)
    x, y = grant.budget, grant.period
    out = []

    def observed(a, b):
        return bisect.bisect_left(runs, b) - bisect.bisect_left(runs, a)

    k = 0
    while k * y < trace.horizon:
        a, b = k * y, (k + 1) * y
        full = b <= trace.horizon
        got = observed(a, min(b, trace.horizon))
        if full and _covered((a, b), demand_windows) and got < x:
            out.append(Violation(ViolationKind.UNDER_SUPPLY, app_id, (a, b), x, got))
        if grant.service is ServiceClass.RESBH and got > x:
            out.append(Violation(
                ViolationKind.OVER_CAP, app_id, (a, min(b, trace.horizon)), x, got,
            ))
        k += 1
    return out


class _IntervalCursor:
    """Membership test for sorted disjoint intervals, queried at rising ticks."""

    def __init__(self, intervals):
        self.intervals = list(intervals)
        self.i = 0

    def contains(self, t) -> bool:
        while self.i < len(self.intervals) and self.intervals[self.i][1] <= t:
            self.i += 1
        if self.i == len(self.intervals):
            return False
        s, e = self.intervals[self.i]
        return s <= t < e


def check_share(trace: Trace, app_id: str, share_ppm: int, quantum: int,
                n_siblings: int | None = None) -> list:
    """Lag check for one proportional-share app.

    Over each maximal run of ticks where the app stays backlogged and the
    set of backlogged share-holders on its leaf stays constant, the app's
    service must track its relative weight of the group's service within
    quantum * n_siblings ticks, n_siblings being the number of backlogged
    share-holders unless given. One violation is reported per such run.
    """
    info = trace.app_info.get(app_id)
    if info is None:
        raise VerifyError(f"trace has no app {app_id!r}")
    peers = {
        i.app_id: i for i in trace.app_info.values()
        if i.node_path == info.node_path and i.weight_ppm > 0
    }
    if app_id not in peers:
        raise VerifyError(f"app {app_id!r} holds no share on its leaf")
    if share_ppm <= 0:
        raise VerifyError("share_ppm must be positive")

    run_at = {}
    for e in trace.events:
        if e.kind is EventKind.RUN and e.app in peers:
            run_at[e.tick] = e.app
    cursors = {p: _IntervalCursor(peers[p].backlog) for p in peers}

    out = []
    members = None
    rel = Fraction(0)
    group = obs = seg_start = 0
    flagged = False
    for t in range(trace.horizon):
        present = frozenset(p for p in peers if cursors[p].contains(t))
        if app_id not in present:
            members = None
            continue
        if present != members:
            members = present
            group = obs = 0
            seg_start = t
            flagged = False
            rel = Fraction(share_ppm, sum(peers[p].weight_ppm for p in present))
            tolerance = quantum * (n_siblings if n_siblings is not None else len(present))
        runner = run_at.get(t)
        if runner in present:
            group += 1
            if runner == app_id:
                obs += 1
        if not flagged and abs(obs - rel * group) > tolerance:
            out.append(Violation(
                ViolationKind.LAG_EXCEEDED, app_id, (seg_start, t + 1),
                rel * group, obs,
            ))
            flagged = True
    return out


def _tick_runs(ticks):
    """Merge an ascending tick list into maximal [start, end) windows."""
    out = []
    for t in ticks:
        if out and t == out[-1][1]:
            out[-1] = (out[-1][0], t + 1)
        else:
            out.append((t, t + 1))
    return out


def check_conservation(trace: Trace) -> list:
    """Single-CPU accounting: exactly one RUN or IDLE per tick, and no idling
    while an application that nothing hard-caps is backlogged."""
    out = []
    per_tick = [0] * trace.horizon
    idle_ticks = []
    for e in trace.events:
        if e.kind in (EventKind.RUN, EventKind.IDLE):
            per_tick[e.tick] += 1
            if e.kind is EventKind.IDLE:
                idle_ticks.append(e.tick)

    miscounted = [t for t in range(trace.horizon) if per_tick[t] != 1]
    for a, b in _tick_runs(miscounted):
        out.append(Violation(
            ViolationKind.NON_CONSERVING, "", (a, b), 1, per_tick[a],
        ))

    free_demand = sorted(
        iv for i in trace.app_info.values() if not i.hard_capped
        for iv in i.backlog
    )
    cursor = _IntervalCursor(_merge(free_demand))
    wasted = [t for t in idle_ticks if cursor.contains(t)]
    for a, b in _tick_runs(wasted):
        out.append(Violation(ViolationKind.NON_CONSERVING, "", (a, b), 0, 1))
    return out


def _merge(intervals):
    merged = []
    for s, e in intervals:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def build_report(trace: Trace, grants: dict) -> GuaranteeReport:
    """Check every grant against the trace and fold in conservation.

    `grants` maps app id to the contract the deployment awarded it.
    BE and NULL grants promise nothing, so nothing is checked for them.
    """
    violations = []
    for app_id in sorted(grants):
        grant = grants[app_id]
        info = trace.app_info.get(app_id)
        if info is None:
            raise VerifyError(f"grant references app {app_id!r} absent from trace")
        if grant.is_reservation():
            violations += check_reservation(trace, app_id, grant, info.backlog)
        elif grant.service is ServiceClass.PS:
            violations += check_share(trace, app_id, info.weight_ppm, info.quantum)
    conservation = check_conservation(trace)
    violations += conservation
    return GuaranteeReport(
        violations=tuple(sorted(violations, key=_sort_key)),
        conservation_ok=not conservation,
    )
