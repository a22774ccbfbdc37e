"""Post-hoc guarantee checking over simulation traces.

The simulator's promises are checked against the trace: reservations must
see their budget in every aligned window they spent fully backlogged, hard
reservations must never exceed it, proportional shares must track their
relative weight within a bounded lag, and every tick must be accounted for
exactly once. Service is read from the trace's RUN and IDLE segments, but
not all of the evidence is the trace's own: each app's demand
(`AppTraceInfo.backlog`) and whether a hard grant caps it
(`AppTraceInfo.hard_capped`) come from the engine's own record, so an
engine that under-reports demand hides its own faults, and no node grant is
checked. ROADMAP item 12 derives both from the trace.

Each check reads what it checks from the trace: `check_reservation(trace,
app_id)` the app's award and backlog, `check_share(trace, node_path)` each
PS holder's weight and quantum, `check_conservation(trace)` the segments
and the backlogs. `build_report` only composes the three.

The checks read the trace as the engine writes it: RUN and IDLE segments
that are non-empty, disjoint, in tick order and inside [0, horizon).
`check_share`, `check_conservation` and `build_report` refuse any other
trace with a `VerifyError` that names the first tick at fault; a tick that
no segment covers is a NON_CONSERVING violation, not an error.
`check_reservation` counts each segment on its own and takes any trace.

The share check walks each piece of a share leaf once, for all the leaf's
holders at once: a heap keeps, per holder, the group tick at which its lag
would pass the bound if it did not run again, which stays fixed until it
runs. A leaf costs O(segments * log holders), not a walk per holder.
"""

from __future__ import annotations

import bisect
import heapq
from collections import namedtuple
from enum import Enum
from operator import itemgetter

from .contracts import ServiceClass
from .record import Trace


class VerifyError(Exception):
    pass


class ViolationKind(Enum):
    UNDER_SUPPLY = "UNDER_SUPPLY"
    OVER_CAP = "OVER_CAP"
    LAG_EXCEEDED = "LAG_EXCEEDED"
    NON_CONSERVING = "NON_CONSERVING"


class Violation(namedtuple("Violation", "kind app_id window expected observed")):
    """One broken guarantee: its kind, the app ("" for none) and the
    [start, end) window, with the service expected there and observed."""

    __slots__ = ()

    def line(self) -> str:
        who = self.app_id if self.app_id else "-"
        return (
            f"{self.kind.value} app={who} "
            f"window=[{self.window[0]},{self.window[1]}) "
            f"expected={self.expected} observed={self.observed}"
        )


class GuaranteeReport(namedtuple("GuaranteeReport", "violations conservation_ok")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        head = (
            f"violations={len(self.violations)} "
            f"conservation={'ok' if self.conservation_ok else 'broken'}"
        )
        return "\n".join([head] + [v.line() for v in self.violations]) + "\n"


def _sort_key(v: Violation):
    return (v.app_id, v.window[0], v.window[1], v.kind.value)


def _segments(trace: Trace) -> list:
    """`trace.segments`, once they are known to be non-empty, disjoint, in
    tick order and inside [0, horizon). The first segment that breaks this
    raises `VerifyError` naming the tick at fault: its start, or for one
    past the horizon the first tick past it."""
    end = 0  # where the last good segment ends
    for s, e, app in trace.segments:
        if s < 0 or e > trace.horizon:
            at = s if s < 0 else max(s, trace.horizon)
            fault = f"lies outside the horizon [0,{trace.horizon})"
        elif s >= e:
            at, fault = s, f"is empty ([{s},{e}))"
        elif s < end:
            at, fault = s, f"overlaps or precedes the segment ending at {end}"
        else:
            end = e
            continue
        raise VerifyError(
            f"{'IDLE' if app is None else 'RUN'} segment at tick {at} {fault}"
        )
    return trace.segments


def check_reservation(trace: Trace, app_id: str) -> list:
    """Windowed supply check for the reservation grant of one app: its
    `AppTraceInfo.awarded`, against its demand, the `backlog` intervals.

    UNDER_SUPPLY: a full aligned window that lies entirely inside a demand
    interval delivered less than the budget. OVER_CAP (hard grants only):
    any aligned window delivered more than the budget, demand or not.

    A window is inside the demand when one interval covers it; touching
    intervals are not joined. Each of the app's RUN segments, clipped to
    [0, horizon), is added straight into the sums of the aligned windows it
    covers, a tick counted once per segment over it. The windows ascend and
    the demand is sorted (`_demand`), so one forward cursor over it finds
    the one interval that could cover each window, whatever order the
    record holds: O(s + windows + intervals log intervals) for s segments.
    """
    info = trace.app_info.get(app_id)
    if info is None:
        raise VerifyError(f"trace has no app {app_id!r}")
    grant, demand_windows = info.awarded, _demand(info, trace.horizon)
    if not grant.is_reservation():
        raise VerifyError(
            f"check_reservation needs a reservation grant, got {grant.service.name}"
        )
    x, y = grant.budget, grant.period
    served = [0] * -(-trace.horizon // y)  # ticks run in each aligned window
    for s, e, app in trace.segments:
        if app == app_id:
            s, e = max(s, 0), min(e, trace.horizon)
            while s < e:
                b = (s // y + 1) * y  # the end of the window holding s
                served[s // y] += min(b, e) - s
                s = b
    out = []
    i = 0
    for k, got in enumerate(served):
        a = k * y
        b = a + y
        full = b <= trace.horizon
        # an interval that ends before b covers neither this window nor a later one
        while i < len(demand_windows) and demand_windows[i][1] < b:
            i += 1
        covered = i < len(demand_windows) and demand_windows[i][0] <= a
        if full and covered and got < x:
            out.append(Violation(ViolationKind.UNDER_SUPPLY, app_id, (a, b), x, got))
        if grant.service is ServiceClass.RESBH and got > x:
            out.append(Violation(
                ViolationKind.OVER_CAP, app_id, (a, min(b, trace.horizon)), x, got,
            ))
    return out


class _ShareLeaf(namedtuple("_ShareLeaf", "runners pieces")):
    """What the share checks of one leaf have in common: its share-holders'
    RUN segments in tick order (the runners, a list), and the list of the
    leaf's pieces. A piece is a maximal [start, end) range in which the set
    of backlogged peers is the same and not empty, carried as (start, end,
    that set, its summed weight)."""

    __slots__ = ()


def _share_leaf(trace: Trace, node_path: str) -> _ShareLeaf:
    """Build the `_ShareLeaf` of `node_path` in one sweep over its peers'
    backlog endpoints: the backlogged set can change only there. Each peer's
    backlog is first put in normal form, read by `_demand` and merged
    (`_merge`), so every endpoint flips exactly one peer in or out, whatever
    order or overlap the backlog came in. The trace's segments must have
    passed `_segments`."""
    peers = {
        i.app_id: i for i in trace.app_info.values()
        if i.node_path == node_path and i.weight_ppm > 0
    }
    edges = {}  # tick -> the peers that flip there
    for p, info in peers.items():
        for s, e in _merge(_demand(info, trace.horizon)):
            edges.setdefault(s, []).append(p)
            edges.setdefault(e, []).append(p)
    present = set()
    weight = 0
    pieces = []
    start = None
    for t in sorted(edges):
        if start is not None:
            pieces.append((start, t, frozenset(present), weight))
        for p in edges[t]:
            if p in present:
                present.remove(p)
                weight -= peers[p].weight_ppm
            else:
                present.add(p)
                weight += peers[p].weight_ppm
        start = t if present else None
    runners = [g for g in trace.segments if g[2] in peers]
    return _ShareLeaf(runners, pieces)


def _share_terms(info):
    """(share_ppm, quantum) of a PS holder, from its record, once they are
    known to be usable."""
    if info.weight_ppm <= 0:
        raise VerifyError(f"app {info.app_id!r} holds no share on its leaf")
    if info.quantum < 0:
        raise VerifyError("quantum must be >= 0")
    return info.weight_ppm, info.quantum


def check_share(trace: Trace, node_path: str) -> list:
    """Lag check for the proportional-share holders of leaf `node_path`:
    its apps awarded PS, each at the weight and quantum of its record.

    Over each maximal run of ticks where a holder stays backlogged and the
    set of backlogged share-holders on the leaf (the members) stays
    constant, the holder's service must track its relative weight of the
    members' service within quantum * (number of members) ticks. One
    violation is reported per holder and run. A trace whose segments
    overlap, are out of order, are empty or leave [0, horizon) is refused,
    and then, in app order, a holder with no positive weight or a negative
    quantum.

    The runs are the leaf's pieces (`_share_leaf`). Within a piece of W
    summed weight, a holder's lag is obs * W - share_ppm * group, for its
    own service obs and the members' service group: it rises only while the
    holder runs and falls while another member does. So the group tick at
    which it would fall below -limit (limit = quantum * members * W), (obs *
    W + limit) // share_ppm + 1, is fixed until the holder runs again. Those
    ticks are kept in a heap with the obs they were taken at, and an entry
    whose holder has run since is skipped as stale. Each member RUN segment
    pops the ticks it reaches, each a violation, and finds the runner's own
    crossing in closed form, in integers. A holder leaves the walk at its
    first violation in the piece, and the piece's walk ends once none is
    left. Each runner segment is visited once per piece it overlaps, so a
    leaf costs O(segments * log holders) besides one heap entry per holder
    and piece.
    """
    _segments(trace)
    holders = {app_id: _share_terms(info) for app_id, info in sorted(trace.app_info.items())
               if info.node_path == node_path and info.awarded.service is ServiceClass.PS}
    leaf = _share_leaf(trace, node_path)
    runners = leaf.runners
    out = []
    for start, end, members, weight in leaf.pieces:
        n = len(members)
        obs = dict.fromkeys(holders.keys() & members, 0)  # holder -> its ticks
        heap = [(holders[app][1] * n * weight // holders[app][0] + 1, app, 0)
                for app in obs]
        heapq.heapify(heap)
        group = 0
        k = bisect.bisect_right(runners, start, key=itemgetter(1))
        while obs and k < len(runners) and runners[k][0] < end:
            a, b, runner = runners[k]
            k += 1
            if runner not in members:
                continue
            a, b = max(a, start), min(b, end)
            top = group + b - a
            while heap and heap[0][0] <= top:
                due, app, seen = heapq.heappop(heap)
                if app != runner and obs.get(app) == seen:
                    del obs[app]
                    out.append(Violation(
                        ViolationKind.LAG_EXCEEDED, app, (start, a + due - group),
                        _lag_due(holders[app][0], weight, due), seen,
                    ))
            if runner in obs:
                share_ppm, quantum = holders[runner]
                limit = quantum * n * weight
                lag = obs[runner] * weight - share_ppm * group
                step = weight - share_ppm
                # ticks of this segment until the lag first leaves the bound
                if step > 0:
                    j = (limit - lag) // step + 1
                elif step < 0:
                    j = (limit + lag) // -step + 1
                else:
                    j = b - a + 1
                if j <= b - a:
                    out.append(Violation(
                        ViolationKind.LAG_EXCEEDED, runner, (start, a + j),
                        _lag_due(share_ppm, weight, group + j), obs.pop(runner) + j,
                    ))
                else:
                    obs[runner] += b - a
                    heapq.heappush(heap, (
                        (obs[runner] * weight + limit) // share_ppm + 1, runner, obs[runner],
                    ))
            group = top
    return out


def _lag_due(share_ppm, weight, group):
    """A LAG_EXCEEDED row's `expected`: the holder's exact due service,
    share_ppm / weight of the members' `group` ticks."""
    from fractions import Fraction
    return Fraction(share_ppm * group, weight)


def check_conservation(trace: Trace) -> list:
    """Single-CPU accounting: exactly one RUN or IDLE per tick, and no idling
    while an application that nothing hard-caps is backlogged.

    The segments tile [0, horizon) but for gaps, or the trace is refused
    (`_segments`), so one walk over them finds each gap, a window of ticks
    with no row (expected 1, observed 0), and each idle stretch inside the
    merged backlog of the apps that nothing hard-caps (expected 0, observed
    1), stretches that touch merged by `_merge`. Gaps come first, then idle
    stretches, each in tick order.
    """
    free = _merge(sorted(
        iv for i in trace.app_info.values() if not i.hard_capped
        for iv in _demand(i, trace.horizon)
    ))
    gaps, wasted = [], []
    end = j = 0
    for s, e, app in [*_segments(trace), (trace.horizon, trace.horizon, "")]:
        if end < s:
            gaps.append(Violation(ViolationKind.NON_CONSERVING, "", (end, s), 1, 0))
        end = e
        if app is not None:
            continue
        while j < len(free) and free[j][1] <= s:
            j += 1
        k = j
        while k < len(free) and free[k][0] < e:
            wasted.append((max(free[k][0], s), min(free[k][1], e)))
            k += 1
    return gaps + [Violation(ViolationKind.NON_CONSERVING, "", w, 0, 1)
                   for w in _merge(wasted)]


def _demand(info, horizon):
    """An app's demand, its `backlog` clipped to [0, horizon), with empty
    intervals dropped, sorted and not merged: `check_reservation` holds a
    window to one covering interval, and touching ones do not make one."""
    clipped = ((max(s, 0), min(e, horizon)) for s, e in info.backlog)
    return sorted(iv for iv in clipped if iv[0] < iv[1])


def _merge(intervals):
    merged = []
    for s, e in intervals:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def build_report(trace: Trace) -> GuaranteeReport:
    """Check every app's grant against the trace and fold in conservation:
    `check_conservation`, then `check_reservation` for each reservation
    holder and `check_share` for each leaf with a PS holder.

    An app's grant is `trace.app_info[app].awarded`, the last award the run
    gave it, checked over the whole horizon: a window that a mid-run regrant
    splits is held to that final award. BE and NULL grants promise nothing,
    so nothing is checked for them. A trace whose segments overlap, are out
    of order, are empty or leave [0, horizon) is refused (`_segments`), and
    then a PS holder that cannot be checked, in app order, before any leaf
    is walked.
    """
    conservation = check_conservation(trace)  # refuses a malformed trace
    violations = list(conservation)
    leaves = {}  # the paths of the leaves with a PS holder, in app order
    for app_id, info in sorted(trace.app_info.items()):
        grant = info.awarded
        if grant.is_reservation():
            violations += check_reservation(trace, app_id)
        elif grant.service is ServiceClass.PS:
            _share_terms(info)  # refused before any leaf is walked
            leaves[info.node_path] = None
    for node_path in leaves:
        violations += check_share(trace, node_path)
    return GuaranteeReport(
        violations=tuple(sorted(violations, key=_sort_key)),
        conservation_ok=not conservation,
    )
