"""Post-hoc guarantee checking over simulation traces.

The simulator promises are checked from the trace alone, never from the
scheduler's internal state: reservations must see their budget in every
aligned window they spent fully backlogged, hard reservations must never
exceed it, proportional shares must track their relative weight within a
bounded lag, and every tick must be accounted for exactly once.
"""

from __future__ import annotations

import bisect
import heapq
from enum import Enum
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .contracts import Contract, ServiceClass
from .engine import Trace


class VerifyError(Exception):
    pass


class ViolationKind(Enum):
    UNDER_SUPPLY = "UNDER_SUPPLY"
    OVER_CAP = "OVER_CAP"
    LAG_EXCEEDED = "LAG_EXCEEDED"
    NON_CONSERVING = "NON_CONSERVING"


class Violation(NamedTuple):
    kind: ViolationKind
    app_id: str
    window: tuple  # [start, end)
    expected: object
    observed: object

    def line(self) -> str:
        who = self.app_id if self.app_id else "-"
        return (
            f"{self.kind.value} app={who} "
            f"window=[{self.window[0]},{self.window[1]}) "
            f"expected={self.expected} observed={self.observed}"
        )


class GuaranteeReport(NamedTuple):
    violations: tuple
    conservation_ok: bool

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


def _ticks_below(spans, points):
    """For each of the ascending `points`, the ticks below it that the
    [start, end) `spans` cover, a tick counted once per span over it.

    The count grows by the number of open spans per tick, so one pass over
    the sorted span endpoints gives every prefix sum."""
    edges = sorted([(s, 1) for s, e in spans if s < e]
                   + [(e, -1) for s, e in spans if s < e])
    i = covered = slope = 0
    pos = edges[0][0] if edges else 0
    for x in points:
        while i < len(edges) and edges[i][0] <= x:
            covered += slope * (edges[i][0] - pos)
            pos, d = edges[i]
            slope += d
            i += 1
        yield covered + slope * (x - pos)


def check_reservation(trace: Trace, app_id: str, grant: Contract,
                      demand_windows) -> list:
    """Windowed supply check for one reservation grant.

    UNDER_SUPPLY: a full aligned window that lies entirely inside a demand
    interval delivered less than the budget. OVER_CAP (hard grants only):
    any aligned window delivered more than the budget, demand or not.

    `demand_windows` are sorted, non-overlapping [start, end) intervals, as
    in `AppTraceInfo.backlog`. The service of every window comes from
    prefix sums over the app's RUN segments, and the windows ascend, so one
    forward cursor over the demand intervals finds the one that could cover
    each window: O(s log s + windows + intervals) for s segments.
    """
    if not grant.is_reservation():
        raise VerifyError(
            f"check_reservation needs a reservation grant, got {grant.service.name}"
        )
    runs = [(s, e) for s, e, app in trace.segments if app == app_id]
    x, y = grant.budget, grant.period
    bounds = list(range(0, trace.horizon, y)) + [trace.horizon]
    below = list(_ticks_below(runs, bounds))
    out = []
    i = 0
    for k, a in enumerate(bounds[:-1]):
        b = a + y
        full = b <= trace.horizon
        got = below[k + 1] - below[k]
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


class _ShareLeaf(NamedTuple):
    """What the share checks of one leaf have in common: its share-holders
    (the peers), their RUN segments as `_runners` gives them, and the leaf's
    pieces. A piece is a maximal [start, end) range in which the set of
    backlogged peers is the same and not empty, carried as (start, end, that
    set, its summed weight)."""

    peers: dict
    runners: list
    pieces: list


def _share_leaf(trace: Trace, node_path: str) -> _ShareLeaf:
    """Build the `_ShareLeaf` of `node_path` in one sweep over its peers'
    backlog endpoints, clipped to [0, horizon): the backlogged set can change
    only there. Rows outside the horizon fall outside every piece."""
    peers = {
        i.app_id: i for i in trace.app_info.values()
        if i.node_path == node_path and i.weight_ppm > 0
    }
    horizon = trace.horizon
    edges = {}  # tick -> {peer: net change of its backlog count}
    for p, info in peers.items():
        for s, e in info.backlog:
            s, e = max(s, 0), min(e, horizon)
            if s < e:
                for t, d in ((s, 1), (e, -1)):
                    at = edges.setdefault(t, {})
                    at[p] = at.get(p, 0) + d
    count = dict.fromkeys(peers, 0)
    present = set()
    weight = 0
    pieces = []
    start = None
    for t in sorted(edges):
        flips = []
        for p, d in edges[t].items():
            if (count[p] > 0) != (count[p] + d > 0):
                flips.append(p)
            count[p] += d
        if not flips:
            continue
        if start is not None:
            pieces.append((start, t, frozenset(present), weight))
        for p in flips:
            if p in present:
                present.remove(p)
                weight -= peers[p].weight_ppm
            else:
                present.add(p)
                weight += peers[p].weight_ppm
        start = t if present else None
    if start is not None:
        pieces.append((start, horizon, frozenset(present), weight))
    return _ShareLeaf(peers, _runners(trace.segments, peers), pieces)


def _runners(segments, apps):
    """The RUN segments of `apps`, made disjoint, as (start, end, app) in
    tick order. Where segments overlap, the one listed last holds the tick.

    A simulation's segments are disjoint already; overlapping ones (from
    hand-built traces) are resolved by a sweep over their endpoints with a
    heap of the open segments, latest listed on top."""
    segs = [g for g in segments if g[2] in apps and g[0] < g[1]]
    if all(a[1] <= b[0] for a, b in zip(segs, segs[1:])):
        return segs
    points = sorted({p for g in segs for p in g[:2]})
    order = sorted(range(len(segs)), key=lambda k: segs[k][0])
    heap, out, j = [], [], 0
    for x, nxt in zip(points, points[1:]):
        while j < len(order) and segs[order[j]][0] <= x:
            heapq.heappush(heap, -order[j])
            j += 1
        while heap and segs[-heap[0]][1] <= x:
            heapq.heappop(heap)
        if heap:
            app = segs[-heap[0]][2]
            if out and out[-1][1] == x and out[-1][2] == app:
                out[-1] = (out[-1][0], nxt, app)
            else:
                out.append((x, nxt, app))
    return out


def check_share(trace: Trace, app_id: str, share_ppm: int, quantum: int) -> list:
    """Lag check for one proportional-share app.

    Over each maximal run of ticks where the app stays backlogged and the
    set of backlogged share-holders on its leaf (the members) stays
    constant, the app's service must track its relative weight of the
    members' service within quantum * (number of members) ticks. One
    violation is reported per such run. A `share_ppm` of zero or less and
    a negative `quantum` are refused.

    Nothing walks the horizon. The runs are the leaf's pieces that hold the
    app (`_share_leaf`). Within a run the lag moves only while a member
    runs, by the same step on each tick of one RUN segment, so the first
    tick at which it leaves the bound is found per segment in closed form,
    in integers: |obs * W - share_ppm * group| > tolerance * W, W being the
    members' summed weight. The lag is also tested at the run's first tick.
    `build_report` builds each leaf once for all the apps it checks there.
    """
    info = trace.app_info.get(app_id)
    if info is None:
        raise VerifyError(f"trace has no app {app_id!r}")
    return _check_share(_share_leaf(trace, info.node_path), app_id, share_ppm,
                        quantum)


def _check_share(leaf, app_id, share_ppm, quantum):
    """`check_share` of `app_id` against its leaf, built."""
    if app_id not in leaf.peers:
        raise VerifyError(f"app {app_id!r} holds no share on its leaf")
    if share_ppm <= 0:
        raise VerifyError("share_ppm must be positive")
    if quantum < 0:
        raise VerifyError("quantum must be >= 0")
    runners = leaf.runners
    out = []
    for start, end, members, weight in leaf.pieces:
        if app_id not in members:
            continue
        limit = quantum * len(members) * weight
        lag = group = obs = 0  # lag = obs * weight - share_ppm * group
        k = max(bisect.bisect_right(runners, start, key=itemgetter(0)) - 1, 0)
        while k < len(runners) and runners[k][0] < end:
            a, b, runner = runners[k]
            k += 1
            a, b = max(a, start), min(b, end)
            if b <= a or runner not in members:
                continue
            mine = runner == app_id
            step = weight - share_ppm if mine else -share_ppm
            # ticks of this segment until the lag first leaves the bound
            if step > 0:
                j = (limit - lag) // step + 1
            elif step < 0:
                j = (limit + lag) // -step + 1
            else:
                j = b - a + 1
            if j <= b - a:
                group += j
                obs += j if mine else 0
                out.append(Violation(
                    ViolationKind.LAG_EXCEEDED, app_id, (start, a + j),
                    Fraction(share_ppm, weight) * group, obs,
                ))
                break
            lag += step * (b - a)
            group += b - a
            obs += b - a if mine else 0
    return out


def check_conservation(trace: Trace) -> list:
    """Single-CPU accounting: exactly one RUN or IDLE per tick, and no idling
    while an application that nothing hard-caps is backlogged.

    One sweep over the segment endpoints gives the ranges of ticks with the
    same number of rows and of IDLE rows; a segment reaching outside
    [0, horizon) is an error.
    """
    edges = {}  # tick -> [net change of rows, net change of IDLE rows]
    for s, e, app in trace.segments:
        if s >= e:
            continue
        if s < 0 or e > trace.horizon:
            raise VerifyError(
                f"{'IDLE' if app is None else 'RUN'} row at tick "
                f"{s if s < 0 else max(s, trace.horizon)} lies outside "
                f"the horizon [0,{trace.horizon})"
            )
        for t, d in ((s, 1), (e, -1)):
            at = edges.setdefault(t, [0, 0])
            at[0] += d
            at[1] += d if app is None else 0
    rows = idle = 0
    pieces = []  # (start, end, rows, IDLE rows), covering [0, horizon)
    cuts = sorted(set(edges) | {0, trace.horizon})
    for a, b in zip(cuts, cuts[1:]):
        if a in edges:
            rows += edges[a][0]
            idle += edges[a][1]
        pieces.append((a, b, rows, idle))

    out = []
    miscounted = []  # maximal windows of ticks without exactly one row
    for a, b, n, _ in pieces:
        if n == 1:
            continue
        if miscounted and miscounted[-1][1] == a:
            miscounted[-1][1] = b
        else:
            miscounted.append([a, b, n])
    for a, b, n in miscounted:
        out.append(Violation(ViolationKind.NON_CONSERVING, "", (a, b), 1, n))

    free = _merge(sorted(
        iv for i in trace.app_info.values() if not i.hard_capped
        for iv in i.backlog
    ))
    wasted = []
    j = 0
    for a, b, _, n in pieces:
        while n and j < len(free) and a < b:
            s, e = free[j]
            if e <= a:
                j += 1
                continue
            if s >= b:
                break
            lo, hi = max(a, s), min(b, e)
            if lo < hi:
                _extend_wasted(wasted, lo, hi, n)
            a = max(a, hi)
    for a, b in wasted:
        out.append(Violation(ViolationKind.NON_CONSERVING, "", (a, b), 0, 1))
    return out


def _extend_wasted(windows, a, b, n):
    """Add the idle ticks [a, b), each with `n` IDLE rows, to `windows`.

    A tick's first row continues the window that ends at it; each further
    row of that tick opens a window of its own, and the last one opened is
    the window the next tick continues."""
    if n == 1:
        if windows and windows[-1][1] == a:
            windows[-1] = (windows[-1][0], b)
        else:
            windows.append((a, b))
        return
    for t in range(a, b):
        _extend_wasted(windows, t, t + 1, 1)
        windows.extend([(t, t + 1)] * (n - 1))


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
    leaves = {}  # node path -> _ShareLeaf, built for its first PS grant
    for app_id in sorted(grants):
        grant = grants[app_id]
        info = trace.app_info.get(app_id)
        if info is None:
            raise VerifyError(f"grant references app {app_id!r} absent from trace")
        if grant.is_reservation():
            violations += check_reservation(trace, app_id, grant, info.backlog)
        elif grant.service is ServiceClass.PS:
            leaf = leaves.get(info.node_path)
            if leaf is None:
                leaf = leaves[info.node_path] = _share_leaf(trace, info.node_path)
            violations += _check_share(leaf, app_id, info.weight_ppm, info.quantum)
    conservation = check_conservation(trace)
    violations += conservation
    return GuaranteeReport(
        violations=tuple(sorted(violations, key=_sort_key)),
        conservation_ok=not conservation,
    )
