"""Tick-accurate simulator for a composed scheduler hierarchy.

One CPU, advanced from one decision point to the next. A decision point is a
tick where an input to dispatch can change: a timeline action, a period
boundary of any budget server, a periodic release, an idle BURSTY app
turning on, or, for the running app, the end of its pending work, the
exhaustion of its own or a route node's budget, and the end of a quantum
where the turn passes to a contender: at a round-robin node always, at a
stride node only where the running key would lose the next turn, which the
passes fix in advance. At a decision point timeline actions apply
first, then reservation servers replenish, workloads release work, and the
root dispatches exactly one application (or idles): each node on the way
picks one runnable child by a single precedence rule (`Simulation._pick`),
from its runnable children kept in that rule's order, so dispatch walks one
path from the root to a leaf. Apps (`_AppRT`) and
nodes (`_NodeRT`) are one kind of grant holder: each has a `key`, a
position `pos` at its `parent` node, a `grant`, a budget server (`cap` and
`rem`, None unless the grant is a reservation), the tick `since` of its
first grant, and is `backlogged()` (an app with work pending, a node with a
runnable child). As in Bossa, events keep each node's ready state: `ready`
holds its runnable children, the backlogged holders whose grant is not
NULL nor a spent RESBH. Each event re-checks, at once, only the holders
it can flip, and a set that fills or empties re-checks its node at the
parent, so no pick looks into a subtree. An app goes through one re-check
(`Simulation._recheck`), which also notes its backlog, at its deploy, at
each release and at the charge that drains its work; a server that a
charge empties or a replenish refills, the holders of a compose's grants,
and a leaving app and the leaf it unloads are re-checked where that
happens. Dispatch returns its route, the holder picked at each node, so the
app's own budget is one more server on the route: one loop caps the
stretch by, and charges, every server on it, and the only difference is
the row, BUDGET_EXHAUSTED for a node and none for an app. The pick holds
until the next decision point, so the whole stretch is charged at once: work,
budgets and quantum use move by its length, stride passes by its length
over the share, kept exact as integers (`_NodeRT.scale`). The stretch goes
into the trace as one RUN or IDLE segment (start, end, app), from which
`_finish` sums each app's service and the idle ticks; budget exhaustion and
deadline misses are rows at the tick they happen.
`Trace.to_csv` expands the segments to one row per tick, byte for byte what
a tick-by-tick loop writes (tests/engine_reference.py keeps one). Per
decision, only the apps that can have changed are touched: a calendar holds
each PERIODIC app's next release and each idle BURSTY app's next on-tick,
and one heap of due ticks holds the calendar's ticks and the timeline's,
so the next of either is its top. An undeploy leaves its app's calendar
entry where it is, and the phases skip it. The next period boundary is
kept apart, until a decision reaches it or a timeline action may have
changed the live periods. A phase runs only at the ticks that need it.
Everything is deterministic for a given scenario and seed; the seed's only
job is to phase-shift BURSTY workloads.

Reservation servers replenish at absolute multiples of their period (aligned
to tick 0), so a mid-window deployment starts with a full budget and a short
first window. Each server is filed under its period (`Simulation._servers`),
so a boundary touches only the servers it refills. RESBH budgets are a hard
cap: an exhausted subtree is skipped.
RESBS budgets are a floor: once spent, the app may keep running on slack no
other group claims.
"""

from __future__ import annotations

import csv
import heapq
import io
import random
from collections import namedtuple
from enum import Enum
from math import gcd
from operator import attrgetter

from .contracts import ServiceClass
from .deployment import DeploymentError, DeploymentRequest, Outcome
from .deployment import deploy as _deploy
from .deployment import undeploy as _undeploy
from .hierarchy import Hierarchy, PolicyKind, new_hierarchy


class EngineError(Exception):
    pass


# bound once: reading an Enum member off its class is a descriptor call,
# which the dispatch path would pay per candidate
_NULL, _RESBH, _PS, _BE, _ALL = (
    ServiceClass.NULL, ServiceClass.RESBH, ServiceClass.PS, ServiceClass.BE,
    ServiceClass.ALL,
)
_FIXED_PRIORITY = PolicyKind.FIXED_PRIORITY


class WorkloadKind(Enum):
    PERIODIC = "PERIODIC"
    CPU_BOUND = "CPU_BOUND"
    BURSTY = "BURSTY"


_PERIODIC, _CPU_BOUND, _BURSTY = (
    WorkloadKind.PERIODIC, WorkloadKind.CPU_BOUND, WorkloadKind.BURSTY,
)


class Workload(namedtuple("Workload", "kind period wcet offset on off")):
    """Synthetic demand shape an application presents to the scheduler."""

    __slots__ = ()

    def __new__(cls, kind: WorkloadKind, period: int | None = None,
                wcet: int | None = None, offset: int = 0, on: int | None = None,
                off: int | None = None):
        if kind is _PERIODIC:
            if period is None or wcet is None:
                raise EngineError("PERIODIC needs period and wcet")
            if not 0 < wcet <= period:
                raise EngineError("PERIODIC needs 0 < wcet <= period")
            if offset < 0:
                raise EngineError("offset must be >= 0")
        elif kind is _BURSTY:
            if on is None or off is None or on < 1 or off < 1:
                raise EngineError("BURSTY needs on > 0 and off > 0")
        return super().__new__(cls, kind, period, wcet, offset, on, off)

    _make = classmethod(lambda cls, values: cls(*values))  # so `_replace` validates


def _on_before(w, n):
    """On-ticks of BURSTY shape `w` among phase-relative ticks [0, n); a
    running count, so differences give the on-ticks of any range."""
    q, r = divmod(n, w.on + w.off)
    return q * w.on + min(r, w.on)


def _open(grant, left):
    """Neither a NULL grant nor a RESBH one with no budget `left`."""
    service = grant.service
    return service is not _NULL and not (service is _RESBH and left == 0)


_pos = attrgetter("pos")


def _dispatch_order(holder):
    """A runnable holder's place in `Simulation._pick`'s order: ALL, PS, BE,
    then the reservations, RESBS and RESBH alike, each class by `pos`."""
    service = holder.grant.service
    return service is not _ALL, service is not _PS, service is not _BE, holder.pos


def _used(rt, key):
    """Ticks `key` has used of its current quantum at a node."""
    return rt.active[1] if rt.active is not None and rt.active[0] == key else 0


def _quanta_won(rt, child, left):
    """The whole quanta `child` keeps winning at stride node `rt` after the
    `left` ticks of its current one: its pass grows by its step per tick,
    the contenders' stand still, and it wins while below them (or level
    with a later `pos`). Counted at the scale the charge will use."""
    share, passes = child.grant.share, rt.passes
    m = share // gcd(rt.scale, share)
    step = rt.scale * m // share
    bar = min(passes[c.key] * m + (child.pos < c.pos) for c in rt.contenders if c is not child)
    return max(0, (bar - passes[child.key] * m - left * step - 1) // (rt.quantum * step) + 1)


def _held(rt, cands):
    """The candidate whose quantum at a node is still running, or None."""
    if rt.active is not None:
        for c in cands:
            if c.key == rt.active[0]:
                return c
    return None


class EventKind(Enum):
    DEPLOY = "DEPLOY"
    UNDEPLOY = "UNDEPLOY"
    REPLENISH = "REPLENISH"
    RUN = "RUN"
    IDLE = "IDLE"
    BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"
    DEADLINE_MISS = "DEADLINE_MISS"


_DEPLOY, _UNDEPLOY, _REPLENISH, _BUDGET_EXHAUSTED, _DEADLINE_MISS = (
    EventKind.DEPLOY, EventKind.UNDEPLOY, EventKind.REPLENISH,
    EventKind.BUDGET_EXHAUSTED, EventKind.DEADLINE_MISS,
)

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


class _AppRT:
    """Mutable per-application simulation state. `info` is its trace record
    as fixed at deploy; an undeploy sets its `undeployed_at`. As a grant
    holder it has the fields of `_NodeRT`: `key` is its app id, `pos` its
    deploy order (its position at its leaf), `parent` its leaf's node id,
    `grant` its award, `cap` and `rem` its budget server (None unless the
    award is a reservation) and `since` its deploy tick, that of its first
    grant. `pending` is the work released and not yet run, 0 for CPU_BOUND,
    which is always backlogged; `arrived` (BURSTY only) counts the
    phase-relative on-ticks before the last tick `pending` was brought up
    to."""

    def __init__(self, info, pos, workload, phase_offset):
        self.info = info
        self.key = info.app_id
        self.pos = pos
        self.parent = info.node_id
        self.node_path = info.node_path
        self.grant = self.cap = self.rem = None  # set by Simulation._serve
        self.since = info.deployed_at
        self.workload = workload
        self.phase_offset = phase_offset
        self.pending = 0
        if workload.kind is _BURSTY:
            self.arrived = _on_before(workload, self.since - phase_offset)
        self.backlog: list = []
        self._open = None  # start of the current backlog interval

    def backlogged(self) -> bool:
        return self.workload.kind is _CPU_BOUND or self.pending > 0

    def note_backlog(self, tick, backlogged):
        """Open or close the current backlog interval at `tick`. Events
        within one tick may close and reopen it, or open and close it; only
        what holds when the tick dispatches is recorded."""
        if backlogged and self._open is None:
            if self.backlog and self.backlog[-1][1] == tick:  # closed this tick
                self._open = self.backlog.pop()[0]
            else:
                self._open = tick
        elif not backlogged and self._open is not None:
            if self._open < tick:  # not opened this tick
                self.backlog.append((self._open, tick))
            self._open = None


class _NodeRT:
    """Budget server, runnable children and dispatch state for one node.

    Its holder fields are those of `_AppRT`: `key` and `pos` are both its
    node id (ids grow with attachment), `parent` its parent's id (None at
    the root), `grant` its grant (None until the first; the root, which
    holds the whole CPU, gets none), `cap` and `rem` its budget server (None
    unless the grant is a reservation) and `since` the tick of its first
    grant. It is backlogged while `ready`, which maps the key of each
    runnable child to the child's holder, is not empty. `path` is the
    node's `SchedulerNode.path`, which its REPLENISH and BUDGET_EXHAUSTED
    rows name.
    """

    def __init__(self, node, since):
        self.key = self.pos = node.node_id
        self.parent, self.path = node.parent, node.path
        self.leaf, self.quantum = node.is_leaf(), node.spec.quantum
        self.fp = node.spec.policy is _FIXED_PRIORITY  # a FIXED_PRIORITY leaf
        self.grant = self.cap = self.rem = None
        self.since = since
        self.ready = {}
        self.cands = None  # `ready`'s holders in dispatch order, kept until it changes
        # stride: child node id or app id -> its pass times `scale`, the lcm
        # of the shares charged here, so a charge of n ticks adds
        # n * (scale // share) exactly
        self.passes = {}
        self.scale = 1
        self.contenders = []  # the candidates of the last stride pick, by pos
        self.active = None  # (key, ticks used) for quantum continuity
        self.rr_last = None  # (key, position) that last held the round-robin turn
        self.alone = False  # the last stride/RR pick had no contender

    def backlogged(self) -> bool:
        return bool(self.ready)


class Simulation:
    """Owns a hierarchy plus all runtime state; drives the next-event loop."""

    def __init__(self, horizon: int, seed: int = 0):
        if horizon < 0:
            raise EngineError("horizon must be >= 0")
        self.h = new_hierarchy()
        self.horizon = horizon
        self.rng = random.Random(seed)
        self.decisions: list = []
        self._timeline: dict[int, list] = {}  # tick -> (bound action, *its args)
        self._art: dict[str, _AppRT] = {}
        self._retired: dict[str, _AppRT] = {}  # app id -> runtime, in retire order
        self._rejected: set[str] = set()  # app ids whose last deploy was rejected
        self._nrt = {Hierarchy.ROOT_ID: _NodeRT(self.h.node(Hierarchy.ROOT_ID), 0)}
        # period -> {key: holder} of the live budget servers with that period
        self._servers: dict[int, dict] = {}
        self._boundary = 0  # the first period boundary not before the decision
        # tick -> the apps whose next release (PERIODIC) or next on-tick
        # with nothing pending (BURSTY) falls there; an undeployed app's
        # entry stays, and the phases skip it
        self._calendar: dict[int, list[_AppRT]] = {}
        # a heap of the calendar's and the timeline's ticks; a tick in
        # neither is dropped when it comes to the top
        self._due_ticks: list[int] = []
        self._events: list[SimEvent] = []  # every row but RUN and IDLE
        self._segments: list = []  # (start, end, app or None), in tick order
        self._done = False

    # -------------------------------------------------------------- timeline

    def deploy_at(self, tick, request: DeploymentRequest, workload: Workload):
        self._at(tick, self._do_deploy, request, workload)

    def undeploy_at(self, tick, app_id: str):
        self._at(tick, self._do_undeploy, app_id)

    def _at(self, tick, *action):
        """File `action`, a bound method and the arguments it takes after the
        tick, on the timeline at `tick`, and the tick in `_due_ticks` the
        first time."""
        if not 0 <= tick < self.horizon:
            raise EngineError(
                f"timeline tick {tick} outside the horizon [0, {self.horizon})"
            )
        if tick not in self._timeline:
            heapq.heappush(self._due_ticks, tick)
        self._timeline.setdefault(tick, []).append(action)

    def _do_deploy(self, t, req, workload):
        if req.app_id in self._art:
            raise EngineError(f"app id {req.app_id!r} already live at tick {t}")
        if req.app_id in self._retired:
            raise EngineError(f"app id {req.app_id!r} reused after undeploy")
        if isinstance(req.target_parent, str):
            # scenarios name the parent scheduler; resolve once it exists
            nid = self.h.find_node_by_name(req.target_parent)
            if nid is None:
                raise EngineError(
                    f"unknown target parent {req.target_parent!r} at tick {t}"
                )
            req = req._replace(target_parent=nid)
        decision = _deploy(self.h, req)
        self.decisions.append((t, req.app_id, decision))
        if decision.outcome is Outcome.REJECTED:
            detail = f"{decision.outcome.value}:{decision.reason.value}"
            self._emit(t, _DEPLOY, app=req.app_id, detail=detail)
            self._rejected.add(req.app_id)
            return
        self._rejected.discard(req.app_id)
        nid = decision.node_id
        leaf, request = self.h.node(nid), req.request
        info = AppTraceInfo(  # `awarded` and `backlog` are set by _finish
            app_id=req.app_id, node_id=nid, node_path=leaf.path,
            leaf_policy=leaf.spec.policy.value, requested=request, awarded=None,
            weight_ppm=request.share if request.service is _PS else 0,
            quantum=leaf.spec.quantum, deployed_at=t, undeployed_at=None,
            hard_capped=self._hard_capped(nid, decision.awarded), backlog=None,
        )
        phase = 0
        if workload.kind is _BURSTY:
            phase = self.rng.randrange(workload.on + workload.off)
        art = _AppRT(info, len(self._art) + len(self._retired), workload, phase)
        self._art[req.app_id] = art
        if workload.kind is _PERIODIC:
            first = max(t, workload.offset)
            self._schedule(art, first + (workload.offset - first) % workload.period)
        elif workload.kind is _BURSTY:
            self._schedule(art, t)  # what is pending at t comes in at t
        self._sync_runtimes(t, decision.grants)
        self._recheck(art, t)
        self._emit(t, _DEPLOY, app=req.app_id, node_id=nid,
                   node_path=art.node_path, detail=decision.outcome.value)

    def _do_undeploy(self, t, app_id):
        art = self._art.get(app_id)
        if art is None:
            if app_id not in self._rejected:
                raise EngineError(f"undeploy of unknown app {app_id!r} at tick {t}")
            # nothing was admitted, so nothing leaves; only the row records it
            self._rejected.remove(app_id)
            self._emit(t, _UNDEPLOY, app=app_id, detail="NOT_ADMITTED")
            return
        try:
            grants = _undeploy(self.h, app_id)
        except DeploymentError as e:  # a recompose that failed
            raise EngineError(str(e)) from e
        art.note_backlog(t, False)
        art.info = art.info._replace(undeployed_at=t)
        self._retired[app_id] = art
        del self._art[app_id]
        # a leaf it unloaded has no app left, so leaves its parent's set too
        self._mark(art, False)
        self._sync_runtimes(t, grants, art)
        self._emit(t, _UNDEPLOY, app=app_id, node_path=art.node_path)

    def _hard_capped(self, leaf_id, awarded):
        if awarded.service is _RESBH:
            return True
        nid = leaf_id
        while nid is not None:
            node = self.h.node(nid)
            if node.granted.service is _RESBH:
                return True
            nid = node.parent
        return False

    def _sync_runtimes(self, t, grants, retired=None):
        """Bring the holders in line with a deploy's or an undeploy's
        recompose. `grants` are the grants it set, the only ones that can
        have moved; `retired` is the app an undeploy took out, whose leaf
        goes too if the undeploy unloaded it. Each grant's holder (made here
        for a node seen for the first time) is served, then re-checked at its
        parent once all are: a grant can open or close a child.

        The engine learns of grants only from the composes of its own
        deploys and undeploys: code that changes `self.h` must leave the
        composing to them.
        """
        nrt = self._nrt
        if retired is not None:
            self._unfile(retired)
            if not self.h.has_node(retired.parent):  # only its leaf can go
                self._unfile(nrt.pop(retired.parent))
        served = []
        for g in grants:
            key = g.holder
            holder = self._art[key] if isinstance(key, str) else nrt.get(key)
            if holder is None:
                holder = nrt[key] = _NodeRT(self.h.node(key), t)
            self._serve(holder, g.awarded)
            served.append(holder)
        for holder in served:
            self._mark(holder, holder.backlogged())

    def _serve(self, holder, grant):
        """Give `holder` its new `grant`. A reservation's server keeps what
        is left of its budget, capped at the new one, and is filed under its
        period in `_servers`; any other grant has no server."""
        if holder.grant is not None:
            self._unfile(holder)
        holder.grant = grant
        if grant.period is None:
            holder.cap = holder.rem = None
            return
        left = holder.rem
        holder.cap = grant.budget
        holder.rem = grant.budget if left is None else min(left, grant.budget)
        self._servers.setdefault(grant.period, {})[holder.key] = holder

    def _unfile(self, holder):
        """Take `holder`'s server, if it has one, out of `_servers`."""
        period = holder.grant.period
        if period is not None:
            filed = self._servers[period]
            del filed[holder.key]
            if not filed:
                del self._servers[period]

    def _mark(self, holder, backlogged):
        """Record at its parent whether `holder` is runnable: `backlogged`,
        and its grant neither NULL nor a RESBH with no budget left. A node
        whose ready set fills or empties is re-checked at its parent, and so
        on up."""
        while holder.parent is not None:
            parent = self._nrt[holder.parent]
            ready = parent.ready
            if backlogged and _open(holder.grant, holder.rem):
                if holder.key in ready:
                    return
                ready[holder.key] = holder
            elif ready.pop(holder.key, None) is None:
                return
            parent.cands = None
            if len(ready) > (holder.key in ready):  # neither filled nor emptied
                return
            holder, backlogged = parent, bool(ready)

    # ------------------------------------------------ phases of a decision tick

    def _first_boundary(self, t):
        """The first multiple of a live period at or after `t`, tick 0 aside:
        no server is granted before it, so none refills there."""
        t = max(t, 1)
        return min((-(-t // period) * period for period in self._servers),
                   default=self.horizon)

    def _replenish_phase(self, t):
        """Refill the servers filed under the periods that divide `t`, if
        granted before `t`. Nodes get a REPLENISH row each, in id order; app
        servers are silent. A server refilled from empty is re-checked."""
        due = [holder for period, filed in self._servers.items() if t % period == 0
               for holder in filed.values() if t > holder.since]
        for rt in sorted((h for h in due if isinstance(h, _NodeRT)), key=_pos):
            self._emit(t, _REPLENISH, node_id=rt.key, node_path=rt.path)
        for holder in due:
            empty = holder.rem == 0
            holder.rem = holder.cap
            if empty:
                self._mark(holder, holder.backlogged())

    # ------------------------------------------------- calendar of app ticks

    def _schedule(self, art, tick):
        """Put `art` in the calendar at `tick`. Ticks past the horizon are
        dropped, but the horizon itself is kept: a release there is the
        deadline of the job before it."""
        if tick > self.horizon:
            return
        due = self._calendar.get(tick)
        if due is None:
            self._calendar[tick] = [art]
            heapq.heappush(self._due_ticks, tick)
        else:
            due.append(art)

    def _accrue(self, art, until):
        """Add the BURSTY on-ticks before `until` to what `art` has pending."""
        arrived = _on_before(art.workload, until - art.phase_offset)
        art.pending += arrived - art.arrived
        art.arrived = arrived

    def _next_on(self, art, t):
        """Put a BURSTY app with nothing pending in the calendar at its
        first on-tick after `t`."""
        w = art.workload
        phase = (t + 1 - art.phase_offset) % (w.on + w.off)
        self._schedule(art, t + 1 + (w.on + w.off - phase if phase >= w.on else 0))

    def _release_phase(self, t):
        """Release work for the live apps the calendar holds at `t`; an app
        undeployed since it was filed is skipped (app ids are never reused,
        so its id is not in `_art`). A BURSTY app with work pending takes
        its on-ticks in when it is charged. The tick leaves `_due_ticks` in
        `_stretch_end`, once it is in neither the calendar nor the
        timeline."""
        for art in self._calendar.pop(t, ()):
            if art.key not in self._art:
                continue
            w = art.workload
            if w.kind is _PERIODIC:
                art.pending += w.wcet
                self._schedule(art, t + w.period)
            else:
                self._accrue(art, t + 1)
                if art.pending == 0:
                    self._next_on(art, t)
            self._recheck(art, t)

    def _recheck(self, art, tick):
        """Note from `tick` on whether `art` is backlogged, and mark it so at
        its leaf."""
        backlogged = art.backlogged()
        art.note_backlog(tick, backlogged)
        self._mark(art, backlogged)

    # --------------------------------------------------------------- dispatch

    def dispatch(self, node_id, tick):
        """Pick the application this node's subtree runs at `tick`, or None.

        Each node hands the CPU to one runnable child, so dispatch is one
        walk down from `node_id` to a leaf. The route holds
        `(node holder, kind, child holder)` per node on the way; the kind is
        "stride" or "rr" where the pick keeps turn state at the node, else
        None. Its children are the path's budget servers, the app's last.
        """
        route: list = []
        rt = self._nrt[node_id]
        while True:
            if rt.cands is None:
                # sorted again only once `ready` moved: a holder's place
                # cannot change while it is in `ready`, as awards keep the
                # class of the request and a new node's provisional NULL
                # grant keeps it out of `ready`
                rt.cands = sorted(rt.ready.values(), key=_dispatch_order)
            cands = rt.cands
            if not cands:
                return None, route
            child, kind = self._pick(rt, cands, tick)
            route.append((rt, kind, child))
            if rt.leaf:
                return child.key, route
            rt = child

    def _pick(self, rt, cands, t):
        """The candidate `node` runs at `t`, and the kind of its turn.

        One precedence rule serves every node, VIRTUAL or leaf:
        1. reservations with budget left, by earliest end of their current
           replenishment window, ties in attachment order; a FIXED_PRIORITY
           leaf takes them in attachment order;
        2. a child granted ALL;
        3. proportional shares, by stride (`_stride_pick`);
        4. best effort, by round robin (`_rr_pick`); a FIXED_PRIORITY leaf
           takes them in attachment order, with no quantum;
        5. soft reservations with their budget spent, on slack, in
           attachment order.
        Each leaf policy offers only classes on this list, so any runnable
        candidate has a place in it. `cands` are the node's runnable
        children in this order, classes 1 and 5 together last
        (`_dispatch_order`), so with no budget left the first candidate's
        class is the one that runs. Classes are told apart by identity:
        hashing an Enum member runs Python code.
        """
        budgeted = [c for c in cands if c.rem]
        if budgeted:
            if rt.fp or len(budgeted) == 1:
                return budgeted[0], None
            return min(budgeted, key=lambda c: (t // c.grant.period + 1) * c.grant.period), None
        service = cands[0].grant.service
        group = [c for c in cands if c.grant.service is service]
        if service is _PS:
            return self._stride_pick(rt, group), "stride"
        if service is _BE and not rt.fp:
            return self._rr_pick(rt, group), "rr"
        return group[0], None

    def _stride_pick(self, rt, cands):
        """Stride: the key still in its quantum, else the lowest pass, the
        first of equal ones. A key that joins the runnable set starts at the
        lowest pass of those that stayed, unless its own is higher. Holders
        are never reused, so the same list of them means no key joined."""
        rt.alone = len(cands) == 1
        if cands != rt.contenders:
            current = {c.key for c in cands}
            stayed = current.intersection(c.key for c in rt.contenders)
            passes = rt.passes
            floor = min((passes[k] for k in stayed), default=0)
            for k in current - stayed:
                passes[k] = max(passes.get(k, floor), floor)
            rt.contenders = cands
        if rt.alone:
            return cands[0]
        return _held(rt, cands) or min(cands, key=lambda c: rt.passes[c.key])

    def _rr_pick(self, rt, cands):
        """Round robin: the key still in its quantum, else the first key after
        the last turn's holder in attachment order, cyclically; the first
        key if that holder has left."""
        rt.alone = len(cands) == 1
        held = _held(rt, cands)
        if held:
            return held
        last = rt.rr_last
        # still a holder: live app and node ids are never reused
        if last is not None and (last[0] in self._art or last[0] in self._nrt):
            return next((c for c in cands if c.pos > last[1]), cands[0])
        return cands[0]

    # ------------------------------------------------------- stretch and charge

    def _stretch_end(self, t, picked, route):
        """First tick after `t` at which an input to dispatch can change.

        Until then the pick made at `t` stands: no period boundary, timeline
        action or release falls inside, no idle BURSTY app turns on, and the
        running app keeps its work, its budgets and, where it has
        contenders, its turn: a stride quantum end is a decision point only
        where the running key would lose the next turn (`_quanta_won`). No
        deadline falls before the last tick. An undeployed app's calendar
        entry is one more decision point, at which the same pick goes on.
        """
        # the next timeline tick, or calendar tick: the next release of a
        # PERIODIC app (its newest job is due the tick before it) or the
        # on-edge of an idle BURSTY app; the ticks already applied or
        # released are dropped here
        ticks = self._due_ticks
        while ticks and ticks[0] not in self._calendar and ticks[0] not in self._timeline:
            heapq.heappop(ticks)
        end = min(self.horizon, self._boundary, ticks[0] if ticks else self.horizon)
        if picked is None:
            return end

        art = self._art[picked]
        w = art.workload
        if w.kind is _PERIODIC:
            end = min(end, t + art.pending)
        elif w.kind is _BURSTY:
            # after this tick's charge, pending drops by one on each off-tick:
            # the stretch ends with the charge that empties it
            self._accrue(art, t + 1)
            start = t + 1 - art.phase_offset
            q, r = divmod(start - art.arrived + art.pending - 1, w.off)
            drained = q * (w.on + w.off) + (w.on + r if r else 0)
            end = min(end, max(t + 1, drained + art.phase_offset))
        for rt, kind, child in route:  # the picked app's path
            if child.rem and child.rem < end - t:
                end = t + child.rem
            if kind and not rt.alone:
                left = rt.quantum - _used(rt, child.key)
                if kind == "stride":
                    left += rt.quantum * _quanta_won(rt, child, left)
                if left < end - t:
                    end = t + left
        return end

    def _charge_phase(self, t, n, picked, route):
        """Charge `picked` for the `n` ticks ending with tick `t`. An app
        that runs out of work is re-checked at once, from tick `t + 1`, and
        so is any server on its path that empties, its own included."""
        art = self._art[picked]
        w = art.workload
        if w.kind is not _CPU_BOUND:
            if w.kind is _BURSTY:
                self._accrue(art, t + 1)
            art.pending -= n
            if art.pending == 0:
                self._recheck(art, t + 1)
                if w.kind is _BURSTY:
                    self._next_on(art, t)

        for rt, kind, child in route:  # the picked app's path
            key = child.key
            if child.rem:
                child.rem -= n
                if child.rem == 0:
                    if child is not art:  # app servers exhaust silently
                        self._emit(t, _BUDGET_EXHAUSTED, node_id=key, node_path=child.path)
                    self._mark(child, child.backlogged())
            if kind is None:
                continue
            if kind == "stride":
                share = child.grant.share
                if rt.scale % share:  # a new share: every pass is rescaled
                    m = share // gcd(rt.scale, share)
                    rt.scale *= m
                    rt.passes = {k: p * m for k, p in rt.passes.items()}
                rt.passes[key] += n * (rt.scale // share)
            else:
                # `child.pos`: a drained app may have left `ready` already
                rt.rr_last = (key, child.pos)
            # a quantum that runs out hands the turn back; with no
            # contender the same key takes it again
            used = (_used(rt, key) + n) % rt.quantum
            rt.active = (key, used) if used else None

    def _deadline_phase(self, t):
        """Flag the PERIODIC apps that release again at t + 1 with work
        pending: work runs in release order, so theirs includes the newest
        job's, due at `t`; an app undeployed since it was filed is skipped.
        Each tick ends a stretch at most once."""
        for art in sorted(self._calendar.get(t + 1, ()), key=_pos):
            if art.workload.kind is _PERIODIC and art.pending and art.key in self._art:
                self._emit(t, _DEADLINE_MISS, app=art.key, node_path=art.node_path)

    # -------------------------------------------------------------- main loop

    def _emit(self, tick, kind, app="", node_id=None, node_path="", detail=""):
        # the phases run in `_RANK` order, so rows arrive in trace order
        self._events.append(SimEvent(tick, kind, app, node_id, node_path, detail))

    def run(self) -> Trace:
        if self._done:
            raise EngineError("simulation already ran")
        self._done = True
        t = 0
        while t < self.horizon:
            if t in self._timeline:
                # popped as applied: a bound action left behind would keep
                # the simulation alive in a reference cycle after the run
                for action, *args in self._timeline.pop(t):
                    action(t, *args)
                self._boundary = self._first_boundary(t)
            if self._boundary == t:
                self._replenish_phase(t)
                self._boundary = self._first_boundary(t + 1)
            if t in self._calendar:
                self._release_phase(t)
            picked, route = self.dispatch(Hierarchy.ROOT_ID, t)
            end = self._stretch_end(t, picked, route)
            if picked is not None:
                self._charge_phase(end - 1, end - t, picked, route)
            segs = self._segments
            if segs and segs[-1][1] == t and segs[-1][2] == picked:
                segs[-1] = (segs[-1][0], end, picked)  # the same runner goes on
            else:
                segs.append((t, end, picked))
            if end in self._calendar:
                self._deadline_phase(end - 1)
            t = end
        return self._finish()

    def _finish(self) -> Trace:
        info = {}
        for art in [*self._art.values(), *self._retired.values()]:
            art.note_backlog(self.horizon, False)
            info[art.key] = art.info._replace(awarded=art.grant, backlog=art.backlog)
        service = dict.fromkeys(info, 0)  # an app that never ran has 0
        idle = 0
        for start, end, app in self._segments:
            if app is None:
                idle += end - start
            else:
                service[app] += end - start
        return Trace(
            horizon=self.horizon,
            events=self._events,
            per_app_service=service,
            idle_ticks=idle,
            app_info=info,
            decisions=self.decisions,
            segments=self._segments,
        )


def run_scenario(scenario) -> Trace:
    """Execute a parsed scenario (see cli.Scenario) and return its trace."""
    sim = Simulation(scenario.horizon, scenario.seed)
    for entry in scenario.timeline:
        if entry.action == "deploy":
            sim.deploy_at(entry.tick, entry.request, entry.workload)
        else:
            sim.undeploy_at(entry.tick, entry.app_id)
    return sim.run()
