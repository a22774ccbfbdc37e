"""Tick-accurate simulator for a composed scheduler hierarchy: it decides
when, and the dispatch rules (`hiersched.policy`) decide who runs and for
how long.

One CPU, advanced from one decision point to the next. A decision point is a
tick where an input to dispatch can change: a timeline action, a period
boundary of any budget server, a periodic release, an idle BURSTY app
turning on, or, for the running app, the end of its pending work, the
exhaustion of its own or a route node's budget, and the end of its turn at
a node where it has contenders. At a decision point timeline actions apply
first, then reservation servers replenish, workloads release work, and the
root dispatches exactly one application (or idles): each node on the way
picks one runnable child (`policy._pick`), so dispatch walks one path from
the root to a leaf. Apps (`_AppRT`) and nodes (`_NodeRT`) are one kind of
grant holder, with a budget server (`cap` and `rem`) where the grant is a
reservation, and `backlogged()` (an app with work pending, a node with a
runnable child). As in Bossa, events keep each node's ready state: `ready`
holds its runnable children, the backlogged holders whose grant is not
NULL nor a spent RESBH. Each event re-checks, at once, only the holders
it can flip, and a set that fills or empties re-checks its node at the
parent, so no pick looks into a subtree. An app goes through one re-check
(`Simulation._recheck`), which also notes its backlog, at its deploy, at
each release and at the charge that drains its work; a server that a
charge empties or a replenish refills, the holders of a compose's grants,
and a leaving app and the leaf it unloads are re-checked where that
happens. Dispatch returns its route, the holder picked at each node and the
kind of its turn there, so the app's own budget is one more server on the
route: one loop caps the stretch by, and charges, every server on it, the
only difference being the row, BUDGET_EXHAUSTED for a node and none for an
app, and asks the rules where each turn ends and what its charge does
(`policy._turn_end`, `policy._charge_turn`). The pick holds until the next
decision point, so the whole stretch is charged at once: work, budgets and
turns move by its length. The stretch goes into the trace as one RUN or
IDLE segment (`hiersched.record` holds the trace record and the workload
model). Per decision, only the apps that can have changed are touched: a
calendar holds each PERIODIC app's next release and each idle BURSTY app's
next on-tick, and one heap of due ticks holds the calendar's ticks and the
timeline's, so the next of either is its top. An undeploy leaves its app's
calendar entry where it is, and the phases skip it. The next period
boundary is kept apart, until a decision reaches it or a timeline action
may have changed the live periods. A phase runs only at the ticks that
need it.
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

import heapq
import random
from operator import attrgetter

from .deployment import DeploymentError, DeploymentRequest, Outcome
from .deployment import deploy as _deploy
from .deployment import undeploy as _undeploy
from .hierarchy import Hierarchy, new_hierarchy
from .policy import _PS, _RESBH, _NodeRT, _charge_turn, _leave, _open, _pick, _turn_end
from .record import (
    AppTraceInfo,
    EngineError,
    EventKind,
    SimEvent,
    Trace,
    Workload,
    WorkloadKind,
    _on_before,
)

# bound once: reading an Enum member off its class is a descriptor call
_PERIODIC, _CPU_BOUND, _BURSTY = (
    WorkloadKind.PERIODIC, WorkloadKind.CPU_BOUND, WorkloadKind.BURSTY,
)
_DEPLOY, _UNDEPLOY, _REPLENISH, _BUDGET_EXHAUSTED, _DEADLINE_MISS = (
    EventKind.DEPLOY, EventKind.UNDEPLOY, EventKind.REPLENISH,
    EventKind.BUDGET_EXHAUSTED, EventKind.DEADLINE_MISS,
)


_pos = attrgetter("pos")


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
        # the app leaves its leaf for good, and a leaf it unloaded, the only
        # node an undeploy removes, leaves its parent: their servers go, and
        # a turn either of them held passes on
        self._unfile(art)
        leaf = self._nrt[art.parent]
        _leave(leaf, art)
        if not self.h.has_node(leaf.key):
            self._unfile(self._nrt.pop(leaf.key))
            _leave(self._nrt[leaf.parent], leaf)
        self._sync_runtimes(t, grants)
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

    def _sync_runtimes(self, t, grants):
        """Bring the holders in line with a deploy's or an undeploy's
        recompose. `grants` are the grants it set, the only ones that can
        have moved. Each grant's holder (made here for a node seen for the
        first time) is served, then re-checked at its parent once all are: a
        grant can open or close a child.

        The engine learns of grants only from the composes of its own
        deploys and undeploys: code that changes `self.h` must leave the
        composing to them.
        """
        nrt = self._nrt
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
        `(node holder, kind, child holder)` per node on the way, `kind`
        being that of the child's turn there (`policy._pick`). Its children
        are the path's budget servers, the app's last.
        """
        route: list = []
        rt = self._nrt[node_id]
        while rt.ready:
            child, kind = _pick(rt, tick)
            route.append((rt, kind, child))
            if rt.leaf:
                return child.key, route
            rt = child
        return None, route

    # ------------------------------------------------------- stretch and charge

    def _stretch_end(self, t, picked, route):
        """First tick after `t` at which an input to dispatch can change.

        Until then the pick made at `t` stands: no period boundary, timeline
        action or release falls inside, no idle BURSTY app turns on, and the
        running app keeps its work, its budgets and, where it has
        contenders, its turn at each node (`policy._turn_end`). No deadline
        falls before the last tick. An undeployed app's calendar
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
            if kind:
                end = _turn_end(rt, kind, child, t, end)
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
            if child.rem:
                child.rem -= n
                if child.rem == 0:
                    if child is not art:  # app servers exhaust silently
                        self._emit(t, _BUDGET_EXHAUSTED, node_id=child.key,
                                   node_path=child.path)
                    self._mark(child, child.backlogged())
            if kind is not None:
                _charge_turn(rt, kind, child, n)

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
