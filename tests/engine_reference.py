"""The simulator's tick loop as it was before the next-event rewrite, kept
as a reference for the differential test in test_engine_equivalence.py.

Everything below the imports is copied unchanged from the earlier
`hiersched.engine`: `Simulation.run` replenishes, releases, records backlog,
dispatches from the root and charges one tick at a time for every tick of
the horizon. Do not edit or optimise it; its value is that it is the old,
obviously correct code.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from hiersched.contracts import ServiceClass
from hiersched.deployment import DeploymentRequest, Outcome
from hiersched.deployment import deploy as _deploy
from hiersched.deployment import undeploy as _undeploy
from hiersched.engine import (
    _RANK,
    AppTraceInfo,
    EngineError,
    EventKind,
    SimEvent,
    Trace,
    Workload,
    WorkloadKind,
)
from hiersched.hierarchy import Hierarchy, PolicyKind, new_hierarchy


@dataclass
class _Job:
    deadline: int
    remaining: int
    missed: bool = False


class _AppRT:
    """Mutable per-application simulation state."""

    def __init__(self, app_id, node_id, path_ids, node_path, leaf_policy,
                 requested, awarded, quantum, tick, workload, hard_capped,
                 phase_offset):
        self.app_id = app_id
        self.node_id = node_id
        self.path_ids = path_ids  # root..leaf node ids
        self.node_path = node_path
        self.leaf_policy = leaf_policy
        self.requested = requested
        self.awarded = awarded
        self.quantum = quantum
        self.deployed_at = tick
        self.undeployed_at = None
        self.workload = workload
        self.hard_capped = hard_capped
        self.phase_offset = phase_offset
        if awarded.is_reservation():
            self.server_cap = awarded.budget
            self.server_rem = awarded.budget
        else:
            self.server_cap = None
            self.server_rem = None
        self.jobs: deque[_Job] = deque()
        self.pending = 0  # BURSTY backlog
        self.service = 0
        self.backlog: list = []
        self._open = None  # start of the current backlog interval

    def backlogged(self) -> bool:
        if self.workload.kind is WorkloadKind.CPU_BOUND:
            return True
        if self.workload.kind is WorkloadKind.PERIODIC:
            return any(j.remaining > 0 for j in self.jobs)
        return self.pending > 0

    def blocked_hard(self) -> bool:
        return (
            self.awarded.service is ServiceClass.RESBH and self.server_rem == 0
        )

    def note_backlog(self, tick, backlogged):
        if backlogged and self._open is None:
            self._open = tick
        elif not backlogged and self._open is not None:
            self.backlog.append((self._open, tick))
            self._open = None

    def close_backlog(self, tick):
        self.note_backlog(tick, False)


class _NodeRT:
    """Budget server plus per-policy dispatch state for one node."""

    def __init__(self, grant_tick):
        self.grant_tick = grant_tick
        self.cap = None  # reservation grants only
        self.rem = None
        self.last_replenish = None
        self.passes = {}  # stride: child node id or app id -> Fraction
        self.prev_runnable = frozenset()
        self.active = None  # (key, ticks used) for quantum continuity
        self.rr_last = None  # key that last held the round-robin turn


class Simulation:
    """Owns a hierarchy plus all runtime state; drives the tick loop."""

    def __init__(self, horizon: int, seed: int = 0):
        if horizon < 0:
            raise EngineError("horizon must be >= 0")
        self.h = new_hierarchy()
        self.horizon = horizon
        self.rng = random.Random(seed)
        self.decisions: list = []
        self._timeline: dict[int, list] = {}
        self._art: dict[str, _AppRT] = {}
        self._retired: list[_AppRT] = []
        self._nrt: dict[int, _NodeRT] = {}
        self._events: list[SimEvent] = []
        self._buf: list[SimEvent] = []
        self._idle = 0
        self._done = False
        self._sync_runtimes(0)

    # -------------------------------------------------------------- timeline

    def deploy_at(self, tick, request: DeploymentRequest, workload: Workload):
        self._timeline.setdefault(tick, []).append(("deploy", request, workload))

    def undeploy_at(self, tick, app_id: str):
        self._timeline.setdefault(tick, []).append(("undeploy", app_id))

    def _apply_timeline(self, t):
        for action in self._timeline.get(t, []):
            if action[0] == "deploy":
                _, req, workload = action
                self._do_deploy(t, req, workload)
            else:
                self._do_undeploy(t, action[1])

    def _do_deploy(self, t, req, workload):
        if req.app_id in self._art:
            raise EngineError(f"app id {req.app_id!r} already live at tick {t}")
        if any(a.app_id == req.app_id for a in self._retired):
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
            self._emit(t, EventKind.DEPLOY, app=req.app_id, detail=detail)
            return
        nid = decision.node_id
        path_ids = self._path_ids(nid)
        phase = 0
        if workload.kind is WorkloadKind.BURSTY:
            phase = self.rng.randrange(workload.on + workload.off)
        slot = self.h.app_slot(req.app_id)
        node = self.h.node(nid)
        art = _AppRT(
            app_id=req.app_id,
            node_id=nid,
            path_ids=path_ids,
            node_path=self._path_name(nid),
            leaf_policy=node.spec.policy.value,
            requested=req.request,
            awarded=slot.awarded,
            quantum=node.spec.quantum,
            tick=t,
            workload=workload,
            hard_capped=self._hard_capped(nid, slot.awarded),
            phase_offset=phase,
        )
        self._art[req.app_id] = art
        self._sync_runtimes(t)
        self._emit(
            t, EventKind.DEPLOY, app=req.app_id, node_id=nid,
            node_path=art.node_path, detail=decision.outcome.value,
        )

    def _do_undeploy(self, t, app_id):
        art = self._art.get(app_id)
        if art is None:
            raise EngineError(f"undeploy of unknown app {app_id!r} at tick {t}")
        try:
            _undeploy(self.h, app_id)
        except Exception as e:  # pragma: no cover - guarded above
            raise EngineError(str(e)) from e
        art.close_backlog(t)
        art.undeployed_at = t
        self._retired.append(art)
        del self._art[app_id]
        self._sync_runtimes(t)
        self._emit(t, EventKind.UNDEPLOY, app=app_id, node_path=art.node_path)

    def _hard_capped(self, leaf_id, awarded):
        if awarded.service is ServiceClass.RESBH:
            return True
        nid = leaf_id
        while nid is not None:
            node = self.h.node(nid)
            if node.granted.service is ServiceClass.RESBH:
                return True
            nid = node.parent
        return False

    def _path_ids(self, nid):
        path = []
        while nid is not None:
            path.append(nid)
            nid = self.h.node(nid).parent
        return list(reversed(path))

    def _path_name(self, nid):
        return "/".join(self.h.node(i).spec.name for i in self._path_ids(nid))

    def _sync_runtimes(self, t):
        """Reconcile budget servers with the tree after any recompose."""
        live = set()
        for node in self.h.nodes():
            live.add(node.node_id)
            rt = self._nrt.get(node.node_id)
            if rt is None:
                rt = _NodeRT(grant_tick=t)
                self._nrt[node.node_id] = rt
            if node.granted.is_reservation():
                if rt.cap is None:
                    rt.cap = node.granted.budget
                    rt.rem = node.granted.budget
                else:
                    rt.cap = node.granted.budget
                    rt.rem = min(rt.rem, rt.cap)
        for nid in list(self._nrt):
            if nid not in live:
                del self._nrt[nid]
        for art in self._art.values():
            slot = self.h.app_slot(art.app_id)
            art.awarded = slot.awarded
            if slot.awarded.is_reservation():
                art.server_cap = slot.awarded.budget
                art.server_rem = (
                    art.server_cap
                    if art.server_rem is None
                    else min(art.server_rem, art.server_cap)
                )

    # ------------------------------------------------------------ tick phases

    def charge_and_replenish(self, node_id, tick, ran=False):
        """Replenish one node's server at period multiples (once per tick)
        and charge one run tick against it when `ran` is set."""
        node = self.h.node(node_id)
        rt = self._nrt[node_id]
        if not node.granted.is_reservation():
            return
        period = node.granted.period
        if (
            rt.last_replenish != tick
            and tick > rt.grant_tick
            and tick % period == 0
        ):
            rt.last_replenish = tick
            rt.rem = rt.cap
            self._emit(
                tick, EventKind.REPLENISH, node_id=node_id,
                node_path=self._path_name(node_id),
            )
        if ran and rt.rem > 0:
            rt.rem -= 1
            if rt.rem == 0:
                self._emit(
                    tick, EventKind.BUDGET_EXHAUSTED, node_id=node_id,
                    node_path=self._path_name(node_id),
                )

    def _replenish_phase(self, t):
        for nid in sorted(self._nrt):
            self.charge_and_replenish(nid, t, ran=False)
        for art in self._art.values():
            if art.server_cap is not None:
                period = art.awarded.period
                if t > art.deployed_at and t % period == 0:
                    art.server_rem = art.server_cap  # app servers are silent

    def _release_phase(self, t):
        for art in self._art.values():
            w = art.workload
            if w.kind is WorkloadKind.PERIODIC:
                if t >= art.deployed_at and (t - w.offset) % w.period == 0 and t >= w.offset:
                    art.jobs.append(_Job(deadline=t + w.period - 1, remaining=w.wcet))
            elif w.kind is WorkloadKind.BURSTY:
                cycle = w.on + w.off
                if (t - art.phase_offset) % cycle < w.on:
                    art.pending += 1

    def _record_backlog(self, t):
        for art in self._art.values():
            art.note_backlog(t, art.backlogged())

    # --------------------------------------------------------------- dispatch

    def dispatch(self, node_id, tick):
        """Pick the application this node's subtree runs at `tick`, or None."""
        route: list = []
        picked = self._dispatch_node(node_id, tick, route)
        return picked, route

    def _dispatch_node(self, nid, t, route):
        node = self.h.node(nid)
        if node.spec.policy is PolicyKind.VIRTUAL:
            return self._dispatch_virtual(node, t, route)
        return self._dispatch_leaf(node, t, route)

    def _dispatch_virtual(self, node, t, route):
        kids = node.children
        granted = {c: self.h.node(c).granted for c in kids}

        # budgeted reservation children: earliest replenishment-window end
        edf = []
        for pos, c in enumerate(kids):
            g = granted[c]
            if not g.is_reservation() or self._nrt[c].rem == 0:
                continue
            if not self._subtree_runnable(c):
                continue
            deadline = (t // g.period + 1) * g.period
            edf.append((deadline, pos, c))
        for _, _, c in sorted(edf):
            got = self._dispatch_node(c, t, route)
            if got is not None:
                route.append((node.node_id, "res", c))
                return got

        # a child granted the whole CPU outranks share/best-effort siblings
        for c in kids:
            if granted[c].service is ServiceClass.ALL and self._subtree_runnable(c):
                got = self._dispatch_node(c, t, route)
                if got is not None:
                    route.append((node.node_id, "all", c))
                    return got

        runnable_ps = [
            c for c in kids
            if granted[c].service is ServiceClass.PS and self._subtree_runnable(c)
        ]
        for c in self._stride_order(node, runnable_ps):
            got = self._dispatch_node(c, t, route)
            if got is not None:
                route.append((node.node_id, "ps", c))
                return got

        runnable_be = [
            c for c in kids
            if granted[c].service is ServiceClass.BE and self._subtree_runnable(c)
        ]
        for c in self._rr_order(node, kids, runnable_be):
            got = self._dispatch_node(c, t, route)
            if got is not None:
                route.append((node.node_id, "be", c))
                return got

        # soft reservations may overflow into whatever slack is left
        for c in kids:
            g = granted[c]
            if g.service is ServiceClass.RESBS and self._nrt[c].rem == 0:
                if self._subtree_runnable(c):
                    got = self._dispatch_node(c, t, route)
                    if got is not None:
                        route.append((node.node_id, "slack", c))
                        return got
        return None

    def _dispatch_leaf(self, node, t, route):
        policy = node.spec.policy
        slots = node.apps
        arts = [self._art[s.app_id] for s in slots if s.app_id in self._art]

        if policy is PolicyKind.EDF_RESERVATION:
            budgeted = []
            for pos, a in enumerate(arts):
                if a.backlogged() and a.server_rem and a.server_rem > 0:
                    deadline = (t // a.awarded.period + 1) * a.awarded.period
                    budgeted.append((deadline, pos, a.app_id))
            if budgeted:
                picked = min(budgeted)[2]
                route.append((node.node_id, "app", picked))
                return picked
            for a in arts:  # soft slack, attachment order
                if (
                    a.backlogged()
                    and a.awarded.service is ServiceClass.RESBS
                    and a.server_rem == 0
                ):
                    route.append((node.node_id, "app", a.app_id))
                    return a.app_id
            return None

        if policy is PolicyKind.FIXED_PRIORITY:
            for a in arts:  # attachment order is the priority order
                if a.backlogged() and a.server_rem and a.server_rem > 0:
                    route.append((node.node_id, "app", a.app_id))
                    return a.app_id
            for a in arts:
                if a.backlogged() and a.awarded.service is ServiceClass.BE:
                    route.append((node.node_id, "app", a.app_id))
                    return a.app_id
            for a in arts:
                if (
                    a.backlogged()
                    and a.awarded.service is ServiceClass.RESBS
                    and a.server_rem == 0
                ):
                    route.append((node.node_id, "app", a.app_id))
                    return a.app_id
            return None

        if policy is PolicyKind.ROUND_ROBIN:
            runnable = [a.app_id for a in arts if a.backlogged()]
            order = [s.app_id for s in slots]
            for app in self._rr_order(node, order, runnable):
                route.append((node.node_id, "rr", app))
                return app
            return None

        # STRIDE: proportional shares first, then best effort
        runnable_ps = [
            a.app_id for a in arts
            if a.awarded.service is ServiceClass.PS and a.backlogged()
        ]
        for app in self._stride_order(node, runnable_ps):
            route.append((node.node_id, "stride", app))
            return app
        runnable_be = [
            a.app_id for a in arts
            if a.awarded.service is ServiceClass.BE and a.backlogged()
        ]
        order = [s.app_id for s in slots]
        for app in self._rr_order(node, order, runnable_be):
            route.append((node.node_id, "rr", app))
            return app
        return None

    def _stride_order(self, node, runnable):
        """Stride selection: quantum continuity, then lowest pass."""
        if not runnable:
            return []
        rt = self._nrt[node.node_id]
        current = set(runnable)
        joined = current - set(rt.prev_runnable)
        settled = [rt.passes[k] for k in runnable if k not in joined and k in rt.passes]
        floor = min(settled) if settled else Fraction(0)
        for k in runnable:
            if k in joined or k not in rt.passes:
                rt.passes[k] = max(rt.passes.get(k, floor), floor)
        rt.prev_runnable = frozenset(current)
        if (
            rt.active is not None
            and rt.active[0] in current
            and rt.active[1] < node.spec.quantum
        ):
            head = rt.active[0]
            rest = sorted(
                (k for k in runnable if k != head),
                key=lambda k: (rt.passes[k], runnable.index(k)),
            )
            return [head] + rest
        return sorted(runnable, key=lambda k: (rt.passes[k], runnable.index(k)))

    def _rr_order(self, node, order, runnable):
        """Round-robin selection with quantum continuity over `order`."""
        if not runnable:
            return []
        rt = self._nrt[node.node_id]
        runnable_set = set(runnable)
        if (
            rt.active is not None
            and rt.active[0] in runnable_set
            and rt.active[1] < node.spec.quantum
        ):
            head = rt.active[0]
        else:
            start = 0
            if rt.rr_last in order:
                start = order.index(rt.rr_last) + 1
            rotated = order[start:] + order[:start]
            head = next(k for k in rotated if k in runnable_set)
        rest = [k for k in order if k in runnable_set and k != head]
        return [head] + rest

    def _subtree_runnable(self, nid):
        node = self.h.node(nid)
        if node.spec.policy is not PolicyKind.VIRTUAL:
            for slot in node.apps:
                art = self._art.get(slot.app_id)
                if art is None or not art.backlogged():
                    continue
                if art.blocked_hard():
                    continue
                return True
            return False
        for c in node.children:
            g = self.h.node(c).granted
            if g.service is ServiceClass.NULL:
                continue
            if g.service is ServiceClass.RESBH and self._nrt[c].rem == 0:
                continue
            if self._subtree_runnable(c):
                return True
        return False

    # ----------------------------------------------------------------- charge

    def _charge_phase(self, t, picked, route):
        art = self._art[picked]
        art.service += 1
        w = art.workload
        if w.kind is WorkloadKind.PERIODIC:
            job = next(j for j in art.jobs if j.remaining > 0)
            job.remaining -= 1
            while art.jobs and art.jobs[0].remaining == 0:
                art.jobs.popleft()
        elif w.kind is WorkloadKind.BURSTY:
            art.pending -= 1
        if art.server_rem is not None and art.server_rem > 0:
            art.server_rem -= 1  # app servers exhaust silently

        for nid in art.path_ids:
            self.charge_and_replenish(nid, t, ran=True)

        for nid, group, chosen in route:
            rt = self._nrt[nid]
            node = self.h.node(nid)
            if group in ("ps", "stride"):
                tickets = self._tickets(nid, chosen, group)
                rt.passes[chosen] = rt.passes.get(chosen, Fraction(0)) + Fraction(1, tickets)
                self._advance_quantum(rt, node, chosen)
            elif group in ("be", "rr"):
                self._advance_quantum(rt, node, chosen)
                rt.rr_last = chosen

    def _tickets(self, nid, chosen, group):
        if group == "ps":
            return self.h.node(chosen).granted.share
        return self._art[chosen].awarded.share

    @staticmethod
    def _advance_quantum(rt, node, chosen):
        if rt.active is not None and rt.active[0] == chosen:
            used = rt.active[1] + 1
        else:
            used = 1
        rt.active = None if used >= node.spec.quantum else (chosen, used)

    def _deadline_phase(self, t):
        for art in self._art.values():
            if art.workload.kind is not WorkloadKind.PERIODIC:
                continue
            for job in art.jobs:
                if job.deadline == t and job.remaining > 0 and not job.missed:
                    job.missed = True  # the job carries over, flagged once
                    self._emit(t, EventKind.DEADLINE_MISS, app=art.app_id,
                               node_path=art.node_path)

    # -------------------------------------------------------------- main loop

    def _emit(self, tick, kind, app="", node_id=None, node_path="", detail=""):
        self._buf.append(SimEvent(tick, kind, app, node_id, node_path, detail))

    def _flush(self):
        self._buf.sort(key=lambda e: _RANK[e.kind])
        self._events.extend(self._buf)
        self._buf = []

    def run(self) -> Trace:
        if self._done:
            raise EngineError("simulation already ran")
        self._done = True
        for t in range(self.horizon):
            self._apply_timeline(t)
            self._replenish_phase(t)
            self._release_phase(t)
            self._record_backlog(t)
            picked, route = self.dispatch(Hierarchy.ROOT_ID, t)
            if picked is None:
                self._idle += 1
                self._emit(t, EventKind.IDLE)
            else:
                art = self._art[picked]
                self._emit(t, EventKind.RUN, app=picked, node_id=art.node_id,
                           node_path=art.node_path)
                self._charge_phase(t, picked, route)
            self._deadline_phase(t)
            self._flush()
        return self._finish()

    def _finish(self) -> Trace:
        info = {}
        service = {}
        for art in list(self._art.values()) + self._retired:
            art.close_backlog(self.horizon)
            info[art.app_id] = AppTraceInfo(
                app_id=art.app_id,
                node_id=art.node_id,
                node_path=art.node_path,
                leaf_policy=art.leaf_policy,
                requested=art.requested,
                awarded=art.awarded,
                weight_ppm=(
                    art.requested.share
                    if art.requested.service is ServiceClass.PS
                    else 0
                ),
                quantum=art.quantum,
                deployed_at=art.deployed_at,
                undeployed_at=art.undeployed_at,
                hard_capped=art.hard_capped,
                backlog=art.backlog,
            )
            service[art.app_id] = art.service
        return Trace(
            horizon=self.horizon,
            events=self._events,
            per_app_service=service,
            idle_ticks=self._idle,
            app_info=info,
            decisions=self.decisions,
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
