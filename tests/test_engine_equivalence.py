"""The next-event engine gives the same trace as the tick-by-tick loop.

`engine_reference` keeps the earlier loop unchanged. On random small
scenarios (EDF, FIXED_PRIORITY, ROUND_ROBIN and STRIDE leaves under the root
or under a VIRTUAL node holding a reservation, share, best-effort or ALL
grant; RESBH, RESBS, PS, BE and, for schedulers, ALL requests, oversized
ones included, a scheduler that asks for ALL being attached before the
timeline, since a deploy may not supply one; PERIODIC, CPU_BOUND and BURSTY
work; quanta 1-10; deploys and undeploys mid-run; a large share that
degrades the others while it stays; a soft reservation running on slack; any
seed) both must produce the same CSV, service, idle count, per-app facts
(backlog intervals included) and decisions, and the RUN/IDLE segments of the
new trace must expand (`helpers.rows`) to the reference's per-tick rows and
tile [0, horizon) in tick order without an empty segment, which is what
`hiersched.verify` takes for granted. The examples are derandomized, so
every run checks the same scenarios, and the test asserts that enough of
them reach deadline misses, budget exhaustion, idle ticks, soft-reservation
slack, degraded grants, the departure of a degrading app and a scheduler
granted ALL running, so that agreement is not agreement on empty traces.

The engine keeps each node's runnable children up to date as events flip
them, so the test also asserts that enough runs see a node run out of
budget with work waiting below it and run again after a refill, and an
undeploy unload a leaf at a tick where a sibling leaf runs.

The engine keeps stride passes as integers scaled by the lcm of the shares
charged at a node, and rescales them all when a share that does not divide
it comes in. The share pool holds pairwise-coprime shares (3, 7, 999,983),
and a STRIDE leaf may see its holders' awards cut by a squeeze while they
run, so the test also asserts that enough runs rescale passes that are not
all zero, and that enough charge a key at a share other than its last one.

On the same scenarios, the engine's sync of budget servers, which applies
only the grants each compose set, must leave every server and award, and
the holders it files under each period, as
`sync_reference.FullScanSimulation` does by walking the whole tree after
every deploy and undeploy.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import engine_reference as ref
import sync_reference
from hiersched import engine
from hiersched.contracts import Contract, ServiceClass
from hiersched.deployment import DeploymentRequest, Outcome, deploy, undeploy
from hiersched.engine import EventKind, Workload, WorkloadKind
from hiersched.hierarchy import PolicyKind, new_hierarchy

from helpers import edf_spec, fp_spec, rows, rr_spec, stride_spec, virtual_spec

SPECS = {
    PolicyKind.EDF_RESERVATION: edf_spec,
    PolicyKind.FIXED_PRIORITY: fp_spec,
    PolicyKind.ROUND_ROBIN: rr_spec,
    PolicyKind.STRIDE: stride_spec,
}
SCHEDULER_REQUESTS = [ServiceClass.RESBH, ServiceClass.RESBS, ServiceClass.PS,
                      ServiceClass.BE, ServiceClass.ALL]
# 3, 7 and 999,983 (a prime) are pairwise coprime: each one charged at a node
# makes the lcm of its shares grow
SHARES = [3, 7, 50_000, 100_000, 250_000, 700_000, 999_983, 1_000_000]


@st.composite
def contracts(draw, classes):
    kind = draw(st.sampled_from(classes))
    if kind in (ServiceClass.RESBH, ServiceClass.RESBS):
        period = draw(st.integers(1, 40))
        budget = draw(st.integers(1, max(1, period // draw(st.sampled_from([1, 2, 4, 8])))))
        return Contract(kind, budget=budget, period=period)
    if kind is ServiceClass.PS:
        return Contract.ps(draw(st.sampled_from(SHARES)))
    if kind is ServiceClass.ALL:
        return Contract.all_cpu()
    return Contract.be()


@st.composite
def workloads(draw):
    kind = draw(st.sampled_from(list(WorkloadKind)))
    if kind is WorkloadKind.PERIODIC:
        period = draw(st.integers(1, 30))
        return Workload(kind, period=period, wcet=draw(st.integers(1, period)),
                        offset=draw(st.integers(0, 30)))
    if kind is WorkloadKind.BURSTY:
        return Workload(kind, on=draw(st.integers(1, 10)), off=draw(st.integers(1, 10)))
    return Workload(kind)


@st.composite
def scenarios(draw):
    horizon = draw(st.integers(1, 160))
    mid = draw(st.one_of(st.none(), contracts(SCHEDULER_REQUESTS)))
    loaded = [] if mid is None else [(virtual_spec("mid", mid), None)]
    specs = []
    for i in range(draw(st.integers(1, 4))):
        policy = draw(st.sampled_from(sorted(SPECS, key=lambda p: p.value)))
        request = draw(contracts(SCHEDULER_REQUESTS))
        spec = SPECS[policy](f"s{i}", request, quantum=draw(st.integers(1, 10)))
        parent = "mid" if mid is not None and draw(st.booleans()) else None
        specs.append((spec, parent))
        if request.service is ServiceClass.ALL:
            loaded.append((spec, parent))
    timeline = []
    for k in range(draw(st.integers(1, 7))):
        tick = draw(st.integers(0, horizon - 1))
        spec, parent = draw(st.sampled_from(specs))
        provided = sorted(spec.provides, key=lambda c: c.value)
        request = draw(contracts(provided or [ServiceClass.BE]))
        supplied = draw(st.integers(0, 3)) and (spec, parent) not in loaded
        scheduler = spec if supplied else None  # one asking for ALL is loaded
        timeline.append((tick, "deploy", DeploymentRequest(
            f"a{k}", draw(st.sampled_from(["x", "y"])), request,
            scheduler=scheduler, target_parent=parent if scheduler else None,
        ), draw(workloads())))
        if draw(st.booleans()) and tick + 1 < horizon:
            timeline.append((draw(st.integers(tick + 1, horizon - 1)), "undeploy", f"a{k}"))
    if draw(st.booleans()):
        # a large share that squeezes the other soft grants while it stays
        start = draw(st.integers(0, horizon - 1))
        request = Contract.ps(700_000)
        timeline.append((start, "deploy", DeploymentRequest(
            "squeeze", "z", request, scheduler=stride_spec("sq", request),
        ), Workload(WorkloadKind.CPU_BOUND)))
        if start + 1 < horizon:
            timeline.append((draw(st.integers(start + 1, horizon - 1)), "undeploy", "squeeze"))
    if draw(st.booleans()):
        # a STRIDE leaf whose holders' awards a squeeze deployed at or after
        # their start cuts, to shares no earlier charge there used
        start = draw(st.integers(0, horizon - 1))
        leaf = stride_spec("cut", Contract.ps(600_000), quantum=draw(st.integers(1, 10)))
        for k, share in enumerate((299_993, 200_003, 7)):
            timeline.append((start, "deploy", DeploymentRequest(
                f"cut{k}", "c", Contract.ps(share), scheduler=leaf,
            ), Workload(WorkloadKind.CPU_BOUND)))
        request = Contract.ps(700_000)
        timeline.append((draw(st.integers(start, horizon - 1)), "deploy", DeploymentRequest(
            "cutter", "k", request, scheduler=stride_spec("cutter", request),
        ), Workload(WorkloadKind.CPU_BOUND)))
    if draw(st.booleans()):
        # a soft reservation under a soft one, with work beyond both budgets
        period = draw(st.integers(2, 20))
        budget = draw(st.integers(1, period // 2))
        request = Contract.resbs(budget, period)
        timeline.append((draw(st.integers(0, horizon - 1)), "deploy", DeploymentRequest(
            "soft", "s", request,
            scheduler=edf_spec("soft", Contract.resbs(2 * budget, period)),
        ), Workload(WorkloadKind.CPU_BOUND)))
    timeline.sort(key=lambda e: e[0])  # stable: same-tick order is kept
    return horizon, draw(st.integers(0, 5)), loaded, admitted_undeploys(loaded, timeline)


def load(h, loaded):
    """Attach the (spec, parent name) schedulers a scenario loads up front."""
    for spec, parent in loaded:
        h.attach_scheduler(h.find_node_by_name(parent or "root"), spec)


def admitted_undeploys(loaded, timeline):
    """The timeline without undeploys of apps that admission refused, found
    by replaying it through deploy/undeploy, as a scenario would be written."""
    h = new_hierarchy()
    load(h, loaded)
    live, kept = set(), []
    for entry in timeline:
        if entry[1] == "deploy":
            req = entry[2]
            if req.target_parent is not None:
                req = req._replace(target_parent=h.find_node_by_name(req.target_parent))
            if deploy(h, req).outcome is not Outcome.REJECTED:
                live.add(req.app_id)
        elif entry[2] in live:
            undeploy(h, entry[2])
            live.remove(entry[2])
        else:
            continue
        kept.append(entry)
    return kept


def simulate(sim_class, horizon, seed, loaded, timeline):
    sim = sim_class(horizon=horizon, seed=seed)
    load(sim.h, loaded)
    for tick, action, *args in timeline:
        if action == "deploy":
            sim.deploy_at(tick, *args)
        else:
            sim.undeploy_at(tick, *args)
    return sim.run(), sim


def digest(trace):
    return (trace.to_csv(), trace.per_app_service, trace.idle_ticks,
            trace.app_info, trace.decisions)


def slack_run(trace):
    """Some RESBS app ran more ticks in one of its period windows than its
    request's budget: it ran on slack."""
    for app, info in trace.app_info.items():
        contract = info.requested
        if contract.service is not ServiceClass.RESBS:
            continue
        windows = Counter(e.tick // contract.period for e in trace.events
                          if e.kind is EventKind.RUN and e.app == app)
        if any(n > contract.budget for n in windows.values()):
            return True
    return False


def all_granted_ran(loaded, trace):
    """Some app ran below a scheduler that asked for, and so holds, ALL."""
    names = {spec.name for spec, _ in loaded
             if spec.parent_request.service is ServiceClass.ALL}
    return any(e.kind is EventKind.RUN and names & set(e.node_path.split("/"))
               for e in trace.events)


def refilled_after_exhaustion(trace):
    """A node ran out of budget while an app below it had work, nothing
    below it ran until its next replenishment, and the app ran after that
    while its work was still pending: the refill let the node run again."""
    events = trace.events
    below = {}  # node path -> the apps in its subtree
    for app, info in trace.app_info.items():
        parts = info.node_path.split("/")
        for k in range(2, len(parts) + 1):
            below.setdefault("/".join(parts[:k]), set()).add(app)
    for e in events:
        if e.kind is not EventKind.BUDGET_EXHAUSTED:
            continue
        refill = next((r.tick for r in events if r.kind is EventKind.REPLENISH
                       and r.node_path == e.node_path and r.tick > e.tick), None)
        apps = below.get(e.node_path, set())
        if refill is None or any(r.kind is EventKind.RUN and r.app in apps
                                 and e.tick < r.tick < refill for r in events):
            continue
        for app in apps:
            for start, end in trace.app_info[app].backlog:
                if start <= e.tick + 1 and refill < end and any(
                        r.kind is EventKind.RUN and r.app == app
                        and refill <= r.tick < end for r in events):
                    return True
    return False


def unloaded_beside_runners(unloads, trace):
    """An undeploy unloaded a leaf at a tick where an app on a sibling leaf
    (another child of the same parent) ran."""
    for tick, path in unloads:
        parent = path.rsplit("/", 1)[0]
        if any(e.kind is EventKind.RUN and e.tick == tick and e.node_path != path
               and e.node_path.rsplit("/", 1)[0] == parent for e in trace.events):
            return True
    return False


class Rescaling(engine.Simulation):
    """Counts, over the stride charges, those that grew a node's scale while
    a pass there was not zero, and those that charged a key at a share other
    than the one it was last charged at. Keeps the tick and leaf path of each
    undeploy that unloaded its leaf."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rescales = self.recharged = 0
        self._last_share = {}
        self.unloads = []

    def _do_undeploy(self, t, app_id):
        art = self._art.get(app_id)
        super()._do_undeploy(t, app_id)
        if not self.h.has_node(art.parent):
            self.unloads.append((t, art.node_path))

    def _charge_phase(self, t, n, picked, route):
        before = []
        for rt, kind, child in route:
            if kind == "stride":
                key, grant = child.key, child.grant
                before.append((rt, rt.scale, any(rt.passes.values())))
                last = self._last_share.get((rt.key, key), grant.share)
                self.recharged += last != grant.share
                self._last_share[rt.key, key] = grant.share
        super()._charge_phase(t, n, picked, route)
        self.rescales += sum(live and rt.scale != scale for rt, scale, live in before)


def test_next_event_engine_matches_the_tick_loop():
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(scenarios())
    def compare(case):
        old, _ = simulate(ref.Simulation, *case)
        new, sim = simulate(Rescaling, *case)
        assert digest(new) == digest(old)
        # the reference writes a row per tick; the segments expand to them
        assert rows(new) == old.events
        # and tile [0, horizon) in tick order, none empty, as the verifier needs
        ends = [0] + [e for _, e, _ in new.segments]
        assert [s for s, _, _ in new.segments] == ends[:-1] and ends[-1] == new.horizon
        assert all(s < e for s, e, _ in new.segments)
        kinds = {e.kind for e in old.events}
        for kind in (EventKind.DEADLINE_MISS, EventKind.BUDGET_EXHAUSTED,
                     EventKind.IDLE, EventKind.REPLENISH, EventKind.UNDEPLOY):
            seen[kind.value] += kind in kinds
        seen["slack"] += slack_run(old)
        seen["degraded"] += any(d.outcome is Outcome.DEGRADED for _, _, d in old.decisions)
        seen["restored"] += any(  # a squeezing app leaves: the others grow back
            d.outcome is Outcome.DEGRADED and old.app_info[app].undeployed_at is not None
            for _, app, d in old.decisions)
        seen["all"] += all_granted_ran(case[2], old)
        seen["rescaled"] += sim.rescales > 0
        seen["recharged"] += sim.recharged > 0
        seen["refilled"] += refilled_after_exhaustion(old)
        seen["unloaded"] += unloaded_beside_runners(sim.unloads, old)
        seen["ok"] += 1

    compare()
    # agreement means something only if the traces hold these rows
    for key in ("DEADLINE_MISS", "BUDGET_EXHAUSTED", "IDLE", "REPLENISH", "UNDEPLOY"):
        assert seen[key] >= seen["ok"] // 15, (key, seen)
    for key in ("slack", "degraded", "restored", "all"):
        assert seen[key] >= seen["ok"] // 40, (key, seen)
    for key in ("rescaled", "recharged", "refilled", "unloaded"):
        assert seen[key] >= seen["ok"] // 10, (key, seen)


class Recording:
    """Keeps the budget servers as they stand after every sync."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.states = []

    def _sync_runtimes(self, t, grants, retired=None):
        super()._sync_runtimes(t, grants, retired)
        self.states.append((
            t,
            {nid: (rt.since, rt.cap, rt.rem) for nid, rt in self._nrt.items()},
            {app: (art.grant, art.cap, art.rem) for app, art in self._art.items()},
            {period: set(filed) for period, filed in self._servers.items()},
        ))


class Incremental(Recording, engine.Simulation):
    def _sync_runtimes(self, t, grants, retired=None):
        super()._sync_runtimes(t, grants, retired)
        # the registry files each live holder with a reservation grant, and
        # only those, under its grant's period
        live = {**self._nrt, **self._art}  # node ids are ints, app ids strs
        assert all((h.cap is None) == (h.grant is None or h.grant.period is None)
                   for h in live.values())
        filed = {(period, key): holder for period, held in self._servers.items()
                 for key, holder in held.items()}
        assert filed == {(h.grant.period, key): h for key, h in live.items()
                         if h.cap is not None}


class FullScan(Recording, sync_reference.FullScanSimulation):
    pass


def test_incremental_sync_matches_the_full_scan():
    """After every deploy and undeploy, each node's budget server (first
    tick, cap, budget left), each live app's award and server, and the
    holders filed under each live period equal what the full scan of the
    tree gives; so does the trace."""
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(scenarios())
    def compare(case):
        old_trace, old = simulate(FullScan, *case)
        new_trace, new = simulate(Incremental, *case)
        assert new.states == old.states
        assert digest(new_trace) == digest(old_trace)
        steps = list(zip(old.states, old.states[1:]))
        # a scheduler unloaded; a server's budget moved by a regrant; two
        # periods live at once
        seen["unloaded"] += any(a[1].keys() - b[1].keys() for a, b in steps)
        seen["regrant"] += any(
            key in a[k] and a[k][key][1] != server[1]
            for a, b in steps for k in (1, 2) for key, server in b[k].items()
        )
        seen["periods"] += any(len(state[3]) > 1 for state in old.states)
        seen["ok"] += 1

    compare()
    # agreement means something only if the runs reach these states
    for key in ("unloaded", "periods"):
        assert seen[key] >= seen["ok"] // 15, (key, seen)
    assert seen["regrant"] >= seen["ok"] // 40, seen
