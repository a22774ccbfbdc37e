"""One more deploy costs the same exact arithmetic however many apps the tree
holds.

Composition keeps per-node integer sums and re-settles only the changed
path, so a deploy into a tree that is not over-committed must make as many
calls into the integer accounting helper (`hierarchy._units`) with 600 apps
on the leaves as with 100, and build no Fraction. The counts are taken by
wrapping `_units`, `Fraction.__new__` and the Fraction operators for the
length of one deploy() call. At each node a compose visits only the
children on the path to a change, so one more deploy settles as many nodes,
and looks at as many of the root's children, with 300 leaves under the root
as with 30.

A leaf's fresh apps are the tail of its apps, so one more deploy onto a
leaf that keeps its grant reads as many app slots with 1,000 apps beside it
as with 10: the reads of the slots' fields are counted by wrapping their
descriptors for the length of one deploy() call.

Through the engine, a deploy and an undeploy sync only the grants their
compose set, so they must look up as many app slots and visit as many nodes
with 600 live apps as with 100. Those are counted by wrapping the tree's
lookups for the length of one timeline action. The search for a compatible
leaf walks only the leaves that offer the requested class.

Each node keeps its runnable children, so a dispatch decision costs the same
however many idle apps and idle leaves sit beside the path it takes: the
backlog tests and the per-node picks of the decisions are counted by
wrapping `_AppRT.backlogged` and the engine's `_pick` (`hiersched.policy`).

The engine files each budget server under its period, so a period boundary
costs only the servers it refills, however many servers of other periods
are live: the lines run inside `Simulation._replenish_phase` are counted by
a trace function set for the length of each call.

A BURSTY app keeps the count of on-ticks it has taken in, so bringing its
pending work up to date costs one on-tick count, not two: the calls to
`engine._on_before` are counted per dispatch.

A stride pick holds for every further quantum its key would win, so a quantum
end is a decision only where the turn passes: the root dispatches are
counted against the RUN segments.

The verifier checks all share-holders of a leaf in one walk per piece, so it
visits each runner segment once per piece it overlaps, however many holders
the piece has: the visits are counted by the unpacking of each segment.
"""

import sys
from collections import Counter
from fractions import Fraction

import pytest

from hiersched import engine, hierarchy, verify
from hiersched.contracts import Contract
from hiersched.deployment import (
    DeploymentRequest,
    Outcome,
    deploy,
    find_compatible_service,
)
from hiersched.engine import EventKind, Simulation, Workload, WorkloadKind, _AppRT
from hiersched.hierarchy import AppSlot, Hierarchy, new_hierarchy
from helpers import edf_spec, rr_spec, stride_spec

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__lt__", "__le__", "__gt__", "__ge__")
LEAVES = 30


def attach_leaves(h):
    """30 leaves under the root, EDF, STRIDE and RR in turn, with the
    request each one's apps make."""
    leaves = []
    for j in range(LEAVES // 3):
        leaves.append((h.attach_scheduler(0, edf_spec(f"edf{j}", Contract.resbh(30, 1000))),
                       Contract.resbh(1, 1000)))
        leaves.append((h.attach_scheduler(0, stride_spec(f"st{j}", Contract.ps(40_000))),
                       Contract.ps(1500)))
        leaves.append((h.attach_scheduler(0, rr_spec(f"rr{j}", Contract.be())),
                       Contract.be()))
    return leaves


def loaded_tree(n_apps):
    """30 leaves with n_apps dealt out over them, composed once; the root
    and every leaf keep spare capacity."""
    h = new_hierarchy()
    leaves = attach_leaves(h)
    for i in range(n_apps):
        nid, request = leaves[i % LEAVES]
        h.attach_application(nid, f"a{i}", request)
    result = h.compose()
    assert result.feasible
    assert not any(n.degraded for n in h.nodes())
    return h


def count_deploy(monkeypatch, h, req):
    """deploy() h, req, counting the calls into `_units` and the Fraction
    constructions and operations."""
    calls = Counter()

    def counting(key, function):
        def wrapped(*args):
            calls[key] += 1
            return function(*args)
        return wrapped

    with monkeypatch.context() as m:
        m.setattr(hierarchy, "_units", counting("units", hierarchy._units))
        for name in ("__new__",) + OPERATORS:
            m.setattr(Fraction, name, counting("fraction", getattr(Fraction, name)))
        decision = deploy(h, req)
    return decision, calls


@pytest.mark.parametrize("request_", [
    Contract.resbh(1, 1000), Contract.ps(1500), Contract.be(),
], ids=str)
def test_one_more_deploy_costs_the_same_at_100_and_600_apps(monkeypatch, request_):
    req = DeploymentRequest("extra", "", request_)
    small, n_small = count_deploy(monkeypatch, loaded_tree(100), req)
    large, n_large = count_deploy(monkeypatch, loaded_tree(600), req)
    assert small.outcome is large.outcome is Outcome.ATTACHED_EXISTING
    assert small.node_id == large.node_id
    assert n_small["units"] > 0
    assert n_large == n_small
    assert n_small["fraction"] == 0


def slot_reads(monkeypatch, n_apps):
    """Deploy one more PS app onto a STRIDE leaf that holds `n_apps`, with
    room to spare; returns the reads of any app slot's fields."""
    h = new_hierarchy()
    leaf = h.attach_scheduler(0, stride_spec("st", Contract.ps(500_000)))
    for i in range(n_apps):
        h.attach_application(leaf, f"a{i}", Contract.ps(100))
    assert h.compose().feasible
    reads = [0]

    def counted(member):
        def get(slot):
            reads[0] += 1
            return member.__get__(slot, AppSlot)
        return property(get, member.__set__)

    with monkeypatch.context() as m:
        for name in AppSlot.__slots__:
            m.setattr(AppSlot, name, counted(AppSlot.__dict__[name]))
        decision = deploy(h, DeploymentRequest("extra", "", Contract.ps(100)))
    assert decision.outcome is Outcome.ATTACHED_EXISTING and decision.node_id == leaf
    return reads[0]


def test_one_more_deploy_reads_as_many_slots_at_10_and_1000_apps_on_a_leaf(
        monkeypatch):
    small = slot_reads(monkeypatch, 10)
    assert small > 0
    assert slot_reads(monkeypatch, 1000) == small


def loaded_simulation(n_apps):
    """The tree of loaded_tree(n_apps), with every app deployed through the
    engine at tick 0. Leaf j is tagged with the class of its apps, so that
    admission deals them out as loaded_tree does."""
    sim = Simulation(horizon=10)
    leaves = attach_leaves(sim.h)
    for j, (nid, _) in enumerate(leaves):
        sim.h.node(nid).tags.add(f"c{j}")
    # grant the empty leaves, and hand the grants to the engine as a deploy would
    sim._sync_runtimes(0, sim.h.compose().grants)
    for i in range(n_apps):
        nid, request = leaves[i % LEAVES]
        sim._do_deploy(0, DeploymentRequest(f"a{i}", f"c{i % LEAVES}", request),
                       Workload(WorkloadKind.CPU_BOUND))
    assert len(sim._art) == n_apps
    assert all(sim.h.app_node(f"a{i}") == leaves[i % LEAVES][0] for i in range(n_apps))
    assert not any(n.degraded for n in sim.h.nodes())
    return sim


def count_lookups(monkeypatch, action):
    """While `action` runs: app_slot calls, node lookups, and the nodes that
    nodes() and leaves_offering() hand out, counted as they are taken."""
    calls = Counter()

    def counting(name):
        method = getattr(Hierarchy, name)

        def looked_up(*args):
            calls[name] += 1
            return method(*args)

        def listed(*args):
            for node in method(*args):
                calls["listed"] += 1
                yield node
        return looked_up if name in ("node", "app_slot") else listed

    with monkeypatch.context() as m:
        for name in ("node", "app_slot", "nodes", "leaves_offering"):
            m.setattr(Hierarchy, name, counting(name))
        action()
    return calls


class CountedList(list):
    """A node's `children`, counting the ids taken from it by iteration."""

    taken = 0

    def __iter__(self):
        for item in super().__iter__():
            CountedList.taken += 1
            yield item


def settle_counts(monkeypatch, n_leaves, load):
    """Deploy one more app into `n_leaves` EDF leaves under the root, each
    holding one app: into the first leaf (which has room unless `load`), or
    on a scheduler of its own (the leaves are full if `load`). Returns the
    outcome, the nodes settled and the root's children iterated."""
    h = new_hierarchy()
    leaf_ask = Contract.resbh(1 if load else 2, 1000)
    for j in range(n_leaves):
        nid = h.attach_scheduler(0, edf_spec(f"edf{j}", leaf_ask))
        h.attach_application(nid, f"a{j}", Contract.resbh(1, 1000))
    assert h.compose().feasible
    settled = [0]
    settle = Hierarchy._settle

    def counted(self, *args):
        settled[0] += 1
        return settle(self, *args)

    root = h.node(Hierarchy.ROOT_ID)
    root.children = CountedList(root.children)
    CountedList.taken = 0
    req = DeploymentRequest("extra", "", Contract.resbh(1, 1000),
                            scheduler=edf_spec("extra", Contract.resbh(1, 1000)))
    with monkeypatch.context() as m:
        m.setattr(Hierarchy, "_settle", counted)
        decision = deploy(h, req)
    return decision.outcome, settled[0], CountedList.taken


@pytest.mark.parametrize("load", [False, True], ids=["attach", "load"])
def test_one_more_deploy_settles_as_many_nodes_at_30_and_300_leaves(monkeypatch, load):
    small = settle_counts(monkeypatch, 30, load)
    large = settle_counts(monkeypatch, 300, load)
    assert small[0] is (Outcome.LOADED_NEW if load else Outcome.ATTACHED_EXISTING)
    assert small == large == (small[0], 2, 0)  # the root and one leaf


@pytest.mark.parametrize("request_, offering", [
    (Contract.resbh(1, 1000), 10), (Contract.ps(1500), 10), (Contract.be(), 20),
], ids=str)
def test_the_search_walks_only_the_leaves_offering_the_class(monkeypatch, request_,
                                                             offering):
    h = loaded_tree(100)
    # a label no leaf carries: every candidate is tested
    req = DeploymentRequest("extra", "nowhere", request_)
    calls = count_lookups(monkeypatch, lambda: find_compatible_service(h, req))
    assert calls["listed"] == offering


@pytest.mark.parametrize("request_", [
    Contract.resbh(1, 1000), Contract.ps(1500), Contract.be(),
], ids=str)
def test_one_more_engine_deploy_visits_the_same_at_100_and_600_apps(monkeypatch,
                                                                  request_):
    counts = []
    for n_apps in (100, 600):
        sim = loaded_simulation(n_apps)
        req = DeploymentRequest("extra", "", request_)
        deployed = count_lookups(monkeypatch, lambda: sim._do_deploy(
            1, req, Workload(WorkloadKind.CPU_BOUND)))
        assert sim.decisions[-1][2].outcome is Outcome.ATTACHED_EXISTING
        undeployed = count_lookups(monkeypatch, lambda: sim._do_undeploy(2, "extra"))
        counts.append((sim.decisions[-1][2].node_id, deployed, undeployed))
    small, large = counts
    assert small[1]["node"] > 0 and small[1]["app_slot"] == 1
    assert large == small


def dispatch_counts(monkeypatch, n_idle):
    """Run a CPU-bound app on an EDF leaf beside `n_idle` PERIODIC apps
    whose first release falls past the horizon, under a root that also holds
    `n_idle` empty RR leaves. Returns the decisions after tick 0, and the
    `backlogged` and `_pick` calls made from the end of the tick-0
    dispatch on."""
    calls = Counter()
    decisions = []

    def counting(owner, name):
        function = getattr(owner, name)

        def counted(*args):
            if decisions:
                calls[name] += 1
            return function(*args)
        return counted

    class AfterTickZero(Simulation):
        def dispatch(self, node_id, tick):
            out = super().dispatch(node_id, tick)
            decisions.append(tick)
            return out

    sim = AfterTickZero(horizon=300)
    for i in range(n_idle):
        sim.h.attach_scheduler(Hierarchy.ROOT_ID, rr_spec(f"idle{i}", Contract.be()))
    sim.deploy_at(0, DeploymentRequest(
        "runner", "", Contract.resbs(10, 100),
        scheduler=edf_spec("main", Contract.resbh(50, 100)),
    ), Workload(WorkloadKind.CPU_BOUND))
    never = Workload(WorkloadKind.PERIODIC, period=1000, wcet=1, offset=500)
    for i in range(n_idle):
        sim.deploy_at(0, DeploymentRequest(f"p{i}", "", Contract.resbh(1, 1000)), never)
    with monkeypatch.context() as m:
        m.setattr(_AppRT, "backlogged", counting(_AppRT, "backlogged"))
        m.setattr(engine, "_pick", counting(engine, "_pick"))
        trace = sim.run()
    assert all(d.outcome is not Outcome.REJECTED for _, _, d in trace.decisions)
    assert len(sim.h.node(sim.h.find_node_by_name("main")).apps) == n_idle + 1
    assert trace.per_app_service["runner"] == 150  # the leaf's budget, 3 windows
    return decisions[1:], calls["backlogged"], calls["_pick"]


def test_a_decision_costs_the_same_at_10_and_100_idle_apps(monkeypatch):
    small = dispatch_counts(monkeypatch, 10)
    large = dispatch_counts(monkeypatch, 100)
    assert len(small[0]) >= 5 and small[1] > 0 and small[2] > 0
    assert large == small


def replenish_counts(monkeypatch, n_slow):
    """Run 500 ticks of `n_slow` EDF leaves granted RESBH[1,1000], each
    holding a RESBH[1,1000] app that never releases, beside one leaf granted
    RESBH[5,10] that runs a CPU-bound RESBH[2,10] app. Returns the ticks at
    which the replenish phase ran, the ticks of the REPLENISH rows, and the
    lines run inside the phase."""
    ticks = []
    lines = [0]

    def count(frame, event, arg):
        if event == "line":
            lines[0] += 1
        return count

    phase = Simulation._replenish_phase

    def traced(self, t):
        ticks.append(t)
        outer = sys.gettrace()
        sys.settrace(count)
        try:
            return phase(self, t)
        finally:
            sys.settrace(outer)

    sim = Simulation(horizon=500)
    slow = [sim.h.attach_scheduler(Hierarchy.ROOT_ID,
                                   edf_spec(f"slow{i}", Contract.resbh(1, 1000)))
            for i in range(n_slow)]
    for i, nid in enumerate(slow):
        sim.h.node(nid).tags.add(f"slow{i}")
    # grant the empty leaves, and hand the grants to the engine as a deploy would
    sim._sync_runtimes(0, sim.h.compose().grants)
    never = Workload(WorkloadKind.PERIODIC, period=1000, wcet=1, offset=600)
    for i in range(n_slow):
        sim.deploy_at(0, DeploymentRequest(f"s{i}", f"slow{i}", Contract.resbh(1, 1000)),
                      never)
    sim.deploy_at(0, DeploymentRequest(
        "fast", "", Contract.resbh(2, 10),
        scheduler=edf_spec("fast", Contract.resbh(5, 10)),
    ), Workload(WorkloadKind.CPU_BOUND))
    with monkeypatch.context() as m:
        m.setattr(Simulation, "_replenish_phase", traced)
        trace = sim.run()
    assert all(d.outcome is not Outcome.REJECTED for _, _, d in trace.decisions)
    assert [sim.h.app_node(f"s{i}") for i in range(n_slow)] == slow
    assert trace.per_app_service["fast"] == 100  # its own budget, 50 windows
    replenished = [e.tick for e in trace.events if e.kind is EventKind.REPLENISH]
    return ticks, replenished, lines[0]


def test_a_period_boundary_costs_the_same_at_10_and_100_idle_servers(monkeypatch):
    small = replenish_counts(monkeypatch, 10)
    large = replenish_counts(monkeypatch, 100)
    assert small[1] == list(range(10, 500, 10))  # the fast leaf's refills
    assert small[2] > 0
    assert large == small
    # the phase runs only at those boundaries: at tick 0 none refills
    assert small[0] == small[1]


def test_a_bursty_app_counts_its_on_ticks_once_per_accrual(monkeypatch):
    calls = Counter()

    def counting(name, function):
        def counted(*args):
            calls[name] += 1
            return function(*args)
        return counted

    sim = Simulation(horizon=100, seed=0)
    sim.deploy_at(0, DeploymentRequest(
        "burst", "", Contract.be(), scheduler=rr_spec("rr", Contract.be()),
    ), Workload(WorkloadKind.BURSTY, on=5, off=5))
    with monkeypatch.context() as m:
        m.setattr(engine, "_on_before", counting("_on_before", engine._on_before))
        m.setattr(Simulation, "dispatch", counting("dispatch", Simulation.dispatch))
        trace = sim.run()
    assert trace.per_app_service["burst"] == 50
    assert calls["dispatch"] == 60
    assert calls["_on_before"] < 3 * calls["dispatch"]


@pytest.mark.parametrize("order", [("hi", "lo"), ("lo", "hi")], ids="-".join)
def test_a_stride_pick_holds_while_its_key_keeps_winning(monkeypatch, order):
    """Shares 2:1 on a STRIDE leaf with quantum 5: `hi` wins two quanta in a
    row, one decision for both. Equal passes go to the first deployed, so
    the order moves the runs by a quantum: 41 runs, or 40."""
    shares = {"hi": Contract.ps(200_000), "lo": Contract.ps(100_000)}
    sim = Simulation(horizon=300)
    leaf = stride_spec("st", Contract.ps(600_000), quantum=5)
    for app in order:
        sim.deploy_at(0, DeploymentRequest(app, "", shares[app],
                                           scheduler=leaf if app == order[0] else None),
                      Workload(WorkloadKind.CPU_BOUND))
    dispatched = Counter()
    dispatch = Simulation.dispatch

    def counted(self, node_id, tick):
        dispatched[node_id] += 1
        return dispatch(self, node_id, tick)

    with monkeypatch.context() as m:
        m.setattr(Simulation, "dispatch", counted)
        trace = sim.run()
    assert all(d.outcome is not Outcome.REJECTED for _, _, d in trace.decisions)
    assert trace.per_app_service == {"hi": 200, "lo": 100}
    runs = [s for s in trace.segments if s[2] is not None]
    assert len(runs) == len(trace.segments) == (41 if order[0] == "hi" else 40)
    assert dispatched == {Hierarchy.ROOT_ID: len(runs)}


class Visited(tuple):
    """A runner segment that counts each time it is unpacked."""

    count = 0

    def __iter__(self):
        Visited.count += 1
        return super().__iter__()


def share_visits(monkeypatch, n):
    """Run 600 ticks of `n` BURSTY holders of one STRIDE leaf, then count the
    runner segments `build_report` visits, and the runner segments that
    overlap each piece of the leaf, summed."""
    sim = Simulation(horizon=600)
    spec = stride_spec("st", Contract.ps(1_000_000), quantum=2)
    for i in range(n):
        sim.deploy_at(0, DeploymentRequest(
            f"p{i}", "", Contract.ps(1_000_000 // n), scheduler=spec,
        ), Workload(WorkloadKind.BURSTY, on=5 + i % 7, off=20 + i % 11))
    trace = sim.run()
    assert all(d.outcome is not Outcome.REJECTED for _, _, d in trace.decisions)
    leaf = verify._share_leaf(trace, trace.app_info["p0"].node_path)
    assert max(len(members) for _, _, members, _ in leaf.pieces) > n // 2
    share_leaf = verify._share_leaf

    def counted(trace, node_path):
        built = share_leaf(trace, node_path)
        return built._replace(runners=[Visited(g) for g in built.runners])

    Visited.count = 0
    with monkeypatch.context() as m:
        m.setattr(verify, "_share_leaf", counted)
        verify.build_report(trace)
    overlaps = sum(s < end and e > start for start, end, _, _ in leaf.pieces
                   for s, e, _ in leaf.runners)
    return Visited.count, overlaps


@pytest.mark.parametrize("n", [5, 50])
def test_a_share_leaf_costs_one_walk_per_piece_at_5_and_50_holders(monkeypatch, n):
    visits, overlaps = share_visits(monkeypatch, n)
    assert visits > 0
    assert visits <= overlaps
