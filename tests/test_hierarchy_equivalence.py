"""Incremental composition gives the same tree as the full-scan settle.

`hierarchy_reference.ReferenceHierarchy` keeps the earlier compose, which
re-sums every holder under every node. Random churn runs on two trees side
by side, one of each kind: deploys into EDF, STRIDE and RR leaves (loaded
new or attached to a loaded one, under the root or a VIRTUAL node), undeploys,
apps attached and composed with no undo when the compose fails, changed
scheduler asks, VIRTUAL nodes and composes with nothing new. After every
step both trees must agree on every decision, every compose result
(feasibility and the Rejection's holder and reason), every node grant, app
award and degraded flag (`helpers.canonical`) and every spare capacity; the
incremental tree's per-node sums must equal a scan, and after a successful
compose no mark is left and every node's factor is the one its grant and
holders give. Undeploys go through `deployment.undeploy`, which asserts
that removing demand keeps the tree feasible. The examples are
derandomized, and the test asserts that enough of them degrade, reject and
leave a failed compose in place, so that agreement is not agreement on
trivial trees.
"""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hiersched.contracts import Contract, ServiceClass, utilization
from hiersched.deployment import DeploymentRequest, Outcome, deploy, undeploy
from hiersched.hierarchy import Hierarchy, new_hierarchy
from hierarchy_reference import ReferenceHierarchy
from helpers import canonical, edf_spec, rr_spec, stride_spec, virtual_spec

NAMES = tuple(f"s{k}" for k in range(8))
PERIODS = (10, 50, 100, 200)
RESBH, RESBS, PS = ServiceClass.RESBH, ServiceClass.RESBS, ServiceClass.PS


def _reservation(service, percent, period):
    return Contract(service, budget=max(1, percent * period // 100), period=period)


def _sched_request(kind, service, percent, period):
    if service is ServiceClass.NULL:
        return Contract.null()
    if kind == "edf":
        return _reservation(service, percent, period)
    if kind == "stride":
        return Contract.ps(percent * 10_000)
    if kind == "rr":
        return Contract.be()
    # VIRTUAL: any class a node may ask of its parent
    return {
        RESBH: lambda: _reservation(RESBH, percent, period),
        RESBS: lambda: _reservation(RESBS, percent, period),
        PS: lambda: Contract.ps(percent * 10_000),
        ServiceClass.BE: Contract.be,
        ServiceClass.ALL: Contract.all_cpu,
    }[service]()


def _app_request(provides, pick, percent, period):
    service = sorted(provides, key=lambda c: c.value)[pick % len(provides)]
    if service in (RESBH, RESBS):
        return _reservation(service, percent, period)
    if service is PS:
        return Contract.ps(percent * 10_000)
    return Contract.be()


SPECS = {"edf": edf_spec, "stride": stride_spec, "rr": rr_spec}
BASE = [
    (edf_spec("hard", Contract.resbh(40, 100)), Contract.resbh(35, 100)),
    (edf_spec("soft", Contract.resbs(20, 100)), Contract.resbs(5, 100)),
    (stride_spec("share", Contract.ps(200_000)), Contract.ps(170_000)),
    (rr_spec("best", Contract.be()), Contract.be()),
]
percent = st.integers(1, 70)
period = st.sampled_from(PERIODS)
parent_pick = st.integers(0, 3)  # a VIRTUAL node to load under, if one exists; 3: root
service = st.sampled_from([RESBH, RESBS, PS, ServiceClass.BE, ServiceClass.ALL,
                           ServiceClass.NULL])

deploy_op = st.tuples(
    st.just("deploy"),
    st.sampled_from(sorted(SPECS)),
    st.sampled_from(NAMES),
    st.sampled_from([RESBH, RESBS, RESBS, ServiceClass.NULL]),  # EDF's own class
    percent, period,  # scheduler's own ask
    st.integers(0, 1), percent, period,  # app's class and ask
    st.sampled_from(["", "video", "batch"]),
    st.sampled_from([True, True, True, False]),  # supply a scheduler at all
    parent_pick,
)
# a large share scheduler, which squeezes the soft grants beside it, or a
# large hard one, which may not fit, for an app that asks for all of it
squeeze_op = st.tuples(st.just("big"), st.just(PS), st.integers(40, 90), parent_pick)
hard_op = st.tuples(st.just("big"), st.just(RESBH), st.integers(10, 70), parent_pick)
undeploy_op = st.tuples(st.just("undeploy"), st.integers(0, 1_000))
# each of these composes at once; when that fails, the tree stays as it is
# (composed again if the flag is set) until a later change, not an undo,
# makes it feasible again
raw_op = st.tuples(  # attach one to three equal apps to a leaf
    st.just("raw"), st.integers(0, 1_000), st.integers(0, 1), percent, period,
    st.booleans(), st.integers(1, 3),
)
ask_op = st.tuples(  # change one scheduler's own ask
    st.just("ask"), st.integers(0, 1_000), service, percent, period, st.booleans(),
)
virtual_op = st.tuples(  # attach a VIRTUAL node under the root
    st.just("virtual"), service, percent, period, st.booleans(),
)
# a compose with nothing new; the unused integer keeps the derandomized
# examples, and so the floors below, what they were
realloc_op = st.tuples(st.just("realloc"), st.integers(0, 1_000))
ops = st.lists(
    st.one_of(deploy_op, deploy_op, squeeze_op, hard_op, undeploy_op, raw_op, raw_op,
              ask_op, virtual_op, realloc_op),
    min_size=6, max_size=30,
)


def _scan(reqs, classes):
    return sum((utilization(c) for c in reqs if c is not None and c.service in classes),
               Fraction(0))


def assert_sums_match_scan(h):
    nodes = {n.node_id: n for n in h.nodes()}
    for n in nodes.values():
        if n.is_leaf():
            reqs = [s.request for s in n.apps]
            awards = [s.awarded for s in n.apps]
            holders = {s.app_id for s in n.apps}
        else:
            reqs = [nodes[c].spec.parent_request for c in n.children]
            awards = [nodes[c].granted for c in n.children]
            holders = set(n.children)
        assert n.hard == _scan(reqs, {RESBH})
        assert n.soft == _scan(reqs, {RESBS, PS})
        assert n.reserved == _scan(reqs, {RESBH, RESBS})
        assert n.used == _scan(awards, {RESBH, RESBS, PS})
        assert n.fresh <= holders
        if n.fresh:
            assert n.node_id in h._changed


def assert_settled(h):
    """After a successful compose: no mark left, every factor current."""
    assert not h._changed
    for n in h.nodes():
        assert not n.fresh
        capacity = utilization(n.granted)
        factor = None
        if n.hard + n.soft > capacity:
            factor = (capacity - n.hard) / n.soft
        assert n.factor == factor


def assert_same_result(new, old):
    assert (new.feasible, new.rejected) == (old.feasible, old.rejected)
    assert_fewer_grants(new.grants, old.grants)


def assert_fewer_grants(new, old):
    # the grants this compose set, in the order the full settle lists them
    it = iter(old)
    assert all(g in it for g in new)


def assert_same_decision(new, old):
    assert new._replace(grants=()) == old._replace(grants=())
    assert_fewer_grants(new.grants, old.grants)


class Pair:
    """The same operations on an incremental and a reference tree."""

    def __init__(self, seen):
        self.h, self.r = new_hierarchy(), ReferenceHierarchy()
        self.seen = seen
        self.live: list = []
        self.virtual: list = []
        self.grants: dict = {}
        # every example starts from nearly full leaves of each kind, which
        # hold 80 % of the root
        for spec, request in BASE:
            app = f"base_{spec.name}"
            nid, _ = self.both(lambda t: t.attach_scheduler(Hierarchy.ROOT_ID, spec))
            self.both(lambda t: t.attach_application(nid, app, request))
            self.live.append(app)
        assert self.compose()
        self.check()

    def both(self, fn):
        return fn(self.h), fn(self.r)

    def compose(self):
        new, old = self.both(lambda t: t.compose())
        assert_same_result(new, old)
        if old.rejected is not None:
            self.seen[old.rejected.reason.split(":")[0]] += 1
        return old.feasible

    def check(self):
        assert canonical(self.h) == canonical(self.r)
        for n in self.r.nodes():
            assert self.h.spare_capacity(n.node_id) == self.r.spare_capacity(n.node_id)
        assert_sums_match_scan(self.h)

    def recover(self, again, change):
        """After a failed compose: compare, maybe compose again, then make a
        change that is not an undo and must compose."""
        self.seen["left_failed"] += 1
        self.check()
        if again:
            assert not self.compose()
            self.check()
        self.both(change)
        assert self.compose()

    def non_root(self, k):
        ids = [n.node_id for n in self.h.nodes() if n.node_id != Hierarchy.ROOT_ID]
        return ids[k % len(ids)] if ids else None

    def step(self, i, op):
        h, seen = self.h, self.seen
        if op[0] == "big":
            _, service, pct, under = op
            kind = "stride" if service is PS else "edf"
            op = ("deploy", kind, f"big{i}", service, pct, 100, 0, pct, 100, "", True,
                  under)
        if op[0] == "deploy":
            (_, kind, name, sched_service, s_pct, s_per, pick, a_pct, a_per,
             app_class, with_sched, under) = op
            spec = SPECS[kind](name, _sched_request(kind, sched_service, s_pct, s_per))
            request = _app_request(spec.provides, pick, a_pct, a_per)
            parent = self.virtual[under] if under < len(self.virtual) else None
            req = DeploymentRequest(
                f"app{i}", app_class, request,
                scheduler=spec if with_sched else None,
                target_parent=parent if with_sched else None,
            )
            before = canonical(h)
            new, old = self.both(lambda t: deploy(t, req))
            assert_same_decision(new, old)
            seen[old.outcome.value] += 1
            if old.outcome is Outcome.REJECTED:
                assert canonical(h) == before
                if old.reason.value == "INFEASIBLE":
                    seen["infeasible"] += 1
                    seen[old.detail.split(": ")[1].split(":")[0]] += 1
            else:
                self.live.append(req.app_id)
        elif op[0] == "undeploy":
            if self.live:
                app = self.live.pop(op[1] % len(self.live))
                self.both(lambda t: undeploy(t, app))
        elif op[0] == "raw":
            _, k, pick, a_pct, a_per, again, count = op
            leaves = [n for n in h.nodes() if n.is_leaf()]
            leaf = leaves[k % len(leaves)]
            apps = [f"app{i}_{j}" for j in range(count)]
            request = _app_request(leaf.spec.provides, pick, a_pct, a_per)
            for app in apps:
                self.both(lambda t: t.attach_application(leaf.node_id, app, request))
            if self.compose():
                self.live += apps
            else:
                self.recover(again, lambda t: [t.remove_application(a) for a in apps])
        elif op[0] == "ask":
            _, k, service, s_pct, s_per, again = op
            nid = self.non_root(k)
            if nid is None:
                return
            node = h.node(nid)
            old_ask = node.spec.parent_request
            kind = {"EDF_RESERVATION": "edf", "STRIDE": "stride",
                    "ROUND_ROBIN": "rr"}.get(node.spec.policy.value, "virtual")
            if kind == "edf" and service not in (RESBH, RESBS, ServiceClass.NULL):
                service = old_ask.service
            ask = _sched_request(kind, service, s_pct, s_per)
            self.both(lambda t: t.update_parent_request(nid, ask))
            if not self.compose():
                self.recover(again, lambda t: t.update_parent_request(nid, old_ask))
        elif op[0] == "virtual":
            _, service, s_pct, s_per, again = op
            request = _sched_request("virtual", service, s_pct, s_per)
            spec = virtual_spec(f"v{i}", request)
            new, old = self.both(lambda t: t.attach_scheduler(Hierarchy.ROOT_ID, spec))
            assert new == old
            if self.compose():
                self.virtual.append(new)
            else:
                self.recover(again, lambda t: t.detach(new))
        else:
            new, old = self.both(lambda t: t.compose())
            assert_same_result(new, old)
        self.check()
        grants = {n.node_id: n.granted for n in h.nodes()}
        # a compose with nothing new must agree too, and clear every mark
        if self.compose():
            assert_settled(h)
        self.check()
        seen["degraded"] += any(
            n.degraded or any(s.degraded for s in n.apps) for n in h.nodes()
        )
        # a grant moved since the last step that composed
        seen["regrant"] += any(
            n.node_id in self.grants and n.granted != self.grants[n.node_id]
            for n in h.nodes()
        )
        self.grants = grants


def test_incremental_compose_matches_the_full_settle():
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ops)
    def compare(steps):
        pair = Pair(Counter())
        for i, op in enumerate(steps):
            pair.step(i, op)
        # count examples, not steps
        seen.update(key for key, count in pair.seen.items() if count)
        seen["ok"] += 1

    compare()
    n = seen["ok"]
    # agreement means something only if the trees reach these states
    for key in ("degraded", "regrant", "left_failed", "ATTACHED_EXISTING",
                "LOADED_NEW"):
        assert seen[key] >= n // 2, (key, seen)
    for key in ("infeasible", "hard demand exceeds capacity",
                "parent request below aggregate reservation demand"):
        assert seen[key] >= n // 4, (key, seen)
    for key in ("soft grant would floor to zero", "supply shape", "DEGRADED"):
        assert seen[key] >= n // 15, (key, seen)
