"""The tree's app, name and offered-class indexes agree with a scan of the
nodes under random deploy/undeploy churn, and a rejected deploy leaves the
tree canonically identical. The search for a compatible leaf, which walks
only the leaves offering the class, returns the leaf a scan of every leaf
returns, also after a scheduler is unloaded (detach) or a rejected load is
taken back (undo_attach_scheduler)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hiersched.contracts import Contract, ServiceClass, satisfies, utilization
from hiersched.deployment import (
    DeploymentRequest,
    Outcome,
    deploy,
    find_compatible_service,
    undeploy,
)
from hiersched.hierarchy import Hierarchy, new_hierarchy
from helpers import edf_spec, rr_spec, stride_spec

# few names, so that names and ids are reused after undeploys and rejections
NAMES = ("s0", "s1", "s2", "s3")


def _edf(name, size):
    return edf_spec(name, Contract.resbh(size, 100))


def _stride(name, size):
    return stride_spec(name, Contract.ps(size * 10_000))


def _rr(name, size):
    return rr_spec(name, Contract.be())


KINDS = {
    # scheduler factory, then the contracts an app may ask of it
    "edf": (_edf, lambda n: [Contract.resbh(n, 100), Contract.resbs(n, 100)]),
    "stride": (_stride, lambda n: [Contract.ps(n * 10_000), Contract.be()]),
    "rr": (_rr, lambda n: [Contract.be()]),
}

deploy_op = st.tuples(
    st.just("deploy"),
    st.sampled_from(sorted(KINDS)),
    st.sampled_from(NAMES),
    st.integers(10, 70),  # scheduler's own ask, percent
    st.integers(1, 60),  # app's ask, percent
    st.integers(0, 1),  # which contract the scheduler kind offers
    st.sampled_from(["", "video", "batch"]),
    st.sampled_from([True, True, True, False]),  # supply a scheduler at all
)
undeploy_op = st.tuples(st.just("undeploy"), st.integers(0, 1_000))


def scan_for_service(h, req):
    """The search as a scan of every leaf, as it was written before the
    index of leaves by offered class."""
    candidates = []
    for node in h.nodes():
        if not node.is_leaf() or req.request.service not in node.spec.provides:
            continue
        if h.spare_capacity(node.node_id) < utilization(req.request):
            continue
        if not satisfies(node.granted, req.request):
            continue
        candidates.append(node)
    if not candidates:
        return None
    if req.app_class:
        for node in candidates:
            if req.app_class in node.tags:
                return node.node_id
    return candidates[0].node_id


# every class a leaf offers, small and large, with and without a label
PROBES = [
    DeploymentRequest("probe", label, request)
    for label in ("", "video", "batch")
    for request in (Contract.resbh(1, 100), Contract.resbh(40, 100),
                    Contract.resbs(5, 100), Contract.resbs(30, 50),
                    Contract.ps(10_000), Contract.ps(400_000), Contract.be())
]


def assert_indexes_match_scan(h, names, apps):
    nodes = h.nodes()
    assert [n.node_id for n in nodes] == sorted(n.node_id for n in nodes)
    for service in ServiceClass:
        assert list(h.leaves_offering(service)) == [
            n for n in h.nodes() if n.is_leaf() and service in n.spec.provides]
    for req in PROBES:
        assert find_compatible_service(h, req) == scan_for_service(h, req)
    by_name = {n.spec.name: n.node_id for n in nodes}
    slots = {s.app_id: (n.node_id, s) for n in nodes for s in n.apps}
    for name in set(names) | set(by_name):
        assert h.find_node_by_name(name) == by_name.get(name)
    for app in set(apps) | set(slots):
        if app in slots:
            nid, slot = slots[app]
            assert h.app_node(app) == nid
            assert h.app_slot(app) is slot
        else:
            assert h.app_node(app) is None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(deploy_op, undeploy_op), min_size=5, max_size=40))
def test_indexes_follow_random_churn(ops):
    h = new_hierarchy()
    live: list = []
    seen: list = []
    for i, op in enumerate(ops):
        if op[0] == "undeploy":
            if live:
                undeploy(h, live.pop(op[1] % len(live)))
        else:
            _, kind, name, sched_size, app_size, pick, app_class, with_sched = op
            make, offers = KINDS[kind]
            choices = offers(app_size)
            app = f"app{i}"
            seen.append(app)
            before = h.canonical()
            decision = deploy(
                h,
                DeploymentRequest(
                    app, app_class, choices[pick % len(choices)],
                    scheduler=make(name, sched_size) if with_sched else None,
                ),
            )
            if decision.outcome is Outcome.REJECTED:
                assert h.canonical() == before
            else:
                live.append(app)
        assert_indexes_match_scan(h, NAMES, seen)


def test_search_after_detach_and_undo_attach_scheduler():
    h = new_hierarchy()

    def check():
        assert_indexes_match_scan(h, NAMES, [])

    steps = [  # app, label, request, the scheduler it brings
        ("e0a", "", Contract.resbh(15, 100), _edf("e0", 20)),
        ("e1a", "video", Contract.resbh(10, 100), _edf("e1", 20)),  # e0 is too full
        ("p0a", "", Contract.ps(150_000), _stride("p0", 20)),
        ("p1a", "batch", Contract.ps(100_000), _stride("p1", 20)),
        ("r0a", "video", Contract.be(), _rr("r0", 0)),  # STRIDE offers BE too
    ]
    for app, label, request, scheduler in steps:
        decision = deploy(h, DeploymentRequest(app, label, request, scheduler=scheduler))
        assert decision.outcome is not Outcome.REJECTED
        check()
    # the later leaf with the label beats the earlier one without it
    small = Contract.resbh(1, 100)
    assert [find_compatible_service(h, DeploymentRequest("p", label, small))
            for label in ("", "video")] == [h.find_node_by_name(n) for n in ("e0", "e1")]
    # a load that admission takes back: the new leaf's hard ask overflows the root
    before = h.node_count()
    decision = deploy(h, DeploymentRequest(
        "big", "video", Contract.resbh(50, 100), scheduler=_edf("big", 90)))
    assert decision.outcome is Outcome.REJECTED and h.node_count() == before
    check()
    # an undeploy that unloads the leaf its app loaded
    undeploy(h, "e0a")
    assert h.find_node_by_name("e0") is None
    check()
    # both called directly; the id taken back is handed out again
    nid = h.attach_scheduler(Hierarchy.ROOT_ID, _stride("x", 5))
    check()
    h.undo_attach_scheduler(nid)
    check()
    assert h.attach_scheduler(Hierarchy.ROOT_ID, _edf("y", 5)) == nid
    assert h.compose().feasible
    check()
    h.detach(nid)
    assert h.compose().feasible
    check()
