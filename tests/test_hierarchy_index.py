"""The tree's app and name indexes agree with a scan of the nodes under
random deploy/undeploy churn, and a rejected deploy leaves the tree
canonically identical."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hiersched.contracts import Contract
from hiersched.deployment import DeploymentRequest, Outcome, deploy, undeploy
from hiersched.hierarchy import new_hierarchy
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


def assert_indexes_match_scan(h, names, apps):
    nodes = h.nodes()
    assert [n.node_id for n in nodes] == sorted(n.node_id for n in nodes)
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
