"""Deployment protocol: service reuse, scheduler loading, rollback."""

import pytest

from hiersched.contracts import Contract
from hiersched.deployment import (
    DeploymentError,
    DeploymentRequest,
    Outcome,
    RejectReason,
    deploy,
    find_compatible_service,
    undeploy,
)
from hiersched.hierarchy import new_hierarchy
from helpers import edf_spec, rr_spec, stride_spec


def _tree_with_edf():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(60, 100)))
    h.attach_application(nid, "a1", Contract.resbh(10, 100))
    h.attach_application(nid, "a2", Contract.resbh(20, 100))
    assert h.compose().feasible
    return h, nid


# ------------------------------------------------------- find_compatible


def test_find_compatible_by_spare_and_grant():
    h, nid = _tree_with_edf()
    req = DeploymentRequest("new", "video", Contract.resbh(20, 100))
    assert find_compatible_service(h, req) == nid


def test_find_compatible_class_not_provided_anywhere():
    h = new_hierarchy()
    h.attach_scheduler(0, stride_spec("st", Contract.ps(500000)))
    assert h.compose().feasible
    req = DeploymentRequest("new", "video", Contract.resbh(20, 100))
    assert find_compatible_service(h, req) is None


def test_find_compatible_requires_spare():
    h, nid = _tree_with_edf()
    req = DeploymentRequest("new", "video", Contract.resbh(40, 100))
    assert find_compatible_service(h, req) is None  # spare is only 0.3


def test_find_compatible_prefers_matching_tag():
    h = new_hierarchy()
    small = h.attach_scheduler(0, stride_spec("st1", Contract.ps(100000)))
    big = h.attach_scheduler(0, stride_spec("st2", Contract.ps(500000)))
    assert h.compose().feasible
    # first video app only fits the second node, which gets tagged
    first = deploy(h, DeploymentRequest("v1", "video", Contract.ps(300000)))
    assert first.outcome is Outcome.ATTACHED_EXISTING
    assert first.node_id == big
    # now both nodes fit, but the tag beats attachment order
    assert find_compatible_service(
        h, DeploymentRequest("v2", "video", Contract.ps(50000))
    ) == big
    # an unlabeled app falls back to attachment order
    assert find_compatible_service(
        h, DeploymentRequest("x", "", Contract.ps(50000))
    ) == small


# ----------------------------------------------------------------- deploy


def test_deploy_attaches_to_existing_service():
    h, nid = _tree_with_edf()
    count = h.node_count()
    decision = deploy(h, DeploymentRequest("new", "video", Contract.resbh(20, 100)))
    assert decision.outcome is Outcome.ATTACHED_EXISTING
    assert decision.node_id == nid
    assert decision.awarded == Contract.resbh(20, 100)
    assert h.node_count() == count  # pertinence: nothing new was loaded
    assert h.app_slot("new").awarded == Contract.resbh(20, 100)


def test_deploy_loads_scheduler_when_no_service_fits():
    h = new_hierarchy()
    assert h.compose().feasible
    decision = deploy(
        h,
        DeploymentRequest(
            "v",
            "video",
            Contract.resbh(10, 100),
            scheduler=edf_spec("edf-video", Contract.resbh(30, 100)),
        ),
    )
    assert decision.outcome is Outcome.LOADED_NEW
    assert h.node_count() == 2
    assert h.node(decision.node_id).spec.name == "edf-video"
    assert h.node(decision.node_id).loaded_for == "v"
    assert decision.awarded == Contract.resbh(10, 100)


def test_deploy_no_service_no_scheduler():
    h = new_hierarchy()
    decision = deploy(h, DeploymentRequest("v", "video", Contract.resbh(10, 100)))
    assert decision.outcome is Outcome.REJECTED
    assert decision.reason is RejectReason.NO_SERVICE_NO_SCHEDULER
    assert h.node_count() == 1


def test_deploy_infeasible_rolls_back_byte_identical():
    h, _ = _tree_with_edf()
    before = h.canonical()
    decision = deploy(
        h,
        DeploymentRequest(
            "hog",
            "batch",
            Contract.resbh(50, 100),
            scheduler=edf_spec("edf-hog", Contract.resbh(50, 100)),
        ),
    )
    assert decision.outcome is Outcome.REJECTED
    assert decision.reason is RejectReason.INFEASIBLE
    assert h.canonical() == before


def test_rejected_load_frees_the_scheduler_name():
    h, _ = _tree_with_edf()
    rejected = deploy(
        h,
        DeploymentRequest(
            "hog", "batch", Contract.resbh(50, 100),
            scheduler=edf_spec("x", Contract.resbh(50, 100)),
        ),
    )
    assert rejected.outcome is Outcome.REJECTED
    admitted = deploy(
        h,
        DeploymentRequest(
            "batch", "batch", Contract.be(),
            scheduler=rr_spec("x", Contract.be()),
        ),
    )
    assert admitted.outcome is Outcome.LOADED_NEW, admitted.detail
    assert h.find_node_by_name("x") == admitted.node_id


def test_deploy_degraded_share_reports_award():
    h = new_hierarchy()
    h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(60, 100)))
    assert h.compose().feasible
    decision = deploy(
        h,
        DeploymentRequest(
            "w",
            "web",
            Contract.ps(500000),
            scheduler=stride_spec("st", Contract.ps(500000)),
        ),
    )
    # the root squeezes the new node to 0.4, which squeezes the app
    assert decision.outcome is Outcome.DEGRADED
    assert decision.awarded == Contract.ps(400000)
    assert h.app_slot("w").degraded


def test_deploy_decision_record_lines():
    h, nid = _tree_with_edf()
    d1 = deploy(h, DeploymentRequest("new", "video", Contract.resbh(20, 100)))
    assert d1.record() == f"outcome=ATTACHED_EXISTING node={nid} awarded=RESBH[20,100]"
    d2 = deploy(h, DeploymentRequest("nope", "video", Contract.ps(1)))
    assert "outcome=REJECTED" in d2.record()
    assert "reason=NO_SERVICE_NO_SCHEDULER" in d2.record()


@pytest.mark.parametrize(
    "req,fragment",
    [
        (
            lambda h: DeploymentRequest("", "x", Contract.be()),
            "empty app_id",
        ),
        (
            lambda h: DeploymentRequest("a1", "x", Contract.resbh(1, 100)),
            "already deployed",
        ),
        (
            lambda h: DeploymentRequest(
                "v", "x", Contract.resbh(1, 100),
                scheduler=rr_spec("rr", Contract.be()),
            ),
            "does not provide RESBH",
        ),
        (
            lambda h: DeploymentRequest(
                "v", "x", Contract.be(),
                scheduler=rr_spec("rr", Contract.be()), target_parent=77,
            ),
            "unknown target parent",
        ),
        (
            lambda h: DeploymentRequest(
                "v", "x", Contract.resbh(1, 100),
                scheduler=edf_spec("edf1", Contract.all_cpu()),
            ),
            "scheduler 'edf1' asks its parent for ALL",
        ),
        (
            lambda h: DeploymentRequest(
                "v", "x", Contract.be(), scheduler=rr_spec("rr", Contract.null()),
            ),
            "scheduler 'rr' asks its parent for NULL",
        ),
    ],
)
def test_deploy_invalid_requests(req, fragment):
    h, _ = _tree_with_edf()
    before = h.canonical()
    decision = deploy(h, req(h))
    assert decision.outcome is Outcome.REJECTED
    assert decision.reason is RejectReason.INVALID_REQUEST
    assert fragment in decision.detail
    assert h.canonical() == before


def test_deploy_duplicate_scheduler_name_is_invalid():
    h, _ = _tree_with_edf()
    before = h.canonical()
    decision = deploy(
        h,
        DeploymentRequest(
            "w", "web", Contract.ps(100000),
            scheduler=stride_spec("edf0", Contract.ps(100000)),
        ),
    )
    assert decision.outcome is Outcome.REJECTED
    assert decision.reason is RejectReason.INVALID_REQUEST
    assert h.canonical() == before


def test_deploy_target_parent_must_be_virtual():
    h, nid = _tree_with_edf()
    decision = deploy(
        h,
        DeploymentRequest(
            "w", "web", Contract.ps(100000),
            scheduler=stride_spec("st", Contract.ps(100000)),
            target_parent=nid,
        ),
    )
    assert decision.outcome is Outcome.REJECTED
    assert decision.reason is RejectReason.INVALID_REQUEST


def test_deploy_is_deterministic():
    def run():
        h, _ = _tree_with_edf()
        d = deploy(h, DeploymentRequest("new", "video", Contract.resbh(20, 100)))
        return (d, h.canonical())

    assert run() == run()


def test_deploy_never_perturbs_existing_hard_grants():
    h = new_hierarchy()
    hard = deploy(
        h,
        DeploymentRequest(
            "cam", "video", Contract.resbh(30, 100),
            scheduler=edf_spec("edf0", Contract.resbh(40, 100)),
        ),
    )
    assert hard.outcome is Outcome.LOADED_NEW
    for i, share in enumerate([400000, 300000, 200000]):
        deploy(
            h,
            DeploymentRequest(
                f"w{i}", "web", Contract.ps(share),
                scheduler=stride_spec(f"st{i}", Contract.ps(share)),
            ),
        )
        assert h.app_slot("cam").awarded == Contract.resbh(30, 100)
        assert not h.app_slot("cam").degraded


# --------------------------------------------------------------- undeploy


def test_undeploy_unloads_private_scheduler():
    h = new_hierarchy()
    deploy(
        h,
        DeploymentRequest(
            "v", "video", Contract.resbh(10, 100),
            scheduler=edf_spec("edf-v", Contract.resbh(30, 100)),
        ),
    )
    assert h.node_count() == 2
    undeploy(h, "v")
    assert h.node_count() == 1
    assert h.app_node("v") is None


def test_undeploy_keeps_shared_node():
    h, nid = _tree_with_edf()
    undeploy(h, "a1")
    assert h.node_count() == 2
    assert h.app_node("a2") == nid


def test_undeploy_keeps_preloaded_node_even_when_empty():
    # the node predates its apps, so it is not torn down with them
    h, nid = _tree_with_edf()
    undeploy(h, "a1")
    undeploy(h, "a2")
    assert h.node_count() == 2
    assert h.node(nid).apps == []


def test_undeploy_restores_degraded_shares():
    h = new_hierarchy()
    deploy(
        h,
        DeploymentRequest(
            "cam", "video", Contract.resbh(60, 100),
            scheduler=edf_spec("edf0", Contract.resbh(60, 100)),
        ),
    )
    d1 = deploy(
        h,
        DeploymentRequest(
            "w1", "web", Contract.ps(300000),
            scheduler=stride_spec("st1", Contract.ps(300000)),
        ),
    )
    d2 = deploy(
        h,
        DeploymentRequest(
            "w2", "web", Contract.ps(300000),
            scheduler=stride_spec("st2", Contract.ps(300000)),
        ),
    )
    assert d1.outcome is Outcome.ATTACHED_EXISTING or d1.outcome is Outcome.LOADED_NEW
    assert d2.outcome is Outcome.DEGRADED
    assert h.app_slot("w1").awarded == Contract.ps(200000)
    assert h.app_slot("w2").awarded == Contract.ps(200000)
    undeploy(h, "w2")
    assert h.app_slot("w1").awarded == Contract.ps(300000)
    assert not h.app_slot("w1").degraded


def test_undeploy_unknown_app():
    h = new_hierarchy()
    with pytest.raises(DeploymentError, match="no such app"):
        undeploy(h, "ghost")


def test_undeploy_raises_on_an_infeasible_recompose():
    # an ask cut below the leaf's reservations without composing: the
    # recompose after the undeploy must fail, and say so under -O too
    h, nid = _tree_with_edf()
    h.update_parent_request(nid, Contract.resbh(15, 100))
    with pytest.raises(DeploymentError, match=(
            r"undeploy of 'a1' left the tree infeasible: rejected at "
            rf"{nid}: parent request below aggregate reservation demand")):
        undeploy(h, "a1")
