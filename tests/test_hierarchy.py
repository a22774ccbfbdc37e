"""Tree construction, composition, reallocation, and demand propagation."""

import random
from fractions import Fraction

import pytest

from hiersched.contracts import Contract, ServiceClass, utilization
from hiersched.deployment import DeploymentRequest, Outcome, deploy, undeploy
from hiersched.hierarchy import (
    POLICY_PROVIDES,
    Hierarchy,
    HierarchyError,
    PolicyKind,
    Rejection,
    SchedulerSpec,
    new_hierarchy,
)
from helpers import canonical, edf_spec, fp_spec, rr_spec, stride_spec, virtual_spec


# ------------------------------------------------------------ construction


def test_new_hierarchy_is_a_lone_root():
    h = new_hierarchy()
    root = h.node(Hierarchy.ROOT_ID)
    assert root.spec.policy is PolicyKind.VIRTUAL
    assert root.granted == Contract.all_cpu()
    assert root.children == []
    assert h.node_count() == 1
    assert utilization(root.granted) == 1


def test_compose_empty_tree():
    h = new_hierarchy()
    result = h.compose()
    assert result.feasible
    assert result.grants == []


def test_attach_scheduler_assigns_dense_ids():
    h = new_hierarchy()
    a = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(10, 100)))
    b = h.attach_scheduler(0, rr_spec("rr0", Contract.be()))
    assert (a, b) == (1, 2)
    assert h.node(0).children == [1, 2]


def test_attach_scheduler_provisional_grant_is_null():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(10, 100)))
    assert h.node(nid).granted == Contract.null()


def test_a_node_path_names_the_node_and_its_ancestors():
    h = new_hierarchy()
    mid = h.attach_scheduler(0, virtual_spec("mid", Contract.resbh(50, 100)))
    leaf = h.attach_scheduler(mid, edf_spec("edf0", Contract.resbh(20, 100)))
    assert [h.node(n).path for n in (0, mid, leaf)] == [
        "root", "root/mid", "root/mid/edf0",
    ]
    h.detach(leaf)
    again = h.attach_scheduler(mid, edf_spec("edf0", Contract.resbh(20, 100)))
    assert again != leaf
    assert h.node(again).path == "root/mid/edf0"
    h.detach(mid)  # and the name is free to load under another parent
    moved = h.attach_scheduler(0, rr_spec("edf0", Contract.be()))
    assert h.node(moved).path == "root/edf0"


def test_attach_under_leaf_rejected():
    h = new_hierarchy()
    leaf = h.attach_scheduler(0, rr_spec("rr0", Contract.be()))
    with pytest.raises(HierarchyError, match="not VIRTUAL"):
        h.attach_scheduler(leaf, rr_spec("rr1", Contract.be()))


def test_attach_duplicate_name_rejected():
    h = new_hierarchy()
    h.attach_scheduler(0, rr_spec("dup", Contract.be()))
    with pytest.raises(HierarchyError, match="duplicate scheduler name"):
        h.attach_scheduler(0, stride_spec("dup", Contract.ps(1000)))


def test_attach_to_unknown_parent():
    h = new_hierarchy()
    with pytest.raises(HierarchyError, match="no such node"):
        h.attach_scheduler(99, rr_spec("rr0", Contract.be()))


def test_spec_validation():
    for policy in PolicyKind:
        spec = SchedulerSpec("s", policy, Contract.be())
        assert spec.provides == POLICY_PROVIDES[policy]
    with pytest.raises(HierarchyError, match="non-empty"):
        rr_spec("", Contract.be())
    with pytest.raises(HierarchyError, match="quantum"):
        rr_spec("rr0", Contract.be(), quantum=0)


def test_attach_application():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(60, 100)))
    h.attach_application(nid, "video", Contract.resbh(10, 100))
    slot = h.app_slot("video")
    assert slot.request == Contract.resbh(10, 100)
    assert slot.awarded is None  # pending compose
    assert h.app_node("video") == nid


def test_attach_application_class_not_provided():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, rr_spec("rr0", Contract.be()))
    with pytest.raises(HierarchyError, match="does not provide RESBH"):
        h.attach_application(nid, "video", Contract.resbh(10, 100))


def test_attach_application_to_virtual_rejected():
    h = new_hierarchy()
    with pytest.raises(HierarchyError, match="VIRTUAL"):
        h.attach_application(0, "video", Contract.resbh(10, 100))


def test_attach_duplicate_app_rejected():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, rr_spec("rr0", Contract.be()))
    h.attach_application(nid, "task", Contract.be())
    with pytest.raises(HierarchyError, match="duplicate app id"):
        h.attach_application(nid, "task", Contract.be())


def test_detach_leaf():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, rr_spec("rr0", Contract.be()))
    h.detach(nid)
    assert h.node_count() == 1
    assert h.node(0).children == []


def test_detach_subtree():
    h = new_hierarchy()
    v = h.attach_scheduler(0, virtual_spec("mid", Contract.resbh(50, 100)))
    edf = h.attach_scheduler(v, edf_spec("edf0", Contract.resbh(10, 100)))
    h.attach_scheduler(v, rr_spec("rr0", Contract.be()))
    h.attach_application(edf, "a1", Contract.resbh(5, 100))
    assert h.node_count() == 4
    h.detach(v)
    assert h.node_count() == 1
    # the subtree's names and apps leave the indexes with it
    assert [h.find_node_by_name(n) for n in ("mid", "edf0", "rr0")] == [None] * 3
    assert h.app_node("a1") is None
    with pytest.raises(HierarchyError, match="no such app"):
        h.app_slot("a1")
    rr = h.attach_scheduler(0, rr_spec("edf0", Contract.be()))
    h.attach_application(rr, "a1", Contract.be())
    assert h.app_node("a1") == rr


def test_detach_root_rejected():
    h = new_hierarchy()
    with pytest.raises(HierarchyError, match="root"):
        h.detach(0)


# -------------------------------------------------------------- composition


def test_compose_feasible_single_leaf():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(60, 100)))
    h.attach_application(nid, "a1", Contract.resbh(10, 100))
    h.attach_application(nid, "a2", Contract.resbh(20, 100))
    result = h.compose()
    assert result.feasible
    assert [g.holder for g in result.grants] == [nid, "a1", "a2"]
    assert all(not g.degraded for g in result.grants)
    assert all(g.awarded == g.requested for g in result.grants)
    assert h.node(nid).granted == Contract.resbh(60, 100)
    assert h.app_slot("a1").awarded == Contract.resbh(10, 100)
    assert h.app_slot("a2").awarded == Contract.resbh(20, 100)


def test_compose_hard_overload_rejects_newest():
    h = new_hierarchy()
    h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(60, 100)))
    late = h.attach_scheduler(0, edf_spec("edf1", Contract.resbh(50, 100)))
    result = h.compose()
    assert not result.feasible
    assert result.grants == []
    assert result.rejected.holder == late
    assert "hard demand exceeds capacity" in result.rejected.reason


def test_compose_failure_leaves_grants_untouched():
    h = new_hierarchy()
    first = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(60, 100)))
    assert h.compose().feasible
    h.attach_scheduler(0, edf_spec("edf1", Contract.resbh(50, 100)))
    assert not h.compose().feasible
    assert h.node(first).granted == Contract.resbh(60, 100)
    assert not h.node(first).degraded


def test_compose_scales_share_children():
    # hard demand 0.6 leaves 0.4 for two equal shares asking 0.3 each
    h = new_hierarchy()
    hard = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(60, 100)))
    s1 = h.attach_scheduler(0, stride_spec("st1", Contract.ps(300000)))
    s2 = h.attach_scheduler(0, stride_spec("st2", Contract.ps(300000)))
    result = h.compose()
    assert result.feasible
    assert h.node(hard).granted == Contract.resbh(60, 100)
    assert not h.node(hard).degraded
    assert h.node(s1).granted == Contract.ps(200000)
    assert h.node(s2).granted == Contract.ps(200000)
    assert h.node(s1).degraded and h.node(s2).degraded


def test_compose_scales_soft_reservations_with_shares():
    # RESBS and PS shrink by the same exact factor, RESBH never does
    h = new_hierarchy()
    hard = h.attach_scheduler(0, edf_spec("hard", Contract.resbh(50, 100)))
    soft = h.attach_scheduler(0, fp_spec("soft", Contract.resbs(40, 100)))
    share = h.attach_scheduler(0, stride_spec("st", Contract.ps(600000)))
    result = h.compose()
    assert result.feasible
    # residual 0.5 over soft demand 1.0: factor one half
    assert h.node(hard).granted == Contract.resbh(50, 100)
    assert h.node(soft).granted == Contract.resbs(20, 100)
    assert h.node(share).granted == Contract.ps(300000)
    assert h.node(soft).degraded and h.node(share).degraded
    assert not h.node(hard).degraded


def test_compose_share_floored_to_zero_is_infeasible():
    h = new_hierarchy()
    h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(100, 100)))
    tiny = h.attach_scheduler(0, stride_spec("st", Contract.ps(5)))
    result = h.compose()
    assert not result.feasible
    assert result.rejected.holder == tiny
    assert "floor to zero" in result.rejected.reason


def test_compose_degrades_apps_below_degraded_node():
    h = new_hierarchy()
    h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(50, 100)))
    st = h.attach_scheduler(0, stride_spec("st", Contract.ps(600000)))
    h.attach_application(st, "w1", Contract.ps(300000))
    h.attach_application(st, "w2", Contract.ps(300000))
    result = h.compose()
    assert result.feasible
    # node got 5/6 of its ask, so each app gets 5/6 of 300000
    assert h.node(st).granted == Contract.ps(500000)
    assert h.app_slot("w1").awarded == Contract.ps(250000)
    assert h.app_slot("w2").awarded == Contract.ps(250000)
    assert h.app_slot("w1").degraded


def test_compose_leaf_underprovisioned_for_its_apps():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(20, 100)))
    h.attach_application(nid, "a1", Contract.resbh(10, 100))
    h.attach_application(nid, "a2", Contract.resbh(20, 100))
    result = h.compose()
    assert not result.feasible
    assert result.rejected.holder == nid
    assert "parent request below aggregate reservation demand" in result.rejected.reason


def test_compose_be_children_get_zero_utilization_grants():
    h = new_hierarchy()
    rr = h.attach_scheduler(0, rr_spec("rr0", Contract.be()))
    h.attach_application(rr, "batch", Contract.be())
    result = h.compose()
    assert result.feasible
    assert h.node(rr).granted == Contract.be()
    assert utilization(h.node(rr).granted) == 0
    assert h.app_slot("batch").awarded == Contract.be()


def test_compose_infeasibility_is_monotone():
    h = new_hierarchy()
    h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(60, 100)))
    h.attach_scheduler(0, edf_spec("edf1", Contract.resbh(50, 100)))
    assert not h.compose().feasible
    h.attach_scheduler(0, edf_spec("edf2", Contract.resbh(10, 100)))
    assert not h.compose().feasible


def test_compose_rejects_a_reservation_of_the_wrong_shape():
    # enough utilization, but RESBH[50,100] may supply nothing for 100 ticks
    h = new_hierarchy()
    nid = h.attach_scheduler(0, edf_spec("slow", Contract.resbh(50, 100)))
    h.attach_application(nid, "a", Contract.resbh(5, 10))
    result = h.compose()
    assert not result.feasible
    assert result.rejected.holder == "a"
    assert result.rejected.reason == (
        "supply shape: RESBH[50,100] does not satisfy RESBH[5,10]"
    )


def test_a_moved_grant_rechecks_the_shape_of_the_awards_below_it():
    h = new_hierarchy()
    soft = h.attach_scheduler(0, edf_spec("soft", Contract.resbs(95, 100)))
    h.attach_application(soft, "s", Contract.resbs(5, 10))
    assert h.compose().feasible
    # the share squeezes the leaf to RESBS[50,100]: still room for `s`, but
    # a slack of 50 ticks against 5; nothing under the leaf itself changed
    h.attach_scheduler(0, stride_spec("st", Contract.ps(950000)))
    result = h.compose()
    assert not result.feasible
    assert result.rejected.holder == "s"
    assert result.rejected.reason == (
        "supply shape: RESBS[50,100] does not satisfy RESBS[5,10]"
    )
    assert h.node(soft).granted == Contract.resbs(95, 100)


def test_undeploy_after_a_squeeze_never_fails_the_shape_test():
    # a squeeze whose shrunk grant cannot stand in for an app's request is
    # rejected, so freeing demand later only grows grants that already pass
    h = new_hierarchy()
    leaf_spec = edf_spec("L", Contract.resbs(11, 12))
    first = deploy(
        h, DeploymentRequest("c", "", Contract.resbs(4, 10), scheduler=leaf_spec)
    )
    assert first.outcome is Outcome.LOADED_NEW
    leaf = first.node_id
    second = deploy(h, DeploymentRequest("a", "", Contract.resbs(5, 10)))
    assert (second.outcome, second.node_id) == (Outcome.ATTACHED_EXISTING, leaf)
    squeeze = deploy(h, DeploymentRequest(
        "w", "", Contract.ps(750000),
        scheduler=stride_spec("st", Contract.ps(750000)),
    ))
    assert squeeze.outcome is Outcome.REJECTED
    assert squeeze.detail == (
        "rejected at a: supply shape: RESBS[6,12] does not satisfy RESBS[5,10]"
    )
    assert h.node(leaf).granted == Contract.resbs(11, 12)
    undeploy(h, "c")
    assert h.app_slot("a").awarded == Contract.resbs(5, 10)
    # a squeeze the requests survive, then the same undeploy order
    h = new_hierarchy()
    leaf = deploy(h, DeploymentRequest(
        "c", "", Contract.resbs(2, 10), scheduler=edf_spec("L", Contract.resbs(10, 10)),
    )).node_id
    deploy(h, DeploymentRequest("a", "", Contract.resbs(2, 10)))
    squeeze = deploy(h, DeploymentRequest(
        "w", "", Contract.ps(500000),
        scheduler=stride_spec("st", Contract.ps(500000)),
    ))
    assert squeeze.outcome is Outcome.DEGRADED
    assert h.node(leaf).granted == Contract.resbs(6, 10)
    undeploy(h, "c")
    undeploy(h, "w")
    assert h.node(leaf).granted == Contract.resbs(10, 10)
    assert h.app_slot("a").awarded == Contract.resbs(2, 10)


def test_grants_list_only_what_the_compose_set():
    h = new_hierarchy()
    st = h.attach_scheduler(0, stride_spec("st", Contract.ps(500000)))
    h.attach_application(st, "w1", Contract.ps(100000))
    assert [g.holder for g in h.compose().grants] == [st, "w1"]
    assert h.compose().grants == []
    h.attach_application(st, "w2", Contract.ps(100000))
    assert [g.holder for g in h.compose().grants] == ["w2"]
    # a squeeze at the root moves the leaf's grant: all of its apps again
    h.attach_scheduler(0, stride_spec("big", Contract.ps(1000000)))
    result = h.compose()
    assert [g.holder for g in result.grants] == [st, st + 1, "w1", "w2"]
    assert [g.degraded for g in result.grants] == [True, True, False, False]


def test_a_new_scheduler_granted_null_still_settles_its_apps():
    # the leaf's award equals the NULL it was attached with
    h = new_hierarchy()
    rr = h.attach_scheduler(0, rr_spec("rr0", Contract.null()))
    h.attach_application(rr, "batch", Contract.be())
    assert h.compose().feasible
    assert h.node(rr).granted == Contract.null()
    assert h.app_slot("batch").awarded == Contract.be()


def test_a_smaller_ask_with_the_same_award_is_still_checked():
    # a share grant, which has no supply shape to test the app against
    h = new_hierarchy()
    soft = h.attach_scheduler(0, edf_spec("soft", Contract.ps(410000)))
    h.attach_application(soft, "s", Contract.resbs(41, 100))
    h.attach_scheduler(0, stride_spec("st1", Contract.ps(540000)))
    h.attach_scheduler(0, stride_spec("st2", Contract.ps(500000)))
    assert h.compose().feasible
    assert h.node(soft).granted == Contract.ps(282758)
    # 409999 ppm scale to the same 282758, but no longer cover the app's 41 %
    h.update_parent_request(soft, Contract.ps(409999))
    result = h.compose()
    assert not result.feasible
    assert result.rejected.holder == soft
    assert result.rejected.reason == (
        "parent request below aggregate reservation demand"
    )


# -------------------------------------------------------------- reallocate


def test_reallocate_identity_when_not_overcommitted():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(60, 100)))
    h.attach_application(nid, "a1", Contract.resbh(10, 100))
    assert h.compose().feasible
    before = canonical(h)
    result = h.compose()
    assert result.feasible
    assert canonical(h) == before


def test_reallocate_hard_overload_fails():
    h = new_hierarchy()
    h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(60, 100)))
    late = h.attach_scheduler(0, edf_spec("edf1", Contract.resbh(50, 100)))
    result = h.compose()
    assert not result.feasible
    assert result.rejected.holder == late


def test_reallocate_at_leaf_scales_app_awards():
    h = new_hierarchy()
    st = h.attach_scheduler(0, stride_spec("st", Contract.ps(400000)))
    h.attach_application(st, "w1", Contract.ps(300000))
    h.attach_application(st, "w2", Contract.ps(100000))
    assert h.compose().feasible
    # shares fit the node's ask exactly: full awards
    assert h.app_slot("w1").awarded == Contract.ps(300000)
    result = h.compose()
    assert result.feasible
    assert h.app_slot("w1").awarded == Contract.ps(300000)
    assert h.app_slot("w2").awarded == Contract.ps(100000)


# -------------------------------------------------------- demand propagation


def test_propagate_demand_enlarges_starving_node():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(20, 100)))
    h.attach_application(nid, "old", Contract.resbh(20, 100))
    assert h.compose().feasible
    updates = h.propagate_demand(nid, Contract.resbh(30, 100))
    assert updates == [(nid, Contract.resbh(50, 100))]


def test_propagate_demand_ample_ancestor_emits_nothing():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(60, 100)))
    h.attach_application(nid, "old", Contract.resbh(10, 100))
    assert h.compose().feasible
    assert h.propagate_demand(nid, Contract.resbh(30, 100)) == []


def test_propagate_demand_counts_every_app_on_the_leaf():
    # shares and soft reservations are demand too, not only hard ones
    h = new_hierarchy()
    st = h.attach_scheduler(0, stride_spec("st", Contract.ps(300000)))
    h.attach_application(st, "w", Contract.ps(200000))
    h.attach_application(st, "b", Contract.be())
    edf = h.attach_scheduler(0, edf_spec("edf", Contract.resbs(30, 100)))
    h.attach_application(edf, "s", Contract.resbs(20, 100))
    assert h.compose().feasible
    assert h.propagate_demand(st, Contract.ps(200000)) == [(st, Contract.ps(400000))]
    assert h.propagate_demand(edf, Contract.resbh(20, 100)) == [
        (edf, Contract.resbs(40, 100))
    ]


def test_propagate_demand_walks_every_level():
    h = new_hierarchy()
    mid = h.attach_scheduler(0, virtual_spec("mid", Contract.resbh(30, 100)))
    leaf = h.attach_scheduler(mid, edf_spec("edf0", Contract.resbh(20, 100)))
    h.attach_application(leaf, "old", Contract.resbh(20, 100))
    assert h.compose().feasible
    updates = h.propagate_demand(leaf, Contract.resbh(20, 100))
    assert updates == [
        (leaf, Contract.resbh(40, 100)),
        (mid, Contract.resbh(40, 100)),
    ]


def test_propagate_demand_counts_a_sibling_and_the_change_only():
    # mid's demand is its children's asks: the sibling's 25 and edf0's 20
    # grown by 20; not edf0's whole new ask of 40 on top of its old 20
    h = new_hierarchy()
    mid = h.attach_scheduler(0, virtual_spec("mid", Contract.resbh(50, 100)))
    leaf = h.attach_scheduler(mid, edf_spec("edf0", Contract.resbh(20, 100)))
    h.attach_scheduler(mid, edf_spec("edf1", Contract.resbh(25, 100)))
    h.attach_application(leaf, "old", Contract.resbh(20, 100))
    assert h.compose().feasible
    assert h.propagate_demand(leaf, Contract.resbh(20, 100)) == [
        (leaf, Contract.resbh(40, 100)),
        (mid, Contract.resbh(65, 100)),
    ]


def test_propagate_demand_counts_no_child_that_asks_for_all():
    # only a raw attach_scheduler makes such a child (deploy refuses the
    # ask); it takes no capacity in the sums, so it adds no demand either
    h = new_hierarchy()
    mid = h.attach_scheduler(0, virtual_spec("mid", Contract.resbh(30, 100)))
    leaf = h.attach_scheduler(mid, edf_spec("edf0", Contract.resbh(20, 100)))
    h.attach_scheduler(mid, virtual_spec("greedy", Contract.all_cpu()))
    h.attach_application(leaf, "old", Contract.resbh(20, 100))
    assert h.compose().feasible
    assert h.node(mid).hard + h.node(mid).soft == Fraction(1, 5)
    assert h.propagate_demand(leaf, Contract.resbh(20, 100)) == [
        (leaf, Contract.resbh(40, 100)),
        (mid, Contract.resbh(40, 100)),
    ]


def test_propagate_demand_period_tightens_to_global():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(40, 200)))
    h.attach_application(nid, "old", Contract.resbh(40, 200))
    assert h.compose().feasible
    updates = h.propagate_demand(nid, Contract.resbh(10, 50))
    # need 0.4: ceil(0.4 * 50) = 20 over the tighter period
    assert updates == [(nid, Contract.resbh(20, 50))]


def test_propagate_then_compose_restores_feasibility():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(20, 100)))
    h.attach_application(nid, "old", Contract.resbh(20, 100))
    assert h.compose().feasible
    h.attach_application(nid, "new", Contract.resbh(30, 100))
    assert not h.compose().feasible
    for node_id, request in h.propagate_demand(nid, Contract.resbh(30, 100)):
        h.update_parent_request(node_id, request)
    result = h.compose()
    assert result.feasible
    assert h.app_slot("new").awarded == Contract.resbh(30, 100)
    assert h.spare_capacity(nid) >= 0


def test_propagate_demand_past_root_capacity_stays_infeasible():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(80, 100)))
    h.attach_application(nid, "old", Contract.resbh(80, 100))
    assert h.compose().feasible
    h.attach_application(nid, "new", Contract.resbh(30, 100))
    updates = h.propagate_demand(nid, Contract.resbh(30, 100))
    assert updates  # an enlargement is still proposed
    for node_id, request in updates:
        h.update_parent_request(node_id, request)
    assert not h.compose().feasible


def test_propagate_demand_rejects_inert_classes():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, rr_spec("rr0", Contract.be()))
    with pytest.raises(HierarchyError, match="cannot propagate BE"):
        h.propagate_demand(nid, Contract.be())


# ------------------------------------------------------------------- spare


def test_spare_capacity_subtracts_children():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(60, 100)))
    h.attach_application(nid, "a1", Contract.resbh(10, 100))
    h.attach_application(nid, "a2", Contract.resbh(20, 100))
    assert h.compose().feasible
    assert h.spare_capacity(nid) == Fraction(3, 10)


def test_spare_capacity_fresh_node_is_full_grant():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(60, 100)))
    assert h.compose().feasible
    assert h.spare_capacity(nid) == Fraction(6, 10)


def test_spare_capacity_fully_booked_is_zero():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(60, 100)))
    h.attach_application(nid, "a1", Contract.resbh(60, 100))
    assert h.compose().feasible
    assert h.spare_capacity(nid) == 0


def test_spare_capacity_ignores_best_effort():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, rr_spec("rr0", Contract.be()))
    h.attach_application(nid, "batch", Contract.be())
    assert h.compose().feasible
    assert h.spare_capacity(nid) == 0


def test_root_spare_counts_node_grants():
    h = new_hierarchy()
    h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(60, 100)))
    h.attach_scheduler(0, stride_spec("st", Contract.ps(250000)))
    assert h.compose().feasible
    assert h.spare_capacity(0) == Fraction(15, 100)


# ---------------------------------------------------- undo and determinism


def test_rejected_deploy_round_trip():
    h = new_hierarchy()
    nid = h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(60, 100)))
    h.attach_application(nid, "a1", Contract.resbh(30, 100))
    assert h.compose().feasible
    frozen = canonical(h)

    # edf0 has 30 spare, so this loads a scheduler, attaches to it, then fails to compose: 60 + 50 > 100
    decision = deploy(
        h,
        DeploymentRequest(
            "hog", "batch", Contract.resbh(50, 100),
            scheduler=edf_spec("edf-hog", Contract.resbh(50, 100)),
        ),
    )
    assert decision.outcome is Outcome.REJECTED
    assert canonical(h) == frozen
    # the id counter is part of the state: re-attaching reuses the same id
    assert h.attach_scheduler(0, rr_spec("rr0", Contract.be())) == nid + 1


def test_undo_takes_back_only_the_newest_attach():
    h = new_hierarchy()
    first = h.attach_scheduler(0, stride_spec("st", Contract.ps(500000)))
    second = h.attach_scheduler(0, rr_spec("rr0", Contract.be()))
    h.attach_application(first, "w1", Contract.ps(100000))
    h.attach_application(first, "w2", Contract.ps(100000))
    with pytest.raises(HierarchyError, match="not the newest"):
        h.undo_attach_scheduler(first)
    h.remove_application("w2")
    h.undo_attach_scheduler(second)
    assert h.app_node("w2") is None
    assert h.find_node_by_name("rr0") is None
    assert h.attach_scheduler(0, rr_spec("rr1", Contract.be())) == second


def test_compose_is_deterministic():
    def build():
        h = new_hierarchy()
        h.attach_scheduler(0, edf_spec("edf0", Contract.resbh(50, 100)))
        st = h.attach_scheduler(0, stride_spec("st", Contract.ps(600000)))
        h.attach_application(st, "w1", Contract.ps(300000))
        h.attach_application(st, "w2", Contract.ps(200000))
        h.compose()
        return canonical(h)

    assert build() == build()


def test_a_leaf_settles_and_blames_its_apps_in_attach_order():
    """Apps are granted and blamed in the order they were attached, not by
    id: `z` goes before `a`. The leaf asks for PS[800000] beside a hard
    RESBH[40,100], so it is granted PS[600000], less than it asks."""
    def squeezed_leaf():
        h = new_hierarchy()
        h.attach_scheduler(0, edf_spec("hog", Contract.resbh(40, 100)))
        leaf = h.attach_scheduler(0, edf_spec("edf0", Contract.ps(800000)))
        assert h.compose().feasible
        assert h.node(leaf).granted == Contract.ps(600000)
        return h, leaf

    h, leaf = squeezed_leaf()
    h.attach_application(leaf, "z", Contract.resbh(20, 100))
    h.attach_application(leaf, "a", Contract.resbh(20, 100))
    result = h.compose()
    assert [g.holder for g in result.grants] == ["z", "a"]

    # 40 + 40 fits the leaf's ask but not its grant: the last hard app goes
    h, leaf = squeezed_leaf()
    h.attach_application(leaf, "z", Contract.resbh(40, 100))
    h.attach_application(leaf, "a", Contract.resbh(40, 100))
    assert h.compose().rejected == Rejection("a", "hard demand exceeds capacity")


def _random_tree(rng):
    h = new_hierarchy()
    virtuals = [0]
    for i in range(rng.randint(1, 6)):
        parent = rng.choice(virtuals)
        kind = rng.random()
        if kind < 0.3:
            y = rng.choice([10, 20, 50, 100])
            x = rng.randint(1, y)
            nid = h.attach_scheduler(
                parent, virtual_spec(f"v{i}", Contract.resbh(x, y))
            )
            virtuals.append(nid)
        elif kind < 0.6:
            y = rng.choice([10, 20, 50, 100])
            x = rng.randint(1, y)
            nid = h.attach_scheduler(
                parent, edf_spec(f"e{i}", Contract.resbh(x, y))
            )
            for j in range(rng.randint(0, 2)):
                ay = rng.choice([50, 100])
                ax = rng.randint(1, max(1, x * ay // y))
                h.attach_application(nid, f"app{i}_{j}", Contract.resbh(ax, ay))
        else:
            nid = h.attach_scheduler(
                parent, stride_spec(f"s{i}", Contract.ps(rng.randint(1000, 400000)))
            )
            for j in range(rng.randint(0, 2)):
                h.attach_application(
                    nid, f"app{i}_{j}", Contract.ps(rng.randint(1000, 300000))
                )
    return h


def test_random_trees_conserve_capacity():
    rng = random.Random(42)
    feasible_seen = 0
    for _ in range(60):
        h = _random_tree(rng)
        result = h.compose()
        if not result.feasible:
            continue
        feasible_seen += 1
        for node in h.nodes():
            if node.spec.policy is PolicyKind.VIRTUAL:
                total = sum(
                    (utilization(h.node(c).granted) for c in node.children),
                    Fraction(0),
                )
            else:
                total = sum(
                    (utilization(s.awarded) for s in node.apps), Fraction(0)
                )
            assert total <= utilization(node.granted)
        for g in result.grants:
            if g.requested.service is ServiceClass.RESBH:
                assert g.awarded == g.requested  # hard grants are immutable
    assert feasible_seen > 10
