"""Application deployment protocol.

An application announces its class label, its contract, and optionally its
own scheduler. Admission first hunts for an already-loaded compatible
service; only when none fits is the supplied scheduler loaded. compose()
applies grants only on success, so a rejected deployment undoes just the app
slot and any scheduler it attached, leaving the tree canonically identical.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .contracts import ServiceClass, format_contract, satisfies
from .hierarchy import Hierarchy, HierarchyError


class Outcome(Enum):
    ATTACHED_EXISTING = "ATTACHED_EXISTING"
    LOADED_NEW = "LOADED_NEW"
    DEGRADED = "DEGRADED"
    REJECTED = "REJECTED"


class RejectReason(Enum):
    NO_SERVICE_NO_SCHEDULER = "NO_SERVICE_NO_SCHEDULER"
    INFEASIBLE = "INFEASIBLE"
    INVALID_REQUEST = "INVALID_REQUEST"


class DeploymentError(Exception):
    pass


# what a supplied scheduler may ask its parent for: ALL is the root's alone,
# and a NULL grant would never run the app (a tuple: a set would hash the
# Enum member in Python code)
_SCHEDULER_ASKS = (ServiceClass.RESBH, ServiceClass.RESBS, ServiceClass.PS,
                   ServiceClass.BE)


class DeploymentRequest(namedtuple(
        "DeploymentRequest", "app_id app_class request scheduler target_parent",
        defaults=(None, None))):
    """An application's ask: its id, class label and contract, and optionally
    the scheduler to load for it (a SchedulerSpec) and the parent to load
    that under (a node id, or a scheduler's name that the engine resolves;
    the root if None)."""

    __slots__ = ()


class DeploymentDecision(namedtuple(
        "DeploymentDecision", "outcome node_id awarded reason detail grants",
        defaults=(None, None, None, "", ()))):
    """What deploy() decided: the Outcome, and where admitted the leaf's
    node id, the awarded Contract and the grants the admitting compose set
    (hierarchy.Grant); where rejected the RejectReason and its detail."""

    __slots__ = ()

    def record(self) -> str:
        """One-line serialization for report files."""
        parts = [f"outcome={self.outcome.value}"]
        if self.node_id is not None:
            parts.append(f"node={self.node_id}")
        if self.awarded is not None:
            parts.append(f"awarded={format_contract(self.awarded)}")
        if self.reason is not None:
            parts.append(f"reason={self.reason.value}")
        if self.detail:
            parts.append(f"detail={self.detail!r}")
        return " ".join(parts)


def find_compatible_service(h: Hierarchy, req: DeploymentRequest):
    """First loaded leaf that can host the request, or None.

    A candidate must provide the requested class, have spare capacity for
    the request's utilization, and hold a grant that satisfies the request.
    The app_class label is a preference, not a filter: a candidate already
    tagged with the same label beats earlier untagged ones. Only the leaves
    offering the class are searched, in id order.
    """
    request, label = req.request, req.app_class
    first = None
    for node in h.leaves_offering(request.service):
        if (not h.has_room(node.node_id, request)
                or not satisfies(node.granted, request)):
            continue
        if not label or label in node.tags:
            return node.node_id
        if first is None:
            first = node.node_id
    return first


def deploy(h: Hierarchy, req: DeploymentRequest) -> DeploymentDecision:
    """Admit one application, preferring reuse of loaded schedulers.

    Search, then load, then reject: exactly one of ATTACHED_EXISTING,
    LOADED_NEW, DEGRADED (admitted on a shrunk grant), or REJECTED comes
    back, and REJECTED leaves the tree canonically identical to before.
    """
    invalid = _validate(h, req)
    if invalid is not None:
        return DeploymentDecision(
            Outcome.REJECTED, reason=RejectReason.INVALID_REQUEST, detail=invalid
        )

    nid = find_compatible_service(h, req)
    if nid is not None:
        return _attach(h, req, nid, loaded=False)

    if req.scheduler is None:
        return DeploymentDecision(
            Outcome.REJECTED,
            reason=RejectReason.NO_SERVICE_NO_SCHEDULER,
            detail="no compatible service and no scheduler supplied",
        )

    parent = req.target_parent if req.target_parent is not None else Hierarchy.ROOT_ID
    try:
        new_id = h.attach_scheduler(parent, req.scheduler)
    except HierarchyError as e:
        return DeploymentDecision(
            Outcome.REJECTED, reason=RejectReason.INVALID_REQUEST, detail=str(e)
        )
    h.node(new_id).loaded_for = req.app_id
    return _attach(h, req, new_id, loaded=True)


def _attach(h, req, node_id, loaded):
    h.attach_application(node_id, req.app_id, req.request)
    result = h.compose()
    if not result.feasible:
        h.remove_application(req.app_id)
        if loaded:
            h.undo_attach_scheduler(node_id)
        return DeploymentDecision(
            Outcome.REJECTED,
            reason=RejectReason.INFEASIBLE,
            detail=f"rejected at {result.rejected.holder}: {result.rejected.reason}",
        )
    if req.app_class:
        h.node(node_id).tags.add(req.app_class)
    slot = h.app_slot(req.app_id)
    if slot.degraded:
        outcome = Outcome.DEGRADED
    else:
        outcome = Outcome.LOADED_NEW if loaded else Outcome.ATTACHED_EXISTING
    return DeploymentDecision(
        outcome, node_id=node_id, awarded=slot.awarded, grants=tuple(result.grants)
    )


def _validate(h, req) -> str | None:
    if not req.app_id:
        return "empty app_id"
    if h.app_node(req.app_id) is not None:
        return f"app {req.app_id!r} already deployed"
    if req.scheduler is not None:
        name, asks = req.scheduler.name, req.scheduler.parent_request.service
        if req.request.service not in req.scheduler.provides:
            return f"scheduler {name!r} does not provide {req.request.service.value}"
        if asks not in _SCHEDULER_ASKS:
            return f"scheduler {name!r} asks its parent for {asks.value}"
    if req.target_parent is not None:
        try:
            parent = h.node(req.target_parent)
        except HierarchyError:
            return f"unknown target parent {req.target_parent}"
        if parent.is_leaf():
            return f"target parent {req.target_parent} is not VIRTUAL"
    return None


def undeploy(h: Hierarchy, app_id: str) -> list:
    """Remove an application; unload its scheduler if it loaded one and is
    now idle; recompose so squeezed grants recover. Returns the grants the
    recompose set. Raises DeploymentError if the recompose fails, which only
    a tree changed without composing can make it do."""
    node_id = h.app_node(app_id)
    if node_id is None:
        raise DeploymentError(f"no such app {app_id!r}")
    h.remove_application(app_id)
    node = h.node(node_id)
    if node.loaded_for == app_id and not node.apps:
        h.detach(node_id)
    result = h.compose()
    if not result.feasible:  # removing demand cannot break a composed tree
        raise DeploymentError(
            f"undeploy of {app_id!r} left the tree infeasible: rejected at "
            f"{result.rejected.holder}: {result.rejected.reason}"
        )
    return result.grants
