"""Scheduler hierarchy: a tree of virtual nodes and leaf policies.

VIRTUAL nodes schedule schedulers; leaf policies schedule applications. Each
node asks its parent for service via a contract (parent_request) and compose()
distributes granted capacity top-down from the root after checking aggregate
demand; reallocate() does the same below any one node. An over-committed node
degrades instead of giving up: hard reservations are never reduced, PS/RESBS
grants shrink pro rata and are marked degraded.

Dicts index app -> (node, slot) and name -> node. Ids only grow, and the
undo_attach_* methods hand back only the newest, so nodes() is in id order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .contracts import (
    PPM,
    Contract,
    ServiceClass,
    RESERVATION_CLASSES,
    format_contract,
    utilization,
)


class PolicyKind(Enum):
    VIRTUAL = "VIRTUAL"
    FIXED_PRIORITY = "FIXED_PRIORITY"
    ROUND_ROBIN = "ROUND_ROBIN"
    EDF_RESERVATION = "EDF_RESERVATION"
    STRIDE = "STRIDE"


# service classes each leaf policy may offer to applications
POLICY_PROVIDES = {
    PolicyKind.VIRTUAL: frozenset(),
    PolicyKind.ROUND_ROBIN: frozenset({ServiceClass.BE}),
    PolicyKind.EDF_RESERVATION: frozenset({ServiceClass.RESBH, ServiceClass.RESBS}),
    PolicyKind.STRIDE: frozenset({ServiceClass.PS, ServiceClass.BE}),
    PolicyKind.FIXED_PRIORITY: frozenset({ServiceClass.RESBS, ServiceClass.BE}),
}

_SOFT_CLASSES = (ServiceClass.RESBS, ServiceClass.PS)


class HierarchyError(Exception):
    pass


@dataclass(frozen=True)
class SchedulerSpec:
    """Loadable scheduler description: identity, policy, offer, and own ask."""

    name: str
    policy: PolicyKind
    provides: frozenset
    parent_request: Contract
    quantum: int = 10

    def __post_init__(self):
        if not self.name:
            raise HierarchyError("scheduler name must be non-empty")
        allowed = POLICY_PROVIDES[self.policy]
        extra = frozenset(self.provides) - allowed
        if extra:
            names = ",".join(sorted(c.value for c in extra))
            raise HierarchyError(
                f"{self.policy.value} cannot provide {names}"
            )
        object.__setattr__(self, "provides", frozenset(self.provides))
        if self.quantum < 1:
            raise HierarchyError("quantum must be >= 1")


@dataclass
class AppSlot:
    """An application attached to a leaf: its ask and its current award."""

    app_id: str
    request: Contract
    awarded: Contract | None = None
    degraded: bool = False
    seq: int = 0


@dataclass
class SchedulerNode:
    node_id: int
    spec: SchedulerSpec
    parent: int | None
    granted: Contract
    degraded: bool = False
    children: list = field(default_factory=list)  # child node ids, VIRTUAL only
    apps: list = field(default_factory=list)  # AppSlot, leaf policies only
    tags: set = field(default_factory=set)  # app_class labels seen here
    loaded_for: str | None = None  # app whose deploy loaded this node

    def is_leaf(self) -> bool:
        return self.spec.policy is not PolicyKind.VIRTUAL


@dataclass(frozen=True)
class Grant:
    holder: object  # node id (int) or app id (str)
    requested: Contract
    awarded: Contract
    degraded: bool


@dataclass(frozen=True)
class Rejection:
    holder: object
    reason: str


@dataclass
class FeasibilityResult:
    feasible: bool
    grants: list
    rejected: Rejection | None = None


_ROOT_SPEC = SchedulerSpec(
    name="root",
    policy=PolicyKind.VIRTUAL,
    provides=frozenset(),
    parent_request=Contract.all_cpu(),
)


class Hierarchy:
    """Mutable scheduler tree with exact-arithmetic capacity accounting."""

    ROOT_ID = 0

    def __init__(self):
        root = SchedulerNode(
            node_id=self.ROOT_ID,
            spec=_ROOT_SPEC,
            parent=None,
            granted=Contract.all_cpu(),
        )
        self._nodes: dict[int, SchedulerNode] = {self.ROOT_ID: root}
        self._by_name: dict[str, int] = {root.spec.name: self.ROOT_ID}
        self._apps: dict[str, tuple[int, AppSlot]] = {}
        self._next_node_id = 1
        self._next_app_seq = 0

    # ------------------------------------------------------------- structure

    def node(self, node_id: int) -> SchedulerNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise HierarchyError(f"no such node {node_id}") from None

    def nodes(self):
        return list(self._nodes.values())

    def node_count(self) -> int:
        return len(self._nodes)

    def find_node_by_name(self, name: str) -> int | None:
        return self._by_name.get(name)

    def leaves(self):
        return [n for n in self.nodes() if n.is_leaf()]

    def attach_scheduler(self, parent_id: int, spec: SchedulerSpec) -> int:
        parent = self.node(parent_id)
        if parent.spec.policy is not PolicyKind.VIRTUAL:
            raise HierarchyError(
                f"node {parent_id} ({parent.spec.name}) is not VIRTUAL"
            )
        if spec.name in self._by_name:
            raise HierarchyError(f"duplicate scheduler name {spec.name!r}")
        node_id = self._next_node_id
        self._next_node_id += 1
        self._nodes[node_id] = SchedulerNode(
            node_id=node_id,
            spec=spec,
            parent=parent_id,
            granted=Contract.null(),  # provisional until compose runs
        )
        self._by_name[spec.name] = node_id
        parent.children.append(node_id)
        return node_id

    def attach_application(self, node_id: int, app_id: str, request: Contract):
        node = self.node(node_id)
        if not node.is_leaf():
            raise HierarchyError(f"node {node_id} is VIRTUAL, cannot host apps")
        if request.service not in node.spec.provides:
            raise HierarchyError(
                f"{node.spec.name} does not provide {request.service.value}"
            )
        if app_id in self._apps:
            raise HierarchyError(f"duplicate app id {app_id!r}")
        slot = AppSlot(app_id=app_id, request=request, seq=self._next_app_seq)
        self._next_app_seq += 1
        node.apps.append(slot)
        self._apps[app_id] = (node_id, slot)

    def detach(self, node_id: int):
        if node_id == self.ROOT_ID:
            raise HierarchyError("cannot detach the root")
        node = self.node(node_id)
        for child in list(node.children):
            self.detach(child)
        for slot in node.apps:
            del self._apps[slot.app_id]
        parent = self._nodes[node.parent]
        parent.children.remove(node_id)
        del self._by_name[node.spec.name]
        del self._nodes[node_id]

    def app_node(self, app_id: str) -> int | None:
        entry = self._apps.get(app_id)
        return None if entry is None else entry[0]

    def app_slot(self, app_id: str) -> AppSlot:
        try:
            return self._apps[app_id][1]
        except KeyError:
            raise HierarchyError(f"no such app {app_id!r}") from None

    def remove_application(self, app_id: str) -> int:
        try:
            nid, slot = self._apps.pop(app_id)
        except KeyError:
            raise HierarchyError(f"no such app {app_id!r}") from None
        self._nodes[nid].apps.remove(slot)
        return nid

    def undo_attach_application(self, app_id: str):
        """Take back the newest attach_application, its sequence number too."""
        if self.app_slot(app_id).seq != self._next_app_seq - 1:
            raise HierarchyError(f"app {app_id!r} is not the newest attached")
        self.remove_application(app_id)
        self._next_app_seq -= 1

    def undo_attach_scheduler(self, node_id: int):
        """Take back the newest attach_scheduler, its node id too."""
        if node_id != self._next_node_id - 1:
            raise HierarchyError(f"node {node_id} is not the newest attached")
        self.detach(node_id)
        self._next_node_id -= 1

    # ------------------------------------------------------------ composition

    def compose(self) -> FeasibilityResult:
        """Top-down distribution of the root's capacity, staged then applied.

        Infeasibility is a value, not an error; on failure no grant state is
        touched, so a failed compose leaves the previous awards in place.
        The root is always granted the whole CPU, undegraded.
        """
        return self.reallocate(self.ROOT_ID)

    def reallocate(self, node_id: int) -> FeasibilityResult:
        """Redistribute the node's granted capacity below it, staged then applied.

        Hard grants are never reduced; PS and RESBS shrink pro rata (exact
        rationals, floored to ppm/ticks) and are marked degraded. Nothing
        over-committed means identity on grants.
        """
        node = self.node(node_id)
        staged_nodes: dict[int, tuple[Contract, bool]] = {}
        staged_apps: dict[str, tuple[Contract, bool]] = {}
        grants: list[Grant] = []
        rejection = self._settle(
            node_id, node.granted, node.degraded, staged_nodes, staged_apps, grants
        )
        if rejection is not None:
            return FeasibilityResult(False, [], rejection)
        self._apply(staged_nodes, staged_apps)
        return FeasibilityResult(True, grants)

    def _apply(self, staged_nodes, staged_apps):
        for nid, (granted, degraded) in staged_nodes.items():
            self._nodes[nid].granted = granted
            self._nodes[nid].degraded = degraded
        for app_id, (awarded, degraded) in staged_apps.items():
            slot = self.app_slot(app_id)
            slot.awarded = awarded
            slot.degraded = degraded

    def _settle(self, node_id, granted, degraded, staged_nodes, staged_apps, grants):
        """Distribute `granted` among one node's children, then recurse."""
        node = self._nodes[node_id]
        staged_nodes[node_id] = (granted, degraded)

        if node.is_leaf():
            # a leaf must have asked its parent for at least its apps' demand
            hard_demand = sum(
                (utilization(s.request) for s in node.apps if s.request.is_reservation()),
                Fraction(0),
            )
            if utilization(node.spec.parent_request) < hard_demand:
                return Rejection(
                    node_id, "parent request below aggregate reservation demand"
                )
            entries = [(s.app_id, s.request, True) for s in node.apps]
        else:
            entries = [
                (cid, self._nodes[cid].spec.parent_request, False)
                for cid in node.children
            ]

        capacity = utilization(granted)
        hard = [e for e in entries if e[1].service is ServiceClass.RESBH]
        soft = [e for e in entries if e[1].service in _SOFT_CLASSES]
        inert = [e for e in entries if e[1].service not in
                 (ServiceClass.RESBH,) + _SOFT_CLASSES]

        hard_sum = sum((utilization(e[1]) for e in hard), Fraction(0))
        if hard_sum > capacity:
            return Rejection(hard[-1][0], "hard demand exceeds capacity")
        soft_sum = sum((utilization(e[1]) for e in soft), Fraction(0))

        awards: dict = {}
        if hard_sum + soft_sum <= capacity:
            for holder, req, _ in hard + soft:
                awards[holder] = (req, False)
        else:
            factor = (capacity - hard_sum) / soft_sum
            for holder, req, _ in hard:
                awards[holder] = (req, False)
            for holder, req, _ in soft:
                scaled = _scale_soft(req, factor)
                if scaled is None:
                    return Rejection(holder, "soft grant would floor to zero")
                awards[holder] = (scaled, True)
        for holder, req, _ in inert:
            awards[holder] = (req, False)

        for holder, req, is_app in entries:
            awarded, was_degraded = awards[holder]
            grants.append(Grant(holder, req, awarded, was_degraded))
            if is_app:
                staged_apps[holder] = (awarded, was_degraded)

        for holder, req, is_app in entries:
            if not is_app:
                awarded, was_degraded = awards[holder]
                rej = self._settle(
                    holder, awarded, was_degraded, staged_nodes, staged_apps, grants
                )
                if rej is not None:
                    return rej
        return None

    # ------------------------------------------------------- demand and spare

    def propagate_demand(self, leaf_id: int, global_request: Contract):
        """Walk leaf to root emitting enlarged parent_requests where needed.

        Returns [(node_id, contract)] to apply before re-composing. The new
        demand is folded into the starting node's ask; every ancestor below
        the root is re-checked with the updated child requests.
        """
        if global_request.service not in RESERVATION_CLASSES + (ServiceClass.PS,):
            raise HierarchyError(
                f"cannot propagate {global_request.service.value} demand"
            )
        start = self.node(leaf_id)
        if leaf_id == self.ROOT_ID:
            raise HierarchyError("demand starts below the root")

        updated: dict[int, Contract] = {}
        out: list[tuple[int, Contract]] = []
        extra = utilization(global_request)
        nid = leaf_id
        while nid != self.ROOT_ID:
            node = self._nodes[nid]
            if node.is_leaf():
                demand = sum(
                    (utilization(s.request) for s in node.apps), Fraction(0)
                )
            else:
                demand = sum(
                    (
                        utilization(updated.get(cid, self._nodes[cid].spec.parent_request))
                        for cid in node.children
                    ),
                    Fraction(0),
                )
            need = demand + extra
            if utilization(node.granted) < need:
                enlarged = _enlarge(node.spec.parent_request, need, global_request)
                updated[nid] = enlarged
                out.append((nid, enlarged))
            extra = Fraction(0)
            nid = node.parent
        return out

    def update_parent_request(self, node_id: int, request: Contract):
        node = self.node(node_id)
        if node_id == self.ROOT_ID:
            raise HierarchyError("root request is fixed")
        node.spec = SchedulerSpec(
            name=node.spec.name,
            policy=node.spec.policy,
            provides=node.spec.provides,
            parent_request=request,
            quantum=node.spec.quantum,
        )

    def spare_capacity(self, node_id: int) -> Fraction:
        """Granted utilization not yet committed to reservation/PS children."""
        node = self.node(node_id)
        used = Fraction(0)
        if node.is_leaf():
            awarded = [s.awarded for s in node.apps if s.awarded is not None]
        else:
            awarded = [self._nodes[cid].granted for cid in node.children]
        for a in awarded:
            if a.service in (ServiceClass.RESBH,) + _SOFT_CLASSES:
                used += utilization(a)
        spare = utilization(node.granted) - used
        return spare if spare > 0 else Fraction(0)

    # ---------------------------------------------------------- serialization

    def canonical(self) -> str:
        """Stable text form of the full tree state, for rollback comparison."""
        lines = [f"hierarchy next_node={self._next_node_id} next_app={self._next_app_seq}"]
        for n in self.nodes():
            provides = ",".join(sorted(c.value for c in n.spec.provides))
            tags = ",".join(sorted(n.tags))
            lines.append(
                "node id={} name={} policy={} parent={} request={} granted={} "
                "degraded={} quantum={} provides={} tags={} loaded_for={}".format(
                    n.node_id,
                    n.spec.name,
                    n.spec.policy.value,
                    "-" if n.parent is None else n.parent,
                    format_contract(n.spec.parent_request),
                    format_contract(n.granted),
                    int(n.degraded),
                    n.spec.quantum,
                    provides,
                    tags,
                    n.loaded_for if n.loaded_for is not None else "-",
                )
            )
            for s in n.apps:
                lines.append(
                    "app node={} id={} seq={} request={} awarded={} degraded={}".format(
                        n.node_id,
                        s.app_id,
                        s.seq,
                        format_contract(s.request),
                        format_contract(s.awarded) if s.awarded else "-",
                        int(s.degraded),
                    )
                )
        return "\n".join(lines) + "\n"


def _scale_soft(req: Contract, factor: Fraction) -> Contract | None:
    """Shrink a PS/RESBS request by an exact factor, flooring to the grid."""
    if req.service is ServiceClass.PS:
        share = math.floor(req.share * factor)
        if share < 1:
            return None
        return Contract.ps(share)
    budget = math.floor(req.budget * factor)
    if budget < 1:
        return None
    return Contract.resbs(budget, req.period)


def _enlarge(existing: Contract, need: Fraction, global_request: Contract) -> Contract:
    """Grow a parent_request to cover `need` utilization exactly or better."""
    if existing.is_reservation():
        period = existing.period
        if global_request.is_reservation():
            period = min(period, global_request.period)
        budget = min(period, math.ceil(need * period))
        return Contract(existing.service, budget=budget, period=period)
    if existing.service is ServiceClass.PS:
        share = min(PPM, math.ceil(need * PPM))
        return Contract.ps(share)
    raise HierarchyError(
        f"cannot enlarge a {existing.service.value} parent request"
    )


def new_hierarchy() -> Hierarchy:
    """Fresh tree: a single VIRTUAL root granted the whole CPU."""
    return Hierarchy()
