"""Scheduler hierarchy: a tree of virtual nodes and leaf policies.

VIRTUAL nodes schedule schedulers; leaf policies schedule applications. Each
node asks its parent for service via a contract (parent_request) and compose()
distributes granted capacity top-down from the root after checking aggregate
demand. An over-committed node degrades instead of giving up: hard
reservations are never reduced, PS/RESBS grants shrink pro rata and are
marked degraded. Under a reservation grant, each reservation request must
also be satisfied by the grant's supply shape (`satisfies`), not only fit
its utilization. The test is on the request, not on a degraded soft award:
requests never change and removing demand only grows grants, so an
undeploy can never fail it.

Composition is incremental. Each node keeps exact Fraction sums of its
holders' requests (`hard`: RESBH; `soft`: RESBS and PS; `reserved`: RESBH
and RESBS, which a leaf's own ask must cover), the sum of the awards it has
handed out (`used`, so spare_capacity is O(1)) and the degradation factor of
its last successful settle. The mutators keep these sums and mark what
changed: the node whose holders or own ask changed (`_changed`) and the
holders whose award is pending (`fresh`). A compose walks only the paths
from the root to the changed nodes. It re-settles a node whose holders
changed or whose grant changed. It recomputes all of that node's awards
when its grant or its factor moved, and only the fresh ones otherwise.
Every other subtree keeps its grants: its inputs are those of the last
successful compose, which found it feasible. Marks are cleared only when a
compose succeeds, so a failed compose needs no undo of them. Hence
FeasibilityResult.grants lists only the grants this compose set; the first
compose of a fresh tree sets, and lists, all of them.

Dicts index app -> (node, slot), name -> node and service class -> the
leaves offering it. Ids only grow, and the undo_attach_* methods hand back
only the newest, so nodes() and each class's leaves are in id order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .contracts import (
    PPM,
    Contract,
    ServiceClass,
    RESERVATION_CLASSES,
    format_contract,
    satisfies,
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

_VIRTUAL = PolicyKind.VIRTUAL
_RESBH = ServiceClass.RESBH
_PS = ServiceClass.PS
_SOFT_CLASSES = (ServiceClass.RESBS, _PS)
_ALLOTTED = frozenset({_RESBH, *_SOFT_CLASSES})  # classes that use up capacity
_ZERO = Fraction(0)


class HierarchyError(Exception):
    pass


class SchedulerSpec(namedtuple("SchedulerSpec", "name policy parent_request quantum")):
    """Loadable scheduler description: identity, policy and own ask."""

    __slots__ = ()

    def __new__(cls, name: str, policy: PolicyKind, parent_request: Contract,
                quantum: int = 10):
        if not name:
            raise HierarchyError("scheduler name must be non-empty")
        if quantum < 1:
            raise HierarchyError("quantum must be >= 1")
        return super().__new__(cls, name, policy, parent_request, quantum)

    _make = classmethod(lambda cls, values: cls(*values))  # so `_replace` validates

    @property
    def provides(self) -> frozenset:
        """The service classes the policy offers to applications."""
        return POLICY_PROVIDES[self.policy]


class AppSlot:
    """An application attached to a leaf: its ask and its current award."""

    __slots__ = ("app_id", "request", "awarded", "degraded", "seq")

    def __init__(self, app_id, request, awarded=None, degraded=False, seq=0):
        self.app_id = app_id
        self.request = request
        self.awarded = awarded
        self.degraded = degraded
        self.seq = seq


class SchedulerNode:
    """A loaded scheduler: its spec, its grant, its holders and the sums over
    them that Hierarchy keeps."""

    __slots__ = ("node_id", "spec", "parent", "path", "granted", "degraded",
                 "children", "apps", "tags", "loaded_for", "hard", "soft",
                 "reserved", "used", "factor", "fresh")

    def __init__(self, node_id, spec, parent, path, granted):
        self.node_id = node_id
        self.spec = spec
        self.parent = parent
        self.path = path  # the names from the root down to it, "/"-joined
        self.granted = granted
        self.degraded = False
        self.children = []  # child node ids, VIRTUAL only
        self.apps = []  # AppSlot, leaf policies only
        self.tags = set()  # app_class labels seen here
        self.loaded_for = None  # app whose deploy loaded this node
        # exact sums over the holders (children or apps), kept by Hierarchy
        self.hard = _ZERO  # RESBH requests
        self.soft = _ZERO  # RESBS and PS requests
        self.reserved = _ZERO  # RESBH and RESBS requests
        self.used = _ZERO  # awards in RESBH, RESBS and PS
        self.factor = None  # soft scaling at the last settle, if any
        self.fresh = set()  # holders whose award is pending

    def is_leaf(self) -> bool:
        return self.spec.policy is not _VIRTUAL


class Grant(NamedTuple):
    holder: object  # node id (int) or app id (str)
    requested: Contract
    awarded: Contract
    degraded: bool


class Rejection(NamedTuple):
    holder: object
    reason: str


class FeasibilityResult(NamedTuple):
    feasible: bool
    grants: list
    rejected: Rejection | None = None


class _Stage:
    """What one compose computed, applied only if it succeeds. Each award
    is staged once, as a Grant in `grants`."""

    __slots__ = ("dirty", "nodes", "factors", "grants")

    def __init__(self, dirty):
        self.dirty = dirty  # changed node ids and their ancestors
        self.nodes = {}  # node id -> its new grant, for its children's settle
        self.factors = {}  # node id -> its new factor
        self.grants = []  # Grant, in tree order


_ROOT_SPEC = SchedulerSpec(
    name="root",
    policy=PolicyKind.VIRTUAL,
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
            path=_ROOT_SPEC.name,
            granted=Contract.all_cpu(),
        )
        self._nodes: dict[int, SchedulerNode] = {self.ROOT_ID: root}
        self._by_name: dict[str, int] = {root.spec.name: self.ROOT_ID}
        self._apps: dict[str, tuple[int, AppSlot]] = {}
        self._offering: dict = {}  # service class -> {leaf id: leaf}
        self._next_node_id = 1
        self._next_app_seq = 0
        self._changed: set[int] = set()  # holders or own ask changed

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

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    def find_node_by_name(self, name: str) -> int | None:
        return self._by_name.get(name)

    def leaves_offering(self, service: ServiceClass):
        """The leaves whose policy offers `service`, in id order."""
        return self._offering.get(service, {}).values()

    def attach_scheduler(self, parent_id: int, spec: SchedulerSpec) -> int:
        parent = self.node(parent_id)
        if parent.spec.policy is not _VIRTUAL:
            raise HierarchyError(
                f"node {parent_id} ({parent.spec.name}) is not VIRTUAL"
            )
        if spec.name in self._by_name:
            raise HierarchyError(f"duplicate scheduler name {spec.name!r}")
        node_id = self._next_node_id
        self._next_node_id += 1
        node = self._nodes[node_id] = SchedulerNode(
            node_id=node_id,
            spec=spec,
            parent=parent_id,
            path=f"{parent.path}/{spec.name}",
            granted=Contract.null(),  # provisional until compose runs
        )
        self._by_name[spec.name] = node_id
        for service in spec.provides:
            self._offering.setdefault(service, {})[node_id] = node
        parent.children.append(node_id)
        _tally(parent, spec.parent_request, 1)
        parent.fresh.add(node_id)
        self._changed.add(parent_id)  # the node itself is marked by its first holder
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
        _tally(node, request, 1)
        node.fresh.add(app_id)
        self._changed.add(node_id)

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
        _tally(parent, node.spec.parent_request, -1)
        parent.used -= _allotted(node.granted)
        parent.fresh.discard(node_id)
        self._changed.discard(node_id)
        self._changed.add(node.parent)
        for service in node.spec.provides:
            del self._offering[service][node_id]
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
        node = self._nodes[nid]
        node.apps.remove(slot)
        _tally(node, slot.request, -1)
        node.used -= _allotted(slot.awarded)
        node.fresh.discard(app_id)
        self._changed.add(nid)
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
        The root is always granted the whole CPU, undegraded. Hard grants
        are never reduced; PS and RESBS shrink pro rata (exact rationals,
        floored to ppm/ticks) and are marked degraded. Nothing
        over-committed means identity on grants. Only the changes since the
        last successful compose are settled, and `grants` lists the grants
        this compose set, in tree order (see the module docstring).
        """
        root = self._nodes[self.ROOT_ID]
        stage = _Stage(self._dirty())
        rejection = self._settle(root, root.granted, False, stage)
        if rejection is not None:
            return FeasibilityResult(False, [], rejection)
        self._apply(stage)
        return FeasibilityResult(True, stage.grants)

    def _dirty(self) -> set:
        """The changed nodes and every node on their paths from the root."""
        nodes = self._nodes
        dirty = set()
        for nid in self._changed:
            while nid is not None and nid not in dirty:
                dirty.add(nid)  # its ancestors are in the set already
                nid = nodes[nid].parent
        return dirty

    def _apply(self, stage):
        """Write a successful compose into the tree and clear its marks. It
        settled every node in `_changed`, the only ones with fresh holders."""
        nodes = self._nodes
        for g in stage.grants:
            new = g.awarded
            if isinstance(g.holder, str):
                nid, slot = self._apps[g.holder]
                if new != slot.awarded:
                    nodes[nid].used += _allotted(new) - _allotted(slot.awarded)
                    slot.awarded = new
                slot.degraded = g.degraded
            else:
                node = nodes[g.holder]
                if new != node.granted:
                    nodes[node.parent].used += _allotted(new) - _allotted(node.granted)
                    node.granted = new
                node.degraded = g.degraded
        for nid, factor in stage.factors.items():
            nodes[nid].factor = factor
        for nid in self._changed:
            nodes[nid].fresh.clear()
        self._changed.clear()

    def _settle(self, node, granted, regrant, stage):
        """Settle one node under `granted`, then the children that need it.

        `regrant` says that `granted` differs from the grant the node's
        holders were last settled under. A node whose grant and holders are
        unchanged passes its checks as it did then and keeps its awards, so
        only its dirty children are visited.
        """
        nid = node.node_id
        leaf = node.is_leaf()
        if regrant or nid in self._changed:
            # a leaf must have asked its parent for at least its apps' demand
            if leaf and node.spec.parent_request.utilization < node.reserved:
                return Rejection(
                    nid, "parent request below aggregate reservation demand"
                )
            capacity = granted.utilization
            if node.hard > capacity:
                last = [h for h, req in self._holders(node) if req.service is _RESBH]
                return Rejection(last[-1], "hard demand exceeds capacity")
            factor = None
            if node.hard + node.soft > capacity:
                factor = (capacity - node.hard) / node.soft
            stage.factors[nid] = factor

            # the holders whose award may have moved, in tree order
            if regrant or factor != node.factor:
                holders = self._holders(node)
            else:
                holders = self._holders(node, node.fresh)
            awards = []
            for holder, req in holders:
                if factor is not None and req.service in _SOFT_CLASSES:
                    scaled = _scale_soft(req, factor)
                    if scaled is None:
                        return Rejection(holder, "soft grant would floor to zero")
                    awards.append(Grant(holder, req, scaled, True))
                else:
                    awards.append(Grant(holder, req, req, False))
            shaped = granted.is_reservation()
            for g in awards:
                req = g.requested
                if shaped and req.is_reservation() and not satisfies(granted, req):
                    return Rejection(
                        g.holder, f"supply shape: {granted} does not satisfy {req}"
                    )
                stage.grants.append(g)
                if not leaf:
                    stage.nodes[g.holder] = g.awarded

        if leaf:
            return None
        for cid in node.children:
            child = self._nodes[cid]
            given = stage.nodes.get(cid)  # its new grant, if settled above
            moved = given is not None and given != child.granted
            if moved or cid in stage.dirty:
                grant = given if moved else child.granted
                rej = self._settle(child, grant, moved, stage)
                if rej is not None:
                    return rej
        return None

    def _holders(self, node, only=None):
        """(holder, request) of a node's children or apps in tree order: all
        of them, or those in `only`. Children are in id order and apps in
        seq order, since both only grow."""
        if not node.is_leaf():
            ids = node.children if only is None else sorted(only)
            return [(cid, self._nodes[cid].spec.parent_request) for cid in ids]
        slots = node.apps
        if only is not None:
            slots = sorted((self._apps[a][1] for a in only), key=lambda s: s.seq)
        return [(s.app_id, s.request) for s in slots]

    # ------------------------------------------------------- demand and spare

    def propagate_demand(self, leaf_id: int, global_request: Contract):
        """Walk leaf to root emitting enlarged parent_requests where needed.

        Returns [(node_id, contract)] to apply before re-composing. A node's
        demand is its `hard + soft` sum, the requests of its holders that
        take capacity (a child asking for ALL, which only a raw
        `attach_scheduler` can make, counts 0). The new demand is added at
        the starting node; an enlarged node's growth over its old ask is
        added at its parent, and so on below the root.
        """
        if global_request.service not in RESERVATION_CLASSES + (ServiceClass.PS,):
            raise HierarchyError(
                f"cannot propagate {global_request.service.value} demand"
            )
        node = self.node(leaf_id)
        if leaf_id == self.ROOT_ID:
            raise HierarchyError("demand starts below the root")

        out: list[tuple[int, Contract]] = []
        extra = global_request.utilization
        while node.parent is not None:
            need = node.hard + node.soft + extra
            extra = _ZERO
            if node.granted.utilization < need:
                asked = node.spec.parent_request
                enlarged = _enlarge(asked, need, global_request)
                extra = enlarged.utilization - asked.utilization
                out.append((node.node_id, enlarged))
            node = self._nodes[node.parent]
        return out

    def update_parent_request(self, node_id: int, request: Contract):
        node = self.node(node_id)
        if node_id == self.ROOT_ID:
            raise HierarchyError("root request is fixed")
        parent = self._nodes[node.parent]
        _tally(parent, node.spec.parent_request, -1)
        _tally(parent, request, 1)
        parent.fresh.add(node_id)
        self._changed.add(node.parent)
        self._changed.add(node_id)  # a leaf checks its own ask against its apps
        node.spec = node.spec._replace(parent_request=request)

    def spare_capacity(self, node_id: int) -> Fraction:
        """Granted utilization not yet committed to reservation/PS children."""
        node = self.node(node_id)
        spare = node.granted.utilization - node.used
        return spare if spare > 0 else _ZERO

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


def _tally(node: SchedulerNode, request: Contract, sign: int):
    """Add (sign 1) or take away (sign -1) one holder's request in the sums."""
    service = request.service
    if service not in _ALLOTTED:
        return
    u = request.utilization if sign > 0 else -request.utilization
    if service is _RESBH:
        node.hard += u
    else:
        node.soft += u
    if service is not _PS:
        node.reserved += u


def _allotted(award: Contract | None) -> Fraction:
    """Utilization an award takes from its grantor's capacity."""
    if award is None or award.service not in _ALLOTTED:
        return _ZERO
    return award.utilization


def _scale_soft(req: Contract, factor: Fraction) -> Contract | None:
    """Shrink a PS/RESBS request by an exact factor, flooring to the grid."""
    if req.service is _PS:
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
