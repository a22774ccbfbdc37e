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

Composition is incremental. Each node keeps exact sums of its holders'
requests (`hard`: RESBH; `soft`: RESBS and PS; `reserved`: RESBH and RESBS,
which a leaf's own ask must cover), the sum of the awards it has handed out
(`used`, so spare_capacity is O(1)) and the degradation factor of its last
successful settle. The four sums are integers over the node's `scale`, the
lcm of the utilization denominators (`Contract.ratio`) summed there: `scale`
only grows, and a new denominator rescales the four sums. The checks compare
by cross-multiplication and the factor is a reduced integer pair, so no
value is ever a float; only `spare_capacity` returns a Fraction. The
mutators keep these sums and mark what changed: the node whose holders or
own ask changed (`_changed`) and the holders whose award is pending
(`fresh`). A compose walks only the paths from the root to the changed
nodes, and at each node only the children on them. It re-settles a node
whose holders changed or whose grant changed. It recomputes all of that
node's awards when its grant or its factor moved, and only the fresh ones
otherwise. Every other subtree keeps its grants: its inputs are those of
the last successful compose, which found it feasible. Marks are cleared
only when a compose succeeds, so a failed compose needs no undo of them.
Hence FeasibilityResult.grants lists only the grants this compose set; the
first compose of a fresh tree sets, and lists, all of them.

Dicts index app -> (node, slot), name -> node and service class -> the
leaves offering it. Node ids only grow, and undo_attach_scheduler hands
back only the newest, so nodes(), each class's leaves and each node's
`children` are in id order. A leaf's `apps` are in attach order, and its
fresh apps are their tail (`_holders`).
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from math import gcd

from .contracts import (
    PPM,
    Contract,
    ServiceClass,
    RESERVATION_CLASSES,
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
# classes that use up capacity (a tuple: a set would hash the Enum member in
# Python code on every `_units` call)
_ALLOTTED = (_RESBH, *_SOFT_CLASSES)


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

    __slots__ = ("app_id", "request", "awarded", "degraded")

    def __init__(self, app_id, request):
        self.app_id = app_id
        self.request = request
        self.awarded = None
        self.degraded = False


class SchedulerNode:
    """A loaded scheduler: its spec, its grant, its holders and the sums over
    them that Hierarchy keeps."""

    __slots__ = ("node_id", "spec", "parent", "path", "granted", "degraded",
                 "children", "apps", "tags", "loaded_for", "hard", "soft",
                 "reserved", "used", "scale", "factor", "fresh")

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
        # exact sums over the holders (children or apps), kept by Hierarchy,
        # each an integer over `scale`
        self.hard = 0  # RESBH requests
        self.soft = 0  # RESBS and PS requests
        self.reserved = 0  # RESBH and RESBS requests
        self.used = 0  # awards in RESBH, RESBS and PS
        self.scale = 1
        self.factor = None  # soft scaling at the last settle, if any: (num, den)
        self.fresh = set()  # holders whose award is pending

    def is_leaf(self) -> bool:
        return self.spec.policy is not _VIRTUAL


# a holder is a node id (int) or an app id (str)
Grant = namedtuple("Grant", "holder requested awarded degraded")
Rejection = namedtuple("Rejection", "holder reason")
FeasibilityResult = namedtuple("FeasibilityResult", "feasible grants rejected",
                               defaults=(None,))


# what one compose computed, applied only if it succeeds: `dirty` maps a
# node id to its children that changed or lead to one, `factors` a node id
# to its new factor, and `grants` stages each award once, as a Grant, in
# tree order
_Stage = namedtuple("_Stage", "dirty factors grants")


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
        slot = AppSlot(app_id=app_id, request=request)
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
        _charge(parent, node.granted, None)
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

    def remove_application(self, app_id: str):
        try:
            nid, slot = self._apps.pop(app_id)
        except KeyError:
            raise HierarchyError(f"no such app {app_id!r}") from None
        node = self._nodes[nid]
        node.apps.remove(slot)
        _tally(node, slot.request, -1)
        _charge(node, slot.awarded, None)
        node.fresh.discard(app_id)
        self._changed.add(nid)

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
        stage = _Stage(self._dirty(), {}, [])
        rejection = self._settle(root, root.granted, False, stage)
        if rejection is not None:
            return FeasibilityResult(False, [], rejection)
        self._apply(stage)
        return FeasibilityResult(True, stage.grants)

    def _dirty(self) -> dict:
        """Node id -> those of its children that are changed nodes or lie on
        the path from the root to one."""
        nodes = self._nodes
        dirty = {}
        for nid in self._changed:
            while (parent := nodes[nid].parent) is not None:
                below = dirty.setdefault(parent, set())
                if nid in below:
                    break  # the path above is in already
                below.add(nid)
                nid = parent
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
                    _charge(nodes[nid], slot.awarded, new)
                    slot.awarded = new
                slot.degraded = g.degraded
            else:
                node = nodes[g.holder]
                if new != node.granted:
                    _charge(nodes[node.parent], node.granted, new)
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
        only its dirty children are visited. The sums are over `node.scale`
        and the grant over its own denominator, so each test is made over
        their product.
        """
        nid = node.node_id
        leaf = node.is_leaf()
        moved = {}  # child id -> its new grant, where it differs
        if regrant or nid in self._changed:
            scale = node.scale
            # a leaf must have asked its parent for at least its apps' demand
            an, ad = node.spec.parent_request.ratio
            if leaf and an * scale < node.reserved * ad:
                return Rejection(
                    nid, "parent request below aggregate reservation demand"
                )
            cn, cd = granted.ratio
            capacity, hard = cn * scale, node.hard * cd
            if hard > capacity:
                last = [h for h, req in self._holders(node) if req.service is _RESBH]
                return Rejection(last[-1], "hard demand exceeds capacity")
            factor = None
            if hard + node.soft * cd > capacity:
                num, den = capacity - hard, node.soft * cd
                common = gcd(num, den)
                factor = (num // common, den // common)
            stage.factors[nid] = factor

            # the holders whose award may have moved, in tree order
            holders = self._holders(node, not regrant and factor == node.factor)
            awards = []
            for holder, req in holders:
                if factor is not None and req.service in _SOFT_CLASSES:
                    scaled = _scale_soft(req, *factor)
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
                if not leaf and g.awarded != self._nodes[g.holder].granted:
                    moved[g.holder] = g.awarded

        if leaf:
            return None
        for cid in sorted(moved.keys() | stage.dirty.get(nid, ())):
            child = self._nodes[cid]
            given = moved.get(cid)
            rej = self._settle(child, given or child.granted, given is not None, stage)
            if rej is not None:
                return rej
        return None

    def _holders(self, node, fresh=False):
        """(holder, request) of a node's children or apps in tree order: all
        of them, or only the fresh ones. A leaf's fresh apps are the tail of
        its `apps`: an attach appends one and marks it, a successful compose
        clears every mark, and a removal drops the app from both."""
        if node.is_leaf():
            apps = node.apps[len(node.apps) - len(node.fresh):] if fresh else node.apps
            return [(s.app_id, s.request) for s in apps]
        children = sorted(node.fresh) if fresh else node.children  # in id order
        return [(cid, self._nodes[cid].spec.parent_request) for cid in children]

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
        en, ed = global_request.ratio  # the extra demand, en / ed
        while node.parent is not None:
            # the node's demand, need_n / need_d
            need_n, need_d = (node.hard + node.soft) * ed + en * node.scale, node.scale * ed
            en, ed = 0, 1
            gn, gd = node.granted.ratio
            if gn * need_d < need_n * gd:
                asked = node.spec.parent_request
                enlarged = _enlarge(asked, need_n, need_d, global_request)
                (xn, xd), (an, ad) = enlarged.ratio, asked.ratio
                en, ed = xn * ad - an * xd, xd * ad
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

    def has_room(self, node_id: int, request: Contract) -> bool:
        """Does the node's spare capacity cover `request`'s utilization?"""
        node = self.node(node_id)
        (gn, gd), (rn, rd) = node.granted.ratio, request.ratio
        # both sides over gd * scale * rd
        return rn * gd * node.scale <= max(gn * node.scale - node.used * gd, 0) * rd

    def spare_capacity(self, node_id: int) -> "Fraction":
        """Granted utilization not yet committed to reservation/PS children."""
        from fractions import Fraction
        node = self.node(node_id)
        gn, gd = node.granted.ratio
        return Fraction(max(gn * node.scale - node.used * gd, 0), gd * node.scale)


def _units(node: SchedulerNode, c: Contract | None) -> int:
    """The capacity `c` takes, as an integer over `node.scale`: 0 for None
    and the classes that take none. A denominator new to the node first
    grows the scale to a multiple of it, and the four sums with it."""
    if c is None or c.service not in _ALLOTTED:
        return 0
    n, d = c.ratio
    if node.scale % d:
        m = d // gcd(node.scale, d)
        for name in ("scale", "hard", "soft", "reserved", "used"):
            setattr(node, name, getattr(node, name) * m)
    return n * (node.scale // d)


def _tally(node: SchedulerNode, request: Contract, sign: int):
    """Add (sign 1) or take away (sign -1) one holder's request in the sums
    (a class that takes no capacity adds 0)."""
    u = sign * _units(node, request)
    if request.service is _RESBH:
        node.hard += u
    else:
        node.soft += u
    if request.service is not _PS:
        node.reserved += u


def _charge(node: SchedulerNode, old: Contract | None, new: Contract | None):
    """Move `used` from one award of `node`'s to the next, either None."""
    # `old` was charged here, so the scale is a multiple of its denominator
    # already: only `new` can grow it, and it goes first
    u = _units(node, new) - _units(node, old)
    node.used += u


def _scale_soft(req: Contract, num, den=1) -> Contract | None:
    """Shrink a PS/RESBS request by the exact factor num / den, flooring to
    the grid. `num` may be a Fraction, with `den` left at 1."""
    if req.service is _PS:
        share = req.share * num // den
        if share < 1:
            return None
        return Contract.ps(share)
    budget = req.budget * num // den
    if budget < 1:
        return None
    return Contract.resbs(budget, req.period)


def _enlarge(existing: Contract, need_n: int, need_d: int,
             global_request: Contract) -> Contract:
    """Grow a parent_request to cover utilization need_n / need_d exactly or
    better."""
    if existing.is_reservation():
        period = existing.period
        if global_request.is_reservation():
            period = min(period, global_request.period)
        budget = min(period, -(-need_n * period // need_d))
        return Contract(existing.service, budget=budget, period=period)
    if existing.service is ServiceClass.PS:
        share = min(PPM, -(-need_n * PPM // need_d))
        return Contract.ps(share)
    raise HierarchyError(
        f"cannot enlarge a {existing.service.value} parent request"
    )


def new_hierarchy() -> Hierarchy:
    """Fresh tree: a single VIRTUAL root granted the whole CPU."""
    return Hierarchy()
