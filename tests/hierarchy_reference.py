"""The full-scan admission settle as it was before per-node aggregates, kept
as a reference for the differential test in test_hierarchy_equivalence.py.

`ReferenceHierarchy` is a `Hierarchy` whose `compose`, `reallocate`,
`_apply`, `_settle` and `spare_capacity` are copied from the earlier
`hiersched.hierarchy`: every compose re-sums the requests of every holder
under every node, and `spare_capacity` re-sums a node's awards. The only
addition is the supply-shape test (marked below), which both versions make.
Do not edit or optimise it; its value is that it is the old, obviously
correct code.
"""

from __future__ import annotations

from fractions import Fraction

from hiersched.contracts import ServiceClass, satisfies, utilization
from hiersched.hierarchy import (
    _SOFT_CLASSES,
    FeasibilityResult,
    Grant,
    Hierarchy,
    Rejection,
    _scale_soft,
)


class ReferenceHierarchy(Hierarchy):
    """The tree with the earlier full-scan composition."""

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
        # the one addition to the copied code: the supply-shape test
        if granted.is_reservation():
            for holder, req, _ in entries:
                if req.is_reservation() and not satisfies(granted, req):
                    return Rejection(
                        holder, f"supply shape: {granted} does not satisfy {req}"
                    )

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

