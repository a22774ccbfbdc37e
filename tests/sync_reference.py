"""The full-scan runtime sync as it was before the engine applied only the
grants a compose set, kept as a reference for the differential test in
test_engine_equivalence.py.

`FullScanSimulation` is a `Simulation` whose `_sync_runtimes` is copied from
the earlier `hiersched.engine`: after every deploy and undeploy it walks
every node of the tree and every live app, and rebuilds the registry of
live budget servers by period. It ignores the grants and the retired app
it is handed. Do not edit or optimise it; its value is that it is the old,
obviously correct code. Only the names of the fields it sets follow the
engine's, and it files each server it sets in the registry it rebuilds.
"""

from __future__ import annotations

from hiersched.engine import Simulation, _NodeRT


class FullScanSimulation(Simulation):
    """The engine with the earlier full-scan sync."""

    def _sync_runtimes(self, t, grants=(), retired=None):
        """Reconcile budget servers with the tree after any recompose."""
        live = set()
        self._servers = {}
        for node in self.h.nodes():
            live.add(node.node_id)
            rt = self._nrt.get(node.node_id)
            if rt is None:
                rt = _NodeRT(node, since=t)
                self._nrt[node.node_id] = rt
            rt.grant = node.granted
            if node.granted.is_reservation():
                self._servers.setdefault(node.granted.period, {})[node.node_id] = rt
                if rt.cap is None:
                    rt.cap = node.granted.budget
                    rt.rem = node.granted.budget
                else:
                    rt.cap = node.granted.budget
                    rt.rem = min(rt.rem, rt.cap)
        for nid in list(self._nrt):
            if nid not in live:
                del self._nrt[nid]
        for art in self._art.values():
            slot = self.h.app_slot(art.key)
            art.grant = slot.awarded
            if slot.awarded.is_reservation():
                self._servers.setdefault(slot.awarded.period, {})[art.key] = art
                art.cap = slot.awarded.budget
                art.rem = (
                    art.cap
                    if art.rem is None
                    else min(art.rem, art.cap)
                )
