"""The full-scan runtime sync as it was before the engine applied only the
grants a compose set, kept as a reference for the differential test in
test_engine_equivalence.py.

`FullScanSimulation` is a `Simulation` whose `_sync_runtimes` is copied from
the earlier `hiersched.engine`: after every deploy and undeploy it walks
every node of the tree and every live app, and rebuilds the set of live
budget-server periods. It ignores the grants and the retired app it is
handed. Do not edit or optimise it; its value is that it is the old,
obviously correct code.
"""

from __future__ import annotations

from hiersched.engine import Simulation, _NodeRT


class FullScanSimulation(Simulation):
    """The engine with the earlier full-scan sync."""

    def _sync_runtimes(self, t, grants=(), retired=None):
        """Reconcile budget servers with the tree after any recompose."""
        live = set()
        self._periods = set()
        for node in self.h.nodes():
            live.add(node.node_id)
            rt = self._nrt.get(node.node_id)
            if rt is None:
                rt = _NodeRT(grant_tick=t)
                self._nrt[node.node_id] = rt
            if node.granted.is_reservation():
                self._periods.add(node.granted.period)
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
            slot = self.h.app_slot(art.app_id)
            art.awarded = slot.awarded
            if slot.awarded.is_reservation():
                self._periods.add(slot.awarded.period)
                art.server_cap = slot.awarded.budget
                art.server_rem = (
                    art.server_cap
                    if art.server_rem is None
                    else min(art.server_rem, art.server_cap)
                )
