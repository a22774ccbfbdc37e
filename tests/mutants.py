"""One-method engine mutants, and the scenarios that show their faults.

Each mutant takes a pytest `monkeypatch` and patches one method of the
engine, or one dispatch rule as the engine binds it, through it, so the
fault lasts for one test. The verifier should report each fault;
`tests/test_mutants.py` pins what it reports on each scenario, and that the
real engine reads clean there.

- `starve`: app budget servers skip their refill when `t // 100` is odd, so
  a starved app sees no budget for a whole window -> UNDER_SUPPLY;
- `app_over`: app servers found full after a refill get 5 ticks over their
  cap, on `APPCAP` -> OVER_CAP;
- `skew`: at a stride node, the lowest key is charged half its pass
  increment (floored) -> LAG_EXCEEDED;
- `lazy`: the root idles at the decision points on ticks = 7 (mod 50) ->
  NON_CONSERVING;
- `node_over`: node servers found full after a refill get 5 ticks over
  their cap, on `NODECAP`. Missed: no node grant is checked (ROADMAP item
  12);
- `hide_backlog`: the engine stops recording demand (`_AppRT.note_backlog`
  a no-op). With `starve`, missed: the verifier takes each app's demand
  from the engine's own record (ROADMAP item 12).
"""

from hiersched import engine
from hiersched.engine import _REPLENISH, Simulation, _AppRT, _pos
from hiersched.hierarchy import Hierarchy
from hiersched.policy import _NodeRT


def _cap_scenario(app, request):
    """Leaf `edf0` grants RESBH[30,100]; `app`, CPU_BOUND under `request`,
    may run up to 30 ticks in each window there, and a BE hog on `rr0`
    takes every other tick."""
    return {
        "horizon": 1000, "seed": 0,
        "schedulers": [
            {"name": "edf0", "policy": "EDF_RESERVATION", "request": "RESBH[30,100]"},
            {"name": "rr0", "policy": "ROUND_ROBIN", "request": "BE"},
        ],
        "timeline": [
            {"tick": 0, "action": "deploy", "app": app, "class": "c",
             "request": request, "scheduler": "edf0",
             "workload": {"kind": "CPU_BOUND"}},
            {"tick": 0, "action": "deploy", "app": "hog", "class": "b",
             "request": "BE", "scheduler": "rr0", "workload": {"kind": "CPU_BOUND"}},
        ],
    }


# the soft app `s` runs 30 ticks in each window: its leaf's cap binds
NODECAP = _cap_scenario("s", "RESBS[30,100]")
# the hard app `h` runs 10 ticks in each window: its own cap binds
APPCAP = _cap_scenario("h", "RESBH[10,100]")


def _starved_replenish(self, t):
    """`Simulation._replenish_phase`, but an app server due in a window
    whose index `t // 100` is odd is not refilled."""
    due = [holder for period, filed in self._servers.items() if t % period == 0
           for holder in filed.values() if t > holder.since
           and not (isinstance(holder, _AppRT) and t // 100 % 2)]
    for rt in sorted((h for h in due if isinstance(h, _NodeRT)), key=_pos):
        self._emit(t, _REPLENISH, node_id=rt.key, node_path=rt.path)
    for holder in due:
        empty = holder.rem == 0
        holder.rem = holder.cap
        if empty:
            self._mark(holder, holder.backlogged())


def starve(monkeypatch):
    """App servers skip their refill in the windows whose index is odd."""
    monkeypatch.setattr(Simulation, "_replenish_phase", _starved_replenish)


def _overfill(monkeypatch, kind):
    """Servers of `kind` (`_AppRT` or `_NodeRT`) found full after a refill
    get `cap + 5`."""
    replenish = Simulation._replenish_phase

    def over(self, t):
        replenish(self, t)
        for period, filed in self._servers.items():
            if t % period == 0:
                for holder in filed.values():
                    if isinstance(holder, kind) and holder.rem == holder.cap:
                        holder.rem = holder.cap + 5

    monkeypatch.setattr(Simulation, "_replenish_phase", over)


def app_over(monkeypatch):
    """App servers found full after a refill get `cap + 5`."""
    _overfill(monkeypatch, _AppRT)


def node_over(monkeypatch):
    """Node servers found full after a refill get `cap + 5`."""
    _overfill(monkeypatch, _NodeRT)


def skew(monkeypatch):
    """At a stride node, `min(rt.passes)`, the lowest key, is charged half
    its pass increment, floored: the engine's `_charge_turn`, the rule that
    charges a turn, is patched."""
    charge = engine._charge_turn

    def skewed(rt, kind, child, n):
        charge(rt, kind, child, n)
        if kind == "stride" and child.key == min(rt.passes):
            step = n * (rt.scale // child.grant.share)
            rt.passes[child.key] -= step - step // 2

    monkeypatch.setattr(engine, "_charge_turn", skewed)


def lazy(monkeypatch):
    """The root's `dispatch` returns `(None, [])` on ticks = 7 (mod 50)."""
    dispatch = Simulation.dispatch

    def idle(self, node_id, tick):
        if node_id == Hierarchy.ROOT_ID and tick % 50 == 7:
            return None, []
        return dispatch(self, node_id, tick)

    monkeypatch.setattr(Simulation, "dispatch", idle)


def hide_backlog(monkeypatch):
    """The engine records no demand: `_AppRT.note_backlog` does nothing."""
    monkeypatch.setattr(_AppRT, "note_backlog", lambda self, tick, backlogged: None)
