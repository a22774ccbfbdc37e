"""The verifier against engine faults: one-method engine mutants.

Each mutant patches one method of the engine with `monkeypatch` and runs a
scenario that shows its fault; the real engine reads clean on the same
scenario. A mutant the verifier catches must be reported with the exact
violation kind, app and first window. The faults the verifier cannot see
today are strict xfails that name the ROADMAP item that mends them:

- starve: app budget servers skip their refill when `t // 100` is odd, so
  a starved app sees no budget for a whole window -> UNDER_SUPPLY;
- node_over: node servers found full after a refill get 5 ticks over their
  cap, on repro `nodecap` -> item 12, as no node grant is checked;
- starve with hidden backlog: the engine also stops recording demand
  (`_AppRT.note_backlog` a no-op) -> item 12, as the verifier takes each
  app's demand from the engine's own record.
"""

import json

import pytest

from hiersched.cli import parse_scenario
from hiersched.engine import _REPLENISH, Simulation, _AppRT, _NodeRT, _pos, run_scenario
from hiersched.verify import ViolationKind, build_report

from helpers import bench_scenario

# leaf `edf0` grants RESBH[30,100], under which the soft app `s` may run 30
# ticks in each window; the hog on `rr0` takes every other tick
NODECAP = {
    "horizon": 1000, "seed": 0,
    "schedulers": [
        {"name": "edf0", "policy": "EDF_RESERVATION", "request": "RESBH[30,100]"},
        {"name": "rr0", "policy": "ROUND_ROBIN", "request": "BE"},
    ],
    "timeline": [
        {"tick": 0, "action": "deploy", "app": "s", "class": "c",
         "request": "RESBS[30,100]", "scheduler": "edf0",
         "workload": {"kind": "CPU_BOUND"}},
        {"tick": 0, "action": "deploy", "app": "hog", "class": "b",
         "request": "BE", "scheduler": "rr0", "workload": {"kind": "CPU_BOUND"}},
    ],
}


def starved_replenish(self, t):
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


def node_over(monkeypatch):
    """Node servers found full after a refill get `cap + 5`."""
    replenish = Simulation._replenish_phase

    def over(self, t):
        replenish(self, t)
        for period, filed in self._servers.items():
            if t % period == 0:
                for holder in filed.values():
                    if isinstance(holder, _NodeRT) and holder.rem == holder.cap:
                        holder.rem = holder.cap + 5

    monkeypatch.setattr(Simulation, "_replenish_phase", over)


# workload -> (UNDER_SUPPLY rows, the first of them) at seed 1 under starve
STARVED = {
    "long_horizon": (98, "UNDER_SUPPLY app=hard_1 window=[300,400) expected=10 observed=0"),
    "churn": (9, "UNDER_SUPPLY app=hard_0 window=[300,400)"),
}


def under_supply(report):
    return [v.line() for v in report.violations if v.kind is ViolationKind.UNDER_SUPPLY]


@pytest.mark.parametrize("name", sorted(STARVED))
def test_the_real_engine_reads_clean(name, tmp_path):
    assert build_report(run_scenario(bench_scenario(name, 1, tmp_path))).violations == ()


@pytest.mark.parametrize("name", sorted(STARVED))
def test_starve_is_reported_as_under_supply(name, tmp_path, monkeypatch):
    scenario = bench_scenario(name, 1, tmp_path)
    monkeypatch.setattr(Simulation, "_replenish_phase", starved_replenish)
    report = build_report(run_scenario(scenario))
    count, first = STARVED[name]
    assert {v.kind for v in report.violations} == {ViolationKind.UNDER_SUPPLY}
    rows = under_supply(report)
    assert len(rows) == count
    assert rows[0].startswith(first)


def test_nodecap_runs_clean_within_its_leaf_grant():
    trace = run_scenario(parse_scenario(json.dumps(NODECAP)))
    assert trace.per_app_service["s"] == 300
    assert build_report(trace).violations == ()


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 12: no node grant is checked, so `s` running 345 ticks "
    "under edf0's RESBH[30,100] reads clean"))
def test_node_over_is_reported(monkeypatch):
    node_over(monkeypatch)
    trace = run_scenario(parse_scenario(json.dumps(NODECAP)))
    assert trace.per_app_service["s"] == 345
    assert build_report(trace).violations != ()


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 12: the verifier takes demand from the engine's own "
    "backlog record, so an engine that records none hides its starvation"))
def test_starve_with_hidden_backlog_is_reported(tmp_path, monkeypatch):
    scenario = bench_scenario("long_horizon", 1, tmp_path)
    monkeypatch.setattr(Simulation, "_replenish_phase", starved_replenish)
    monkeypatch.setattr(_AppRT, "note_backlog", lambda self, tick, backlogged: None)
    rows = under_supply(build_report(run_scenario(scenario)))
    count, first = STARVED["long_horizon"]
    assert len(rows) == count and rows[0] == first
