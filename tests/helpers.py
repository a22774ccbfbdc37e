"""Shared builders for scheduler specs and traces used across test modules,
and the text form of a hierarchy that rollback tests compare."""

import heapq
import subprocess
import sys
from pathlib import Path

from hiersched.cli import parse_scenario
from hiersched.contracts import format_contract
from hiersched.hierarchy import PolicyKind, SchedulerSpec
from hiersched.record import _RANK, EventKind, SimEvent, Trace

BENCH = Path(__file__).resolve().parent.parent / "bench"


def edf_spec(name, request, quantum=10):
    return SchedulerSpec(
        name=name,
        policy=PolicyKind.EDF_RESERVATION,
        parent_request=request,
        quantum=quantum,
    )


def stride_spec(name, request, quantum=10):
    return SchedulerSpec(
        name=name,
        policy=PolicyKind.STRIDE,
        parent_request=request,
        quantum=quantum,
    )


def rr_spec(name, request, quantum=10):
    return SchedulerSpec(
        name=name,
        policy=PolicyKind.ROUND_ROBIN,
        parent_request=request,
        quantum=quantum,
    )


def fp_spec(name, request, quantum=10):
    return SchedulerSpec(
        name=name,
        policy=PolicyKind.FIXED_PRIORITY,
        parent_request=request,
        quantum=quantum,
    )


def virtual_spec(name, request, quantum=10):
    return SchedulerSpec(
        name=name,
        policy=PolicyKind.VIRTUAL,
        parent_request=request,
        quantum=quantum,
    )


def canonical(h):
    """Stable text form of the whole state of hierarchy `h`: its next node
    id, then each node in id order with its apps in attach order. A
    rejected deploy must leave it unchanged."""
    lines = [f"hierarchy next_node={h._next_node_id}"]
    for n in h.nodes():
        lines.append(
            f"node id={n.node_id} name={n.spec.name} policy={n.spec.policy.value} "
            f"parent={'-' if n.parent is None else n.parent} "
            f"request={format_contract(n.spec.parent_request)} "
            f"granted={format_contract(n.granted)} degraded={int(n.degraded)} "
            f"quantum={n.spec.quantum} "
            f"provides={','.join(sorted(c.value for c in n.spec.provides))} "
            f"tags={','.join(sorted(n.tags))} "
            f"loaded_for={'-' if n.loaded_for is None else n.loaded_for}")
        for s in n.apps:
            lines.append(
                f"app node={n.node_id} id={s.app_id} "
                f"request={format_contract(s.request)} "
                f"awarded={format_contract(s.awarded) if s.awarded else '-'} "
                f"degraded={int(s.degraded)}")
    return "\n".join(lines) + "\n"


# A trace keeps RUN and IDLE as run-length segments beside its other rows.
# Tests state traces as per-tick rows; these adapters convert both ways.

def split_rows(rows):
    """Per-tick rows -> (the rows other than RUN and IDLE, a one-tick
    segment for each RUN or IDLE row, in row order)."""
    events, segments = [], []
    for e in rows:
        if e.kind is EventKind.RUN:
            segments.append((e.tick, e.tick + 1, e.app))
        elif e.kind is EventKind.IDLE:
            segments.append((e.tick, e.tick + 1, None))
        else:
            events.append(e)
    return events, segments


def trace_from_rows(horizon, rows, infos=()):
    """A trace holding `rows` and the facts of the apps in `infos`."""
    events, segments = split_rows(rows)
    return Trace(
        horizon=horizon, events=events, per_app_service={},
        idle_ticks=sum(e - s for s, e, app in segments if app is None),
        app_info={i.app_id: i for i in infos}, decisions=[],
        segments=segments,
    )


def rows(trace):
    """The trace as per-tick rows in CSV order, RUN rows carrying the app's
    node, as the engine wrote them before segments. An engine's segments
    tile the horizon, so each tick gets one RUN or IDLE row. A hand-made
    trace may have several at a tick, or none; rows of one tick keep the
    order of their segments."""
    ticks = []
    for start, end, app in trace.segments:
        info = trace.app_info.get(app)
        for t in range(start, end):
            ticks.append(SimEvent(t, EventKind.IDLE) if app is None else SimEvent(
                t, EventKind.RUN, app, info.node_id if info else None,
                info.node_path if info else ""))
    ticks.sort(key=lambda e: e.tick)
    return list(heapq.merge(trace.events, ticks,
                            key=lambda e: (e.tick, _RANK[e.kind])))


def replace_rows(trace, picks, make):
    """A copy of `trace` with the rows `picks` selects replaced by
    `make(row)`."""
    events, segments = split_rows(make(e) if picks(e) else e for e in rows(trace))
    return trace._replace(events=events, segments=segments)


def bench_scenario(name, seed, tmp_path):
    """The benchmark's workload `name` at `seed`, written under `tmp_path`
    by bench/workloads.py, as the benchmark makes it, and parsed."""
    path = tmp_path / f"{name}_{seed}.json"
    subprocess.run([sys.executable, str(BENCH / "workloads.py"), "--workload", name,
                    "--seed", str(seed), "--out", str(path)],
                   check=True, capture_output=True, timeout=120)
    return parse_scenario(path.read_text(encoding="utf-8"))
