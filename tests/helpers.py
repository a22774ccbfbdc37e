"""Shared builders for scheduler specs and traces used across test modules."""

import heapq

from hiersched.engine import _RANK, EventKind, SimEvent, Trace
from hiersched.hierarchy import PolicyKind, SchedulerSpec


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
    """Replace the rows `picks` selects with `make(row)`, in place."""
    trace.events, trace.segments = split_rows(
        make(e) if picks(e) else e for e in rows(trace))
