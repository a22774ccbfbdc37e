"""The sweeping verifier gives the same answers as the tick-walking one.

`verify_reference` keeps the earlier checks unchanged. On random small
traces (one or two leaves, up to five apps, weights including 0, backlogs
touching tick 0 and the horizon, IDLE ticks, RUN rows by non-peers and
strangers, several rows at one tick, segments of several ticks overlapping
them, stray rows outside the horizon, and `share_ppm` overrides) every `check_*` result and every report must agree field for
field. The reference reads the trace as per-tick rows (`helpers.rows`). The shipped scenarios all verify clean, so the
test also asserts that the generated traces do produce LAG_EXCEEDED.

`build_report` builds each share leaf once for every holder it checks
there. On traces with two STRIDE leaves of three or four share-holders
each, all granted PS, its report must equal the reference's, its
LAG_EXCEEDED violations must be those of the per-app `check_share` calls,
and it must sweep each leaf once.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import verify_reference as ref
from hiersched import verify
from hiersched.contracts import Contract, ServiceClass
from hiersched.engine import AppTraceInfo, EventKind, SimEvent, Trace
from hiersched.verify import VerifyError, ViolationKind

from helpers import rows, trace_from_rows

PATHS = ("root/a", "root/b")


def fields(v):
    return (v.kind, v.app_id, v.window, v.expected, type(v.expected),
            v.observed, type(v.observed), v.line())


def outcome(check, *args, **kwargs):
    try:
        return "ok", [fields(v) for v in check(*args, **kwargs)]
    except VerifyError as e:
        return "error", str(e)


@st.composite
def backlogs(draw, horizon):
    # non-decreasing cut points paired up: sorted, disjoint intervals that may
    # touch, be empty, or reach past either end of the horizon
    point = st.one_of(st.sampled_from([0, horizon]), st.integers(-2, horizon + 2))
    cuts = sorted(draw(st.lists(point, min_size=2, max_size=6)))
    return [(cuts[i], cuts[i + 1]) for i in range(0, len(cuts) - 1, 2)]


@st.composite
def grants(draw, weight):
    kind = draw(st.sampled_from(["PS", "RESBH", "RESBS", "BE"]))
    if kind == "PS":
        return Contract.ps(max(weight, 1))
    if kind == "BE":
        return Contract.be()
    period = draw(st.integers(1, 12))
    budget = draw(st.integers(1, period))
    return Contract(ServiceClass[kind], budget=budget, period=period)


WEIGHTS = [0, 1, 100_000, 250_000, 333_333, 1_000_000]


@st.composite
def cases(draw, holders=0):
    """A trace, its grants, whether it has stray rows, and check_share
    overrides. With `holders`, both leaves get `holders` or one more
    share-holders each, every one granted PS, and no stray rows."""
    horizon = draw(st.integers(1, 40))
    if holders:
        paths = PATHS
        placed = [p for p in paths for _ in range(draw(st.integers(holders, holders + 1)))]
    else:
        paths = PATHS[:draw(st.integers(1, 2))]
        placed = [None] * draw(st.integers(1, 5))
    n = len(placed)
    infos, grant_of = [], {}
    for k, path in enumerate(placed):
        app = f"a{k}"
        weight = draw(st.sampled_from(WEIGHTS[1:] if holders else WEIGHTS))
        path = path or draw(st.sampled_from(paths))
        infos.append(AppTraceInfo(
            app_id=app, node_id=1 + PATHS.index(path),
            node_path=path, leaf_policy="STRIDE",
            requested=Contract.be(), awarded=Contract.be(), weight_ppm=weight,
            quantum=draw(st.integers(0, 2)), deployed_at=0, undeployed_at=None,
            hard_capped=draw(st.booleans()), backlog=draw(backlogs(horizon)),
        ))
        grant_of[app] = Contract.ps(weight) if holders else draw(grants(weight))
    # IDLE (None) or RUN by an app or a stranger; one or two rows a tick,
    # and one tick in ten anything from none to three
    row = st.one_of(st.just(None), st.sampled_from([f"a{k}" for k in range(n)] + ["ghost"]))
    events = []
    for t in range(horizon):
        rows = (st.lists(row, min_size=1, max_size=2) if draw(st.integers(0, 9))
                else st.lists(row, max_size=3))
        for who in draw(rows):
            events.append(SimEvent(t, EventKind.IDLE) if who is None
                          else SimEvent(t, EventKind.RUN, app=who, node_path=paths[0]))
    stray = not holders and draw(st.booleans())
    if stray:
        events = ([SimEvent(-1, EventKind.RUN, app="a0")] + events
                  + [SimEvent(horizon, EventKind.RUN, app="a0")])
    trace = trace_from_rows(horizon, events, infos)
    # longer segments, overlapping the rows above, anywhere in the list
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, horizon - 1))
        end = draw(st.integers(start + 1, min(horizon, start + 8)))
        at = draw(st.integers(0, len(trace.segments)))
        trace.segments.insert(at, (start, end, draw(row)))
    overrides = draw(st.lists(st.tuples(
        st.sampled_from([i.app_id for i in infos]),
        st.integers(-1, 1_000_000),
    ), max_size=3))
    return trace, grant_of, stray, overrides


def test_sweep_matches_the_tick_walk():
    lag_cases = []

    @settings(max_examples=250, deadline=None)
    @given(cases())
    def compare(case):
        trace, grant_of, stray, overrides = case
        # the reference reads RUN and IDLE as per-tick rows
        old_trace = Trace(trace.horizon, rows(trace), trace.per_app_service,
                          trace.idle_ticks, trace.app_info, trace.decisions)
        fired = False
        for app, info in trace.app_info.items():
            old = outcome(ref.check_share, old_trace, app, info.weight_ppm, info.quantum)
            assert outcome(verify.check_share, trace, app, info.weight_ppm,
                           info.quantum) == old
            fired |= old[0] == "ok" and any(
                f[0] is ViolationKind.LAG_EXCEEDED for f in old[1])
            grant = grant_of[app]
            assert (outcome(verify.check_reservation, trace, app, grant, info.backlog)
                    == outcome(ref.check_reservation, old_trace, app, grant, info.backlog))
        for app, share_ppm in overrides:
            quantum = trace.app_info[app].quantum
            assert (outcome(verify.check_share, trace, app, share_ppm, quantum)
                    == outcome(ref.check_share, old_trace, app, share_ppm, quantum))
        lag_cases.append(fired)
        if stray:
            return  # the old conservation check crashes or miscounts on these
        try:
            old = ref.build_report(old_trace, grant_of)
        except VerifyError as e:
            assert outcome(verify.build_report, trace, grant_of) == ("error", str(e))
            return
        new = verify.build_report(trace, grant_of)
        assert new.to_text() == old.to_text()
        assert new.conservation_ok == old.conservation_ok
        assert [fields(v) for v in new.violations] == [fields(v) for v in old.violations]

    compare()
    # the comparison is worth something only if the old check fires often
    assert sum(lag_cases) >= len(lag_cases) // 10


def test_one_sweep_per_leaf_matches_the_per_app_checks(monkeypatch):
    built = Counter()
    share_leaf = verify._share_leaf

    def counted(trace, node_path):
        built[node_path] += 1
        return share_leaf(trace, node_path)

    monkeypatch.setattr(verify, "_share_leaf", counted)
    lag_cases = []

    @settings(max_examples=150, deadline=None)
    @given(cases(holders=3))
    def compare(case):
        trace, grant_of, _, _ = case
        old_trace = Trace(trace.horizon, rows(trace), trace.per_app_service,
                          trace.idle_ticks, trace.app_info, trace.decisions)
        built.clear()
        new = verify.build_report(trace, grant_of)
        assert built == Counter(PATHS)  # each leaf swept once
        old = ref.build_report(old_trace, grant_of)
        assert new.to_text() == old.to_text()
        assert [fields(v) for v in new.violations] == [fields(v) for v in old.violations]
        per_app = sorted(
            (v for app, info in trace.app_info.items()
             for v in verify.check_share(trace, app, info.weight_ppm, info.quantum)),
            key=verify._sort_key,
        )
        lags = [v for v in new.violations if v.kind is ViolationKind.LAG_EXCEEDED]
        assert [fields(v) for v in lags] == [fields(v) for v in per_app]
        lag_cases.append(len({v.app_id for v in lags}) > 1)

    compare()
    # several holders of a leaf must fail in the same report, often enough
    assert sum(lag_cases) >= len(lag_cases) // 10
