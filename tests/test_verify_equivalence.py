"""The sweeping verifier gives the same answers as the tick-walking one.

`verify_reference` keeps the earlier checks unchanged. Random small traces
have one or two leaves, up to five apps, weights including 0, backlogs
touching tick 0 and the horizon, IDLE ticks, ticks no row covers, RUN rows
by non-peers and strangers, segments of several ticks, and record weights
edited to other values, 0 and -1 included. Each app's `awarded` is its
drawn grant. The traces are drawn well formed, as the engine writes them:
at most one RUN or IDLE row per tick, and segments in tick order without
overlap, inside the horizon. On them every `check_*` result and every
report must agree with the reference field for field; the reference reads
the trace as per-tick rows (`helpers.rows`), gets the grants as `{app:
info.awarded}`, and checks a leaf's shares with one `check_share` call per
PS holder, in app order.

About half the traces also get a copy made malformed on purpose, by a
duplicate row, an overlapping or out-of-order segment, or stray rows
outside the horizon. On that copy `check_share`, `check_conservation` and
`build_report` must refuse the trace, while `check_reservation`, which
counts each segment on its own, must still agree with the reference. The
shipped scenarios all verify clean, so the test also asserts that the
traces do produce LAG_EXCEEDED, and that enough malformed copies are
refused.

`check_reservation` reads an app's demand sorted, so on the same traces
with each record's backlog shuffled it must still agree with the reference,
which tests each window against every interval.

`build_report` builds each share leaf once for every holder it checks
there. On traces with two STRIDE leaves of three or four share-holders
each, all granted PS, its report must equal the reference's, its
LAG_EXCEEDED violations must be those of the reference's per-app
`check_share` calls, and it must sweep each leaf once.
"""

from collections import Counter
from itertools import groupby

from hypothesis import given, settings
from hypothesis import strategies as st

import verify_reference as ref
from hiersched import verify
from hiersched.contracts import Contract, ServiceClass
from hiersched.engine import AppTraceInfo, Trace
from hiersched.verify import VerifyError, ViolationKind

from helpers import rows

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


# how a copy of the trace is made malformed
MALFORMED = ["duplicate", "overlap", "order", "stray"]


@st.composite
def cases(draw, holders=0):
    """A well-formed trace, a malformed copy of it or None, and (app, weight)
    edits of the trace's records. With `holders`, both leaves get `holders`
    or one more share-holders each, every one granted PS, and there is no
    copy."""
    horizon = draw(st.integers(1, 40))
    if holders:
        paths = PATHS
        placed = [p for p in paths for _ in range(draw(st.integers(holders, holders + 1)))]
    else:
        paths = PATHS[:draw(st.integers(1, 2))]
        placed = [None] * draw(st.integers(1, 5))
    n = len(placed)
    infos = []
    for k, path in enumerate(placed):
        weight = draw(st.sampled_from(WEIGHTS[1:] if holders else WEIGHTS))
        path = path or draw(st.sampled_from(paths))
        infos.append(AppTraceInfo(
            app_id=f"a{k}", node_id=1 + PATHS.index(path),
            node_path=path, leaf_policy="STRIDE", requested=Contract.be(),
            awarded=Contract.ps(weight) if holders else draw(grants(weight)),
            weight_ppm=weight, quantum=draw(st.integers(0, 2)), deployed_at=0,
            undeployed_at=None, hard_capped=draw(st.booleans()),
            backlog=draw(backlogs(horizon)),
        ))
    # RUN by an app (at least half the rows), IDLE (None) or RUN by a
    # stranger: a one-tick row at every tick but one in ten, then up to five
    # stretches of up to eight ticks, each one segment over the rows it
    # replaces. A cell is the (start, row) of the segment that holds its tick.
    apps = [f"a{k}" for k in range(n)]
    row = st.one_of(st.sampled_from(apps), st.sampled_from([None, "ghost"] + apps))
    cells = [(t, draw(row)) if draw(st.integers(0, 9)) else None for t in range(horizon)]
    for _ in range(draw(st.integers(0, 5))):
        start = draw(st.integers(0, horizon - 1))
        end = draw(st.integers(start + 1, min(horizon, start + 8)))
        cells[start:end] = [(start, draw(row))] * (end - start)
    segments = []
    t = 0
    for cell, ticks in groupby(cells):
        end = t + len(list(ticks))
        if cell is not None:
            segments.append((t, end, cell[1]))
        t = end
    trace = Trace(horizon, [], {}, sum(e - s for s, e, app in segments if app is None),
                  {i.app_id: i for i in infos}, [], segments)
    malformed = None
    if not holders and draw(st.booleans()):
        how = draw(st.sampled_from(MALFORMED))
        bad = list(segments)
        if how == "duplicate" and bad:
            # a second row at a tick a segment already covers, just after it
            i = draw(st.integers(0, len(bad) - 1))
            t = draw(st.integers(bad[i][0], bad[i][1] - 1))
            bad.insert(i + 1, (t, t + 1, draw(row)))
        elif how == "overlap" and bad:
            # a segment that starts inside another one, anywhere in the list
            s, e, _ = bad[draw(st.integers(0, len(bad) - 1))]
            start = draw(st.integers(s, e - 1))
            end = draw(st.integers(start + 1, min(horizon, start + 8)))
            bad.insert(draw(st.integers(0, len(bad))), (start, end, draw(row)))
        elif how == "order" and len(bad) > 1:
            i = draw(st.integers(0, len(bad) - 2))
            bad[i:i + 2] = bad[i + 1], bad[i]
        else:  # stray rows, also where too few segments allow the others
            bad = [(-1, 0, "a0")] + bad + [(horizon, horizon + 1, "a0")]
        malformed = Trace(horizon, [], {}, trace.idle_ticks, trace.app_info, [], bad)
    edits = draw(st.lists(st.tuples(
        st.sampled_from([i.app_id for i in infos]),
        st.integers(-1, 1_000_000),
    ), max_size=3))
    return trace, malformed, edits


def old(trace):
    """The trace as the reference reads it: RUN and IDLE as per-tick rows."""
    return Trace(trace.horizon, rows(trace), trace.per_app_service,
                 trace.idle_ticks, trace.app_info, trace.decisions)


def reservations_agree(trace):
    old_trace = old(trace)
    for app, info in trace.app_info.items():
        assert (outcome(verify.check_reservation, trace, app)
                == outcome(ref.check_reservation, old_trace, app, info.awarded, info.backlog))


def ref_shares(old_trace, node_path):
    """The reference's `check_share` for each PS holder of leaf `node_path`,
    in app order, as one outcome: the first refusal, or every violation in
    report order."""
    found = []
    for app, info in sorted(old_trace.app_info.items()):
        if info.node_path == node_path and info.awarded.service is ServiceClass.PS:
            try:
                found += ref.check_share(old_trace, app, info.weight_ppm, info.quantum)
            except VerifyError as e:
                return "error", str(e)
    return outcome(sorted, found, key=verify._sort_key)


def shares(trace, node_path):
    """`verify.check_share` on leaf `node_path`, its violations in report
    order."""
    return outcome(lambda: sorted(verify.check_share(trace, node_path),
                                  key=verify._sort_key))


def refused(check, *args):
    got = outcome(check, *args)
    return got[0] == "error" and "segment at tick" in got[1]


def test_sweep_matches_the_tick_walk():
    lag_cases, refusals = [], []

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(cases())
    def compare(case):
        trace, malformed, edits = case
        old_trace = old(trace)
        reservations_agree(trace)
        fired = False
        for path in PATHS:
            old_share = ref_shares(old_trace, path)
            assert shares(trace, path) == old_share
            fired |= old_share[0] == "ok" and any(
                f[0] is ViolationKind.LAG_EXCEEDED for f in old_share[1])
        for app, weight in edits:
            info = trace.app_info[app]._replace(weight_ppm=weight)
            edited = trace._replace(app_info={**trace.app_info, app: info})
            assert shares(edited, info.node_path) == ref_shares(old(edited), info.node_path)
        lag_cases.append(fired)
        assert (outcome(verify.check_conservation, trace)
                == outcome(ref.check_conservation, old_trace))
        grant_of = {app: info.awarded for app, info in trace.app_info.items()}
        try:
            old_report = ref.build_report(old_trace, grant_of)
        except VerifyError as e:
            assert outcome(verify.build_report, trace) == ("error", str(e))
        else:
            new = verify.build_report(trace)
            assert new.to_text() == old_report.to_text()
            assert new.conservation_ok == old_report.conservation_ok
            assert ([fields(v) for v in new.violations]
                    == [fields(v) for v in old_report.violations])
        refusals.append(malformed is not None)
        if malformed is not None:
            reservations_agree(malformed)
            assert refused(verify.check_conservation, malformed)
            assert refused(verify.build_report, malformed)
            for path in PATHS:
                assert refused(verify.check_share, malformed, path)

    compare()
    # the comparison is worth something only if the old check fires often
    assert sum(lag_cases) >= len(lag_cases) // 10
    # and the refusal only if malformed copies come up often
    assert sum(refusals) >= len(refusals) // 10


def test_one_sweep_per_leaf_matches_the_per_app_checks(monkeypatch):
    built = Counter()
    share_leaf = verify._share_leaf

    def counted(trace, node_path):
        built[node_path] += 1
        return share_leaf(trace, node_path)

    monkeypatch.setattr(verify, "_share_leaf", counted)
    lag_cases = []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cases(holders=3))
    def compare(case):
        trace, _, _ = case
        built.clear()
        new = verify.build_report(trace)
        assert built == Counter(PATHS)  # each leaf swept once
        old_trace = old(trace)
        grant_of = {app: info.awarded for app, info in trace.app_info.items()}
        old_report = ref.build_report(old_trace, grant_of)
        assert new.to_text() == old_report.to_text()
        assert ([fields(v) for v in new.violations]
                == [fields(v) for v in old_report.violations])
        per_app = sorted(
            (v for app, info in trace.app_info.items()
             for v in ref.check_share(old_trace, app, info.weight_ppm, info.quantum)),
            key=verify._sort_key,
        )
        lags = [v for v in new.violations if v.kind is ViolationKind.LAG_EXCEEDED]
        assert [fields(v) for v in lags] == [fields(v) for v in per_app]
        lag_cases.append(len({v.app_id for v in lags}) > 1)

    compare()
    # several holders of a leaf must fail in the same report, often enough
    assert sum(lag_cases) >= len(lag_cases) // 10


def test_reservations_read_a_shuffled_backlog_as_the_tick_walk_does():
    reordered = []

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(cases(), st.randoms(use_true_random=False))
    def compare(case, rnd):
        trace, _, _ = case
        infos = {}
        for app, info in trace.app_info.items():
            backlog = list(info.backlog)
            rnd.shuffle(backlog)
            infos[app] = info._replace(backlog=backlog)
            reordered.append(info.awarded.is_reservation() and backlog != info.backlog)
        reservations_agree(trace._replace(app_info=infos))

    compare()
    # the comparison is worth something only if reservation backlogs often
    # come out of order
    assert sum(reordered) >= len(reordered) // 20
