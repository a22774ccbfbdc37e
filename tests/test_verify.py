"""Verifier checks pinned against clean engine traces and tampered copies."""

from collections import Counter

import pytest

from hiersched import verify
from hiersched.contracts import Contract
from hiersched.deployment import DeploymentRequest
from hiersched.engine import (
    AppTraceInfo,
    EventKind,
    SimEvent,
    Simulation,
    Workload,
    WorkloadKind,
    run_scenario,
)
from hiersched.verify import (
    GuaranteeReport,
    VerifyError,
    ViolationKind,
    build_report,
    check_conservation,
    check_reservation,
    check_share,
)

from helpers import (
    bench_scenario,
    edf_spec,
    replace_rows,
    rr_spec,
    stride_spec,
    trace_from_rows,
)


def deploy(sim, tick, app_id, app_class, request, workload, scheduler=None):
    sim.deploy_at(
        tick,
        DeploymentRequest(app_id, app_class, request, scheduler=scheduler),
        workload,
    )


def hard_solo_trace(horizon=500):
    sim = Simulation(horizon=horizon)
    deploy(sim, 0, "hard", "control", Contract.resbh(10, 100),
           Workload(WorkloadKind.CPU_BOUND),
           scheduler=edf_spec("edf0", Contract.resbh(10, 100)))
    return sim.run()


def be_info(app_id, backlog, path="root/leaf"):
    return AppTraceInfo(
        app_id=app_id, node_id=1, node_path=path, leaf_policy="ROUND_ROBIN",
        requested=Contract.be(), awarded=Contract.be(), weight_ppm=0,
        quantum=10, deployed_at=0, undeployed_at=None, hard_capped=False,
        backlog=backlog,
    )


def ps_info(app_id, weight, backlog, path="root/st", quantum=10):
    return AppTraceInfo(
        app_id=app_id, node_id=1, node_path=path, leaf_policy="STRIDE",
        requested=Contract.ps(weight), awarded=Contract.ps(weight),
        weight_ppm=weight, quantum=quantum, deployed_at=0, undeployed_at=None,
        hard_capped=False, backlog=backlog,
    )


def with_award(trace, app_id, grant):
    """A copy of `trace` in which `app_id`'s record holds the award `grant`."""
    info = trace.app_info[app_id]._replace(awarded=grant)
    return trace._replace(app_info={**trace.app_info, app_id: info})


class TestReservation:
    def test_clean_hard_trace_has_no_violations(self):
        trace = hard_solo_trace()
        got = check_reservation(trace, "hard")
        assert got == []

    def test_single_window_deficit_is_named(self):
        trace = hard_solo_trace()
        victim = {200, 201, 202}
        trace = replace_rows(
            trace,
            lambda e: e.kind is EventKind.RUN and e.tick in victim,
            lambda e: SimEvent(e.tick, EventKind.IDLE),
        )
        got = check_reservation(trace, "hard")
        assert len(got) == 1
        v = got[0]
        assert v.kind is ViolationKind.UNDER_SUPPLY
        assert v.window == (200, 300)
        assert v.expected == 10
        assert v.observed == 7

    def test_running_past_the_cap_is_flagged(self):
        trace = hard_solo_trace()
        extra = {10, 11, 12}
        trace = replace_rows(
            trace,
            lambda e: e.kind is EventKind.IDLE and e.tick in extra,
            lambda e: SimEvent(e.tick, EventKind.RUN, app="hard",
                               node_path="root/edf0"),
        )
        got = check_reservation(trace, "hard")
        assert [v.kind for v in got] == [ViolationKind.OVER_CAP]
        assert got[0].window == (0, 100)
        assert got[0].observed == 13

    def test_raising_the_bar_underflows_every_window(self):
        # same trace, but demand one more tick than was ever awarded
        trace = with_award(hard_solo_trace(), "hard", Contract.resbh(11, 100))
        got = check_reservation(trace, "hard")
        assert len(got) == 5
        assert all(v.kind is ViolationKind.UNDER_SUPPLY for v in got)
        assert all(v.observed == 10 for v in got)

    def test_windows_without_full_demand_are_skipped(self):
        sim = Simulation(horizon=500)
        deploy(sim, 0, "sporadic", "control", Contract.resbh(10, 100),
               Workload(WorkloadKind.PERIODIC, period=200, wcet=5),
               scheduler=edf_spec("edf0", Contract.resbh(10, 100)))
        trace = sim.run()
        got = check_reservation(trace, "sporadic")
        assert got == []

    def test_soft_overflow_is_not_over_cap(self):
        sim = Simulation(horizon=200)
        deploy(sim, 0, "soft", "media", Contract.resbs(10, 100),
               Workload(WorkloadKind.CPU_BOUND),
               scheduler=edf_spec("soft0", Contract.resbs(10, 100)))
        trace = sim.run()
        assert trace.per_app_service["soft"] == 200
        got = check_reservation(trace, "soft")
        assert got == []

    def test_demand_is_read_in_tick_order_whatever_the_record_holds(self):
        # idle over [0, 300) with a RESBS[10,100] award: each window that a
        # demand interval covers is short, in whatever order the record
        # lists the intervals
        info = be_info("s", [(200, 300), (0, 100)])._replace(awarded=Contract.resbs(10, 100))
        trace = trace_from_rows(300, [SimEvent(t, EventKind.IDLE) for t in range(300)], [info])
        got = check_reservation(trace, "s")
        assert [(v.kind, v.window, v.observed) for v in got] == [
            (ViolationKind.UNDER_SUPPLY, (0, 100), 0),
            (ViolationKind.UNDER_SUPPLY, (200, 300), 0),
        ]

    def test_non_reservation_grant_is_refused(self):
        trace = with_award(hard_solo_trace(horizon=10), "hard", Contract.be())
        with pytest.raises(VerifyError):
            check_reservation(trace, "hard")

    def test_unknown_app_is_refused(self):
        trace = trace_from_rows(1, [SimEvent(0, EventKind.IDLE)], [])
        with pytest.raises(VerifyError):
            check_reservation(trace, "ghost")


class TestShare:
    def test_clean_stride_trace_has_no_lag(self):
        sim = Simulation(horizon=300)
        deploy(sim, 0, "big", "web", Contract.ps(400000),
               Workload(WorkloadKind.CPU_BOUND),
               scheduler=stride_spec("st", Contract.ps(600000), quantum=1))
        deploy(sim, 0, "small", "web", Contract.ps(200000),
               Workload(WorkloadKind.CPU_BOUND))
        trace = sim.run()
        assert check_share(trace, trace.app_info["big"].node_path) == []

    def test_competitor_change_resets_the_segment(self):
        sim = Simulation(horizon=400)
        deploy(sim, 0, "early", "web", Contract.ps(300000),
               Workload(WorkloadKind.CPU_BOUND),
               scheduler=stride_spec("st", Contract.ps(600000), quantum=1))
        deploy(sim, 200, "late", "web", Contract.ps(300000),
               Workload(WorkloadKind.CPU_BOUND))
        trace = sim.run()
        assert check_share(trace, trace.app_info["early"].node_path) == []

    def test_starved_share_holder_is_flagged(self):
        events = [SimEvent(t, EventKind.RUN, app="small", node_path="root/st")
                  for t in range(60)]
        trace = trace_from_rows(60, events, [
            ps_info("big", 400000, [(0, 60)]),
            ps_info("small", 200000, [(0, 60)]),
        ])
        got = [v for v in check_share(trace, "root/st") if v.app_id == "big"]
        assert len(got) == 1
        v = got[0]
        assert v.kind is ViolationKind.LAG_EXCEEDED
        assert v.observed == 0
        assert v.window[0] == 0
        # flagged at the first tick the deficit clears 2 quanta of slack
        assert v.window[1] == 31
        assert v.line() == (
            "LAG_EXCEEDED app=big window=[0,31) expected=62/3 observed=0"
        )

    def test_tolerance_counts_the_backlogged_members_only(self):
        # "gone" held a share on the leaf but left before "a" and "b" began.
        # Over [10, 30) the bound is quantum * 2 members; counting every
        # share-holder ever seen would allow quantum * 3. "a" waits while
        # "b" runs six ticks: its lag reaches 3, between the two bounds.
        # Then "a" catches up, and the two take turns.
        rows = ([SimEvent(t, EventKind.RUN, app="gone") for t in range(10)]
                + [SimEvent(t, EventKind.RUN, app="b") for t in range(10, 16)]
                + [SimEvent(t, EventKind.RUN, app="a") for t in range(16, 22)]
                + [SimEvent(t, EventKind.RUN, app="ab"[t % 2]) for t in range(22, 30)])
        trace = trace_from_rows(30, rows, [
            ps_info("gone", 500000, [(0, 10)], quantum=1),
            ps_info("a", 500000, [(10, 30)], quantum=1),
            ps_info("b", 500000, [(10, 30)], quantum=1),
        ])
        got = [v for v in check_share(trace, "root/st") if v.app_id == "a"]
        assert [v.line() for v in got] == [
            "LAG_EXCEEDED app=a window=[10,15) expected=5/2 observed=0"
        ]

    # A holder's due at a crossing is never a whole number of ticks: there
    # it is its service plus quantum * members plus a fraction below one,
    # as its own weight is below the members' summed weight.

    def test_a_waiting_holder_is_flagged_when_a_peer_runs(self):
        # "small" runs, "big" waits: the heap's entry for "big" is popped
        rows = [SimEvent(t, EventKind.RUN, app="small") for t in range(60)]
        trace = trace_from_rows(60, rows, [
            ps_info("big", 400000, [(0, 60)], quantum=1),
            ps_info("small", 200000, [(0, 60)], quantum=1),
        ])
        got = [v for v in check_share(trace, "root/st") if v.app_id == "big"]
        assert [v.line() for v in got] == [
            "LAG_EXCEEDED app=big window=[0,4) expected=8/3 observed=0"
        ]

    def test_a_running_holder_is_flagged_in_closed_form(self):
        # "a" runs, "b" waits: the runner's crossing in closed form
        rows = [SimEvent(t, EventKind.RUN, app="a") for t in range(10)]
        trace = trace_from_rows(10, rows, [
            ps_info("a", 100000, [(0, 10)], quantum=1),
            ps_info("b", 100000, [(0, 10)], quantum=1),
        ])
        got = [v for v in check_share(trace, "root/st") if v.app_id == "a"]
        assert [v.line() for v in got] == [
            "LAG_EXCEEDED app=a window=[0,5) expected=5/2 observed=5"
        ]

    def test_a_backlog_in_any_form_gives_the_pieces_of_its_normal_form(self):
        # "a"'s backlog comes unsorted, overlapping, touching, empty and past
        # both ends of the horizon; clipped to [0, 40) and merged it is
        # [(0, 12), (20, 40)]
        messy = [(30, 50), (8, 12), (-5, 3), (20, 26), (25, 31), (2, 8),
                 (15, 15), (45, 60), (7, 4)]
        runs = [SimEvent(t, EventKind.RUN, app="ab"[t % 2]) for t in range(40)]

        def leaf(backlog):
            trace = trace_from_rows(40, runs, [
                ps_info("a", 300000, backlog), ps_info("b", 200000, [(5, 25)]),
            ])
            return verify._share_leaf(trace, "root/st")

        assert leaf(messy) == leaf([(0, 12), (20, 40)])
        assert leaf(messy).pieces == [
            (0, 5, {"a"}, 300000), (5, 12, {"a", "b"}, 500000),
            (12, 20, {"b"}, 200000), (20, 25, {"a", "b"}, 500000),
            (25, 40, {"a"}, 300000),
        ]

    def test_bad_share_or_quantum_is_refused(self):
        held = ps_info("a", 500000, [(0, 1)], quantum=0)

        def trace(info):
            return trace_from_rows(1, [SimEvent(0, EventKind.RUN, app="a")], [info])

        assert check_share(trace(held), "root/st") == []
        with pytest.raises(VerifyError, match="holds no share"):
            check_share(trace(held._replace(weight_ppm=0)), "root/st")
        with pytest.raises(VerifyError, match="quantum"):
            check_share(trace(held._replace(quantum=-1)), "root/st")


class TestConservation:
    def test_two_runs_in_one_tick(self):
        events = [
            SimEvent(0, EventKind.RUN, app="a", node_path="root/leaf"),
            SimEvent(0, EventKind.RUN, app="a", node_path="root/leaf"),
            SimEvent(1, EventKind.IDLE),
        ]
        trace = trace_from_rows(2, events, [])
        with pytest.raises(VerifyError, match="tick 0 "):
            check_conservation(trace)

    def test_missing_tick(self):
        trace = trace_from_rows(2, [SimEvent(0, EventKind.IDLE)], [])
        got = check_conservation(trace)
        assert [(v.window, v.observed) for v in got] == [((1, 2), 0)]

    def test_row_past_the_horizon_is_refused(self):
        events = [SimEvent(0, EventKind.IDLE), SimEvent(2, EventKind.IDLE)]
        trace = trace_from_rows(2, events, [])
        with pytest.raises(VerifyError, match="tick 2 "):
            check_conservation(trace)

    def test_row_before_tick_zero_is_refused(self):
        events = [
            SimEvent(-1, EventKind.RUN, app="a", node_path="root/leaf"),
            SimEvent(0, EventKind.IDLE),
            SimEvent(1, EventKind.IDLE),
        ]
        trace = trace_from_rows(2, events, [])
        with pytest.raises(VerifyError, match="tick -1 "):
            check_conservation(trace)

    def test_idle_while_unconstrained_work_waits(self):
        events = [
            SimEvent(0, EventKind.RUN, app="a", node_path="root/leaf"),
            SimEvent(1, EventKind.IDLE),
            SimEvent(2, EventKind.IDLE),
            SimEvent(3, EventKind.RUN, app="a", node_path="root/leaf"),
        ]
        trace = trace_from_rows(4, events, [be_info("a", [(0, 4)])])
        got = check_conservation(trace)
        assert [(v.kind, v.window) for v in got] == [
            (ViolationKind.NON_CONSERVING, (1, 3)),
        ]

    def test_empty_demand_interval_wastes_nothing(self):
        trace = trace_from_rows(4, [], [be_info("a", [(2, 2)])])
        trace = trace._replace(segments=[(0, 4, None)])  # one idle segment around it
        assert check_conservation(trace) == []

    def test_idle_under_a_hard_cap_is_legitimate(self):
        trace = hard_solo_trace(horizon=200)
        assert trace.idle_ticks == 180
        assert check_conservation(trace) == []


class TestMalformedSegments:
    """Segments that overlap, are out of order, are empty or leave [0,
    horizon) never come from the engine; the checks that read the trace as
    a tiling refuse them, naming the first tick at fault."""

    CASES = {  # segments over a horizon of 4, and the tick at fault
        "out_of_order": ([(2, 4, "a"), (0, 2, None)], 0),
        "overlapping": ([(0, 3, "a"), (2, 4, None)], 2),
        "empty": ([(0, 2, "a"), (2, 2, None), (2, 4, None)], 2),
        "before_tick_zero": ([(-1, 4, "a")], -1),
        "past_the_horizon": ([(0, 2, "a"), (2, 5, None)], 4),
    }
    CHECKS = {
        "check_share": lambda trace: check_share(trace, "root/st"),
        "check_conservation": check_conservation,
        "build_report": build_report,
    }

    @pytest.mark.parametrize("check", sorted(CHECKS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refused_naming_the_tick(self, case, check):
        segments, tick = self.CASES[case]
        trace = trace_from_rows(4, [], [ps_info("a", 500000, [(0, 4)], quantum=1)])
        trace = trace._replace(segments=segments)
        with pytest.raises(VerifyError, match=f"tick {tick} "):
            self.CHECKS[check](trace)

    # two more cases, with their own segments and horizon: a RUN segment
    # over three windows and more, and one past the horizon
    LONGER = {
        "spans_three_windows": ([(0, 1, None), (1, 11, "a"), (11, 14, None)], 14),
        "crosses_the_horizon": ([(0, 6, None), (6, 12, "a")], 10),
    }
    # the ticks "a" runs in each aligned window of 4, a tick counted once
    # per segment over it and only inside [0, horizon)
    SERVED = {
        "before_tick_zero": [4], "empty": [2], "out_of_order": [2],
        "overlapping": [3], "past_the_horizon": [2],
        "spans_three_windows": [3, 4, 3, 0], "crosses_the_horizon": [0, 2, 2],
    }

    @pytest.mark.parametrize("case", sorted(SERVED))
    def test_reservation_counts_each_segment(self, case):
        if case in self.LONGER:
            segments, horizon = self.LONGER[case]
        else:
            segments, horizon = self.CASES[case][0], 4
        trace = trace_from_rows(horizon, [], [ps_info("a", 500000, [(0, horizon)])])
        trace = with_award(trace._replace(segments=segments), "a", Contract.resbh(1, 4))
        got = check_reservation(trace, "a")
        # under a budget of 1 and full demand, each window that served more
        # is an OVER_CAP, and each full one that served none an UNDER_SUPPLY
        expected = []
        for k, served in enumerate(self.SERVED[case]):
            a, b = 4 * k, min(4 * k + 4, horizon)
            if served > 1:
                expected.append((ViolationKind.OVER_CAP, (a, b), served))
            elif served == 0 and b == a + 4:
                expected.append((ViolationKind.UNDER_SUPPLY, (a, b), 0))
        assert [(v.kind, v.window, v.observed) for v in got] == expected


class TestReport:
    def test_empty_trace_reports_clean(self):
        trace = Simulation(horizon=20).run()
        report = build_report(trace)
        assert report.ok
        assert report.conservation_ok
        assert report.to_text() == "violations=0 conservation=ok\n"

    def test_single_deficit_report_text(self):
        trace = hard_solo_trace()
        victim = {200, 201, 202}
        trace = replace_rows(
            trace,
            lambda e: e.kind is EventKind.RUN and e.tick in victim,
            lambda e: SimEvent(e.tick, EventKind.IDLE),
        )
        report = build_report(trace)
        assert not report.ok
        assert report.conservation_ok
        assert report.to_text() == (
            "violations=1 conservation=ok\n"
            "UNDER_SUPPLY app=hard window=[200,300) expected=10 observed=7\n"
        )

    def test_mixed_clean_scenario_reports_clean(self):
        sim = Simulation(horizon=1000)
        deploy(sim, 0, "a1", "control", Contract.resbh(10, 100),
               Workload(WorkloadKind.PERIODIC, period=100, wcet=10),
               scheduler=edf_spec("edf0", Contract.resbh(30, 100)))
        deploy(sim, 0, "a2", "control", Contract.resbh(20, 100),
               Workload(WorkloadKind.PERIODIC, period=100, wcet=20))
        deploy(sim, 0, "be", "batch", Contract.be(),
               Workload(WorkloadKind.CPU_BOUND),
               scheduler=rr_spec("rr0", Contract.be()))
        trace = sim.run()
        report = build_report(trace)
        assert report.ok
        assert report.conservation_ok

    def test_violations_come_out_sorted(self):
        trace = hard_solo_trace()
        trace = replace_rows(
            trace,
            lambda e: e.kind is EventKind.RUN and e.tick in {400, 201},
            lambda e: SimEvent(e.tick, EventKind.IDLE),
        )
        report = build_report(trace)
        assert [v.window for v in report.violations] == [(200, 300), (400, 500)]

    def test_two_unusable_holders_refuse_the_first_in_app_order(self):
        # "a" sits on the leaf whose path sorts last: the refusal follows
        # the apps, not the leaves
        trace = trace_from_rows(2, [SimEvent(0, EventKind.IDLE), SimEvent(1, EventKind.IDLE)], [
            ps_info("a", 500000, [(0, 2)], path="root/y")._replace(weight_ppm=0),
            ps_info("b", 500000, [(0, 2)], path="root/x", quantum=-1),
        ])
        with pytest.raises(VerifyError, match="^app 'a' holds no share on its leaf$"):
            build_report(trace)
        with pytest.raises(VerifyError, match="^quantum must be >= 0$"):
            check_share(trace, "root/x")

    # the calls to check_conservation / check_reservation / check_share that
    # make the report of each workload at seed 1: one per reservation holder
    # and one per leaf with a PS holder
    PUBLIC_CALLS = {"long_horizon": (1, 4, 1), "mass_admission": (1, 53, 4), "churn": (1, 5, 2)}

    @pytest.mark.parametrize("name", sorted(PUBLIC_CALLS))
    def test_the_report_is_made_of_the_public_checks(self, name, tmp_path, monkeypatch):
        trace = run_scenario(bench_scenario(name, 1, tmp_path))
        calls = Counter()
        names = ("check_conservation", "check_reservation", "check_share")
        for check in names:
            def counted(*args, check=check, fn=getattr(verify, check)):
                calls[check] += 1
                return fn(*args)

            monkeypatch.setattr(verify, check, counted)
        assert build_report(trace).violations == ()
        assert tuple(calls[check] for check in names) == self.PUBLIC_CALLS[name]
