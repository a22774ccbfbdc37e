"""Simulator behavior pinned tick by tick on small hand-checked scenarios."""

import csv
import gc
import io
import random
import tracemalloc
import weakref
from pathlib import Path

import pytest

from hiersched.cli import parse_scenario
from hiersched.contracts import Contract
from hiersched.deployment import DeploymentRequest
from hiersched.engine import (
    EngineError,
    EventKind,
    Simulation,
    Workload,
    WorkloadKind,
    run_scenario,
)

from helpers import (
    bench_scenario, edf_spec, fp_spec, rows, rr_spec, stride_spec, virtual_spec,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def cpu_bound():
    return Workload(WorkloadKind.CPU_BOUND)


def periodic(period, wcet, offset=0):
    return Workload(WorkloadKind.PERIODIC, period=period, wcet=wcet, offset=offset)


def bursty(on, off):
    return Workload(WorkloadKind.BURSTY, on=on, off=off)


def deploy(sim, tick, app_id, app_class, request, workload, scheduler=None):
    sim.deploy_at(
        tick,
        DeploymentRequest(app_id, app_class, request, scheduler=scheduler),
        workload,
    )


def ticks(trace, kind, app=None, path=None):
    return [
        e.tick
        for e in rows(trace)
        if e.kind is kind
        and (app is None or e.app == app)
        and (path is None or e.node_path == path)
    ]


class TestBasics:
    def test_no_apps_means_all_idle(self):
        sim = Simulation(horizon=50)
        trace = sim.run()
        assert trace.idle_ticks == 50
        assert ticks(trace, EventKind.IDLE) == list(range(50))
        assert trace.per_app_service == {}

    def test_cpu_bound_best_effort_owns_the_machine(self):
        sim = Simulation(horizon=500)
        deploy(sim, 0, "hog", "batch", Contract.be(), cpu_bound(),
               scheduler=rr_spec("rr0", Contract.be()))
        trace = sim.run()
        assert trace.per_app_service["hog"] == 500
        assert trace.idle_ticks == 0
        assert trace.app_info["hog"].backlog == [(0, 500)]

    def test_horizon_zero_is_empty(self):
        trace = Simulation(horizon=0).run()
        assert trace.events == []
        assert trace.idle_ticks == 0

    def test_run_twice_refused(self):
        sim = Simulation(horizon=5)
        sim.run()
        with pytest.raises(EngineError):
            sim.run()

    def test_a_run_frees_the_simulation_by_refcount(self):
        # the timeline holds bound actions; once applied they must not keep
        # the simulation alive in a cycle that only the collector frees
        sim = Simulation(horizon=20)
        deploy(sim, 0, "a", "batch", Contract.be(), cpu_bound(),
               scheduler=rr_spec("rr0", Contract.be()))
        sim.undeploy_at(10, "a")
        sim.run()
        freed = weakref.ref(sim)
        gc.disable()
        try:
            del sim
            assert freed() is None
        finally:
            gc.enable()

    def test_exactly_one_run_or_idle_per_tick(self):
        sim = Simulation(horizon=120, seed=3)
        deploy(sim, 0, "a", "batch", Contract.be(), cpu_bound(),
               scheduler=rr_spec("rr0", Contract.be()))
        deploy(sim, 10, "b", "batch", Contract.be(), bursty(on=7, off=5))
        sim.undeploy_at(90, "b")
        trace = sim.run()
        per_tick = {}
        for e in rows(trace):
            if e.kind in (EventKind.RUN, EventKind.IDLE):
                per_tick[e.tick] = per_tick.get(e.tick, 0) + 1
        assert per_tick == {t: 1 for t in range(120)}
        assert sum(trace.per_app_service.values()) + trace.idle_ticks == 120


class TestHardReservations:
    def test_two_hard_apps_and_best_effort_split(self):
        sim = Simulation(horizon=1000)
        deploy(sim, 0, "a1", "control", Contract.resbh(10, 100),
               periodic(100, 10), scheduler=edf_spec("edf0", Contract.resbh(30, 100)))
        deploy(sim, 0, "a2", "control", Contract.resbh(20, 100), periodic(100, 20))
        deploy(sim, 0, "be", "batch", Contract.be(), cpu_bound(),
               scheduler=rr_spec("rr0", Contract.be()))
        trace = sim.run()
        assert trace.per_app_service == {"a1": 100, "a2": 200, "be": 700}
        assert trace.idle_ticks == 0
        assert ticks(trace, EventKind.DEADLINE_MISS) == []
        # a2 shares the node a1 loaded
        assert trace.app_info["a1"].node_path == trace.app_info["a2"].node_path

    def test_exhaustion_blocks_then_replenish_reopens(self):
        sim = Simulation(horizon=300)
        deploy(sim, 0, "hard", "control", Contract.resbh(10, 100), cpu_bound(),
               scheduler=edf_spec("edf1", Contract.resbh(10, 100)))
        trace = sim.run()
        assert trace.per_app_service["hard"] == 30
        assert trace.idle_ticks == 270
        assert ticks(trace, EventKind.BUDGET_EXHAUSTED) == [9, 109, 209]
        assert ticks(trace, EventKind.REPLENISH) == [100, 200]
        assert ticks(trace, EventKind.RUN) == (
            list(range(10)) + list(range(100, 110)) + list(range(200, 210))
        )

    def test_mid_window_deploy_starts_with_full_budget(self):
        sim = Simulation(horizon=150)
        deploy(sim, 50, "late", "control", Contract.resbh(10, 100), cpu_bound(),
               scheduler=edf_spec("late_node", Contract.resbh(10, 100)))
        trace = sim.run()
        assert ticks(trace, EventKind.RUN) == (
            list(range(50, 60)) + list(range(100, 110))
        )
        assert ticks(trace, EventKind.REPLENISH) == [100]

    def test_earlier_period_end_preempts_attachment_order(self):
        sim = Simulation(horizon=60)
        deploy(sim, 0, "slow_app", "control", Contract.resbh(10, 100), cpu_bound(),
               scheduler=edf_spec("slow", Contract.resbh(10, 100)))
        deploy(sim, 0, "fast_app", "control", Contract.resbh(6, 60), cpu_bound(),
               scheduler=edf_spec("fast", Contract.resbh(6, 60)))
        trace = sim.run()
        first_run = next(e for e in rows(trace) if e.kind is EventKind.RUN)
        assert first_run.app == "fast_app"

    def test_a_nested_node_names_its_path_in_its_rows(self):
        # no scenario loads a VIRTUAL node, so mid is attached directly; the
        # deploy that loads edf0 under it makes the first compose of the tree
        sim = Simulation(horizon=300)
        mid = sim.h.attach_scheduler(0, virtual_spec("mid", Contract.resbh(10, 100)))
        sim.deploy_at(0, DeploymentRequest(
            "hard", "control", Contract.resbh(10, 100),
            scheduler=edf_spec("edf0", Contract.resbh(10, 100)), target_parent=mid,
        ), cpu_bound())
        trace = sim.run()
        assert trace.app_info["hard"].node_path == "root/mid/edf0"
        assert [(e.tick, e.node_path) for e in trace.events
                if e.kind is EventKind.BUDGET_EXHAUSTED] == [
            (t, path) for t in (9, 109, 209) for path in ("root/mid", "root/mid/edf0")
        ]
        assert [(e.tick, e.node_id, e.node_path) for e in trace.events
                if e.kind is EventKind.REPLENISH] == [
            (t, nid, path) for t in (100, 200)
            for nid, path in ((mid, "root/mid"), (mid + 1, "root/mid/edf0"))
        ]

    def test_wcet_beyond_budget_misses_and_carries_over(self):
        sim = Simulation(horizon=300)
        deploy(sim, 0, "dm", "control", Contract.resbh(10, 100),
               periodic(100, 20), scheduler=edf_spec("dmn", Contract.resbh(10, 100)))
        trace = sim.run()
        assert ticks(trace, EventKind.DEADLINE_MISS, app="dm") == [99, 199, 299]
        assert trace.per_app_service["dm"] == 30
        assert trace.app_info["dm"].backlog == [(0, 300)]
        assert trace.app_info["dm"].hard_capped is True

    def test_queued_jobs_drain_once_the_hog_leaves(self):
        # the hog is first in priority order and takes every tick until it
        # leaves at 35; by then four jobs of 4 ticks each are queued
        sim = Simulation(horizon=100)
        deploy(sim, 0, "hog", "batch", Contract.be(), cpu_bound(),
               scheduler=fp_spec("fp0", Contract.be()))
        deploy(sim, 0, "p", "batch", Contract.be(), periodic(10, 4))
        sim.undeploy_at(35, "hog")
        trace = sim.run()
        # 16 pending at 35, 11 left at 39 and 5 at 49; the queue empties at
        # 59, before the release at 60, and every later job meets its deadline
        assert ticks(trace, EventKind.DEADLINE_MISS, app="p") == [9, 19, 29, 39, 49]
        assert trace.per_app_service == {"hog": 35, "p": 40}
        assert ticks(trace, EventKind.RUN, app="p") == (
            list(range(35, 59)) + [t for k in (60, 70, 80, 90) for t in range(k, k + 4)]
        )
        assert trace.app_info["p"].backlog == [
            (0, 59), (60, 64), (70, 74), (80, 84), (90, 94),
        ]


class TestSoftReservations:
    def test_soft_budget_overflows_into_slack(self):
        sim = Simulation(horizon=200)
        deploy(sim, 0, "soft", "media", Contract.resbs(10, 100), cpu_bound(),
               scheduler=edf_spec("soft0", Contract.resbs(10, 100)))
        trace = sim.run()
        assert trace.per_app_service["soft"] == 200
        assert trace.idle_ticks == 0
        assert ticks(trace, EventKind.BUDGET_EXHAUSTED) == [9, 109]
        assert trace.app_info["soft"].hard_capped is False

    def test_fixed_priority_budgets_then_priority_slack(self):
        sim = Simulation(horizon=100)
        deploy(sim, 0, "f1", "media", Contract.resbs(10, 100), cpu_bound(),
               scheduler=fp_spec("fp0", Contract.resbs(20, 100)))
        deploy(sim, 0, "f2", "media", Contract.resbs(10, 100), cpu_bound())
        trace = sim.run()
        # budgets first (10 each), then all slack goes to the top priority
        assert trace.per_app_service == {"f1": 90, "f2": 10}
        assert trace.idle_ticks == 0


class TestStride:
    def test_two_to_one_shares_split_exactly(self):
        sim = Simulation(horizon=300)
        deploy(sim, 0, "big", "web", Contract.ps(400000), cpu_bound(),
               scheduler=stride_spec("st", Contract.ps(600000), quantum=1))
        deploy(sim, 0, "small", "web", Contract.ps(200000), cpu_bound())
        trace = sim.run()
        assert trace.per_app_service == {"big": 200, "small": 100}
        assert trace.idle_ticks == 0

    def test_lag_stays_bounded_at_every_prefix(self):
        sim = Simulation(horizon=600)
        deploy(sim, 0, "big", "web", Contract.ps(400000), cpu_bound(),
               scheduler=stride_spec("st", Contract.ps(600000), quantum=10))
        deploy(sim, 0, "small", "web", Contract.ps(200000), cpu_bound())
        trace = sim.run()
        got = {"big": 0, "small": 0}
        bound = 10 * 2  # quantum times group size
        for e in rows(trace):
            if e.kind is EventKind.RUN:
                got[e.app] += 1
                elapsed = got["big"] + got["small"]
                assert abs(got["big"] - elapsed * 2 / 3) <= bound
                assert abs(got["small"] - elapsed * 1 / 3) <= bound
        assert got == {"big": 400, "small": 200}

    def test_late_joiner_does_not_hoard_credit(self):
        sim = Simulation(horizon=400)
        deploy(sim, 0, "early", "web", Contract.ps(300000), cpu_bound(),
               scheduler=stride_spec("st", Contract.ps(600000), quantum=1))
        deploy(sim, 200, "late", "web", Contract.ps(300000), cpu_bound())
        trace = sim.run()
        # equal shares from tick 200 on: the late app gets half of the rest,
        # never a catch-up burst for the 200 ticks it missed
        assert trace.per_app_service["early"] == 300
        assert trace.per_app_service["late"] == 100


class TestBursty:
    def test_phase_offset_comes_from_the_seed(self):
        seed = 7
        sim = Simulation(horizon=200, seed=seed)
        deploy(sim, 0, "burst", "web", Contract.be(), bursty(on=10, off=10),
               scheduler=rr_spec("rr0", Contract.be()))
        trace = sim.run()
        offset = random.Random(seed).randrange(20)
        expected = sum(1 for t in range(200) if (t - offset) % 20 < 10)
        assert trace.per_app_service["burst"] == expected
        assert trace.idle_ticks == 200 - expected
        for start, end in trace.app_info["burst"].backlog:
            assert end - start <= 10


class TestTimeline:
    def test_deploy_and_undeploy_mid_run(self):
        sim = Simulation(horizon=100)
        deploy(sim, 0, "be0", "batch", Contract.be(), cpu_bound(),
               scheduler=rr_spec("rr0", Contract.be(), quantum=10))
        deploy(sim, 25, "be1", "batch", Contract.be(), cpu_bound())
        sim.undeploy_at(75, "be1")
        trace = sim.run()
        assert trace.per_app_service["be0"] + trace.per_app_service["be1"] == 100
        assert trace.idle_ticks == 0
        assert 20 <= trace.per_app_service["be1"] <= 30
        assert trace.app_info["be1"].backlog == [(25, 75)]
        assert trace.app_info["be1"].undeployed_at == 75
        assert ticks(trace, EventKind.UNDEPLOY, app="be1") == [75]

    def test_backlog_is_what_holds_when_each_tick_dispatches(self):
        # `q` runs out of work at the tick before each release, so its
        # backlog closes and reopens on one tick and stays one interval;
        # `gone` leaves on the tick it came and records none
        sim = Simulation(horizon=40)
        deploy(sim, 0, "q", "batch", Contract.be(), periodic(10, 10),
               scheduler=rr_spec("rr0", Contract.be()))
        deploy(sim, 5, "gone", "batch", Contract.be(), cpu_bound())
        sim.undeploy_at(5, "gone")
        trace = sim.run()
        assert trace.per_app_service == {"q": 40, "gone": 0}
        assert trace.app_info["q"].backlog == [(0, 40)]
        assert trace.app_info["gone"].backlog == []

    def test_deploy_event_precedes_run_on_its_tick(self):
        sim = Simulation(horizon=3)
        deploy(sim, 0, "a", "batch", Contract.be(), cpu_bound(),
               scheduler=rr_spec("rr0", Contract.be()))
        trace = sim.run()
        tick0 = [e.kind for e in rows(trace) if e.tick == 0]
        assert tick0 == [EventKind.DEPLOY, EventKind.RUN]

    def test_rejected_deploy_is_traced_but_not_admitted(self):
        sim = Simulation(horizon=10)
        deploy(sim, 0, "orphan", "web", Contract.be(), cpu_bound())
        trace = sim.run()
        event = next(e for e in trace.events if e.kind is EventKind.DEPLOY)
        assert event.detail == "REJECTED:NO_SERVICE_NO_SCHEDULER"
        assert "orphan" not in trace.per_app_service
        assert trace.idle_ticks == 10

    def test_undeploy_of_a_rejected_app_is_a_traced_no_op(self):
        sim = Simulation(horizon=10)
        deploy(sim, 0, "orphan", "web", Contract.be(), cpu_bound())
        sim.undeploy_at(5, "orphan")
        trace = sim.run()
        assert [(e.tick, e.kind, e.app, e.detail) for e in trace.events] == [
            (0, EventKind.DEPLOY, "orphan", "REJECTED:NO_SERVICE_NO_SCHEDULER"),
            (5, EventKind.UNDEPLOY, "orphan", "NOT_ADMITTED"),
        ]
        assert trace.app_info == {}
        assert trace.segments == [(0, 10, None)]

    def test_second_undeploy_of_a_rejected_app_is_refused(self):
        sim = Simulation(horizon=10)
        deploy(sim, 0, "orphan", "web", Contract.be(), cpu_bound())
        sim.undeploy_at(5, "orphan")
        sim.undeploy_at(6, "orphan")
        with pytest.raises(EngineError, match="unknown app 'orphan' at tick 6"):
            sim.run()

    def test_undeploy_of_an_app_admitted_after_a_rejection(self):
        # rejected, then admitted under the same id: the first undeploy
        # removes the app, and a second one finds nothing to undo
        sim = Simulation(horizon=10)
        deploy(sim, 0, "x", "batch", Contract.be(), cpu_bound())
        deploy(sim, 1, "x", "batch", Contract.be(), cpu_bound(),
               scheduler=rr_spec("rr0", Contract.be()))
        sim.undeploy_at(3, "x")
        sim.undeploy_at(5, "x")
        with pytest.raises(EngineError, match="unknown app 'x' at tick 5"):
            sim.run()

    def test_app_id_reuse_is_refused(self):
        sim = Simulation(horizon=50)
        deploy(sim, 0, "x", "batch", Contract.be(), cpu_bound(),
               scheduler=rr_spec("rr0", Contract.be()))
        sim.undeploy_at(10, "x")
        deploy(sim, 20, "x", "batch", Contract.be(), cpu_bound())
        with pytest.raises(EngineError, match="reused"):
            sim.run()

    def test_undeploy_of_unknown_app_is_refused(self):
        sim = Simulation(horizon=10)
        sim.undeploy_at(5, "ghost")
        with pytest.raises(EngineError, match="unknown app"):
            sim.run()

    def test_an_infeasible_undeploy_stops_the_run(self):
        class Cut(Simulation):
            """Cuts edf0's ask below its reservations without composing, so
            the recompose of the undeploy fails."""

            def _do_undeploy(self, t, app_id):
                self.h.update_parent_request(self.h.find_node_by_name("edf0"),
                                             Contract.resbh(15, 100))
                super()._do_undeploy(t, app_id)

        sim = Cut(horizon=10)
        deploy(sim, 0, "a1", "control", Contract.resbh(10, 100), cpu_bound(),
               scheduler=edf_spec("edf0", Contract.resbh(60, 100)))
        deploy(sim, 0, "a2", "control", Contract.resbh(20, 100), cpu_bound())
        sim.undeploy_at(5, "a1")
        with pytest.raises(EngineError, match="undeploy of 'a1' left the tree infeasible"):
            sim.run()

    @pytest.mark.parametrize("tick", [-1, 10, 12, 99])
    def test_undeploy_outside_the_horizon_is_refused(self, tick):
        sim = Simulation(horizon=10)
        with pytest.raises(EngineError, match=rf"tick {tick} outside the horizon \[0, 10\)"):
            sim.undeploy_at(tick, "ghost")

    @pytest.mark.parametrize("tick", [-1, 10, 12])
    def test_deploy_outside_the_horizon_is_refused(self, tick):
        sim = Simulation(horizon=10)
        with pytest.raises(EngineError, match=rf"tick {tick} outside the horizon \[0, 10\)"):
            deploy(sim, tick, "late", "batch", Contract.be(), cpu_bound(),
                   scheduler=rr_spec("rr0", Contract.be()))

    def test_last_tick_of_the_horizon_is_accepted(self):
        sim = Simulation(horizon=10)
        deploy(sim, 9, "late", "batch", Contract.be(), cpu_bound(),
               scheduler=rr_spec("rr0", Contract.be()))
        trace = sim.run()
        assert [(t, app) for t, app, _ in trace.decisions] == [(9, "late")]
        assert trace.per_app_service["late"] == 1


class TestNextEvent:
    @staticmethod
    def _counted_run(monkeypatch):
        """Run hard_guarantees.json; return it, its root dispatch ticks and
        its trace."""
        scenario = parse_scenario((SCENARIOS / "hard_guarantees.json").read_text())
        calls = []
        dispatch = Simulation.dispatch

        def counted(self, node_id, tick):
            calls.append(tick)
            return dispatch(self, node_id, tick)

        monkeypatch.setattr(Simulation, "dispatch", counted)
        return scenario, calls, run_scenario(scenario)

    def test_root_dispatches_only_at_decision_points(self, monkeypatch):
        scenario, calls, trace = self._counted_run(monkeypatch)
        assert len(calls) <= scenario.horizon // 5
        ticked = [e.tick for e in rows(trace)
                  if e.kind in (EventKind.RUN, EventKind.IDLE)]
        assert ticked == list(range(scenario.horizon))

    def test_trace_keeps_one_segment_per_dispatch_at_most(self, monkeypatch):
        # RUN and IDLE are stored run-length: a return to per-tick rows
        # would show up here as 100,000 records
        scenario, calls, trace = self._counted_run(monkeypatch)
        assert scenario.horizon == 100_000
        assert len(trace.segments) <= min(len(calls), 4_000)
        assert not any(e.kind in (EventKind.RUN, EventKind.IDLE) for e in trace.events)


class TestDeterminism:
    @staticmethod
    def _mixed(seed):
        sim = Simulation(horizon=400, seed=seed)
        deploy(sim, 0, "hard", "control", Contract.resbh(20, 100),
               periodic(100, 20), scheduler=edf_spec("edf0", Contract.resbh(20, 100)))
        deploy(sim, 0, "burst", "web", Contract.be(), bursty(on=13, off=7),
               scheduler=rr_spec("rr0", Contract.be()))
        deploy(sim, 50, "hog", "batch", Contract.be(), cpu_bound())
        sim.undeploy_at(300, "hog")
        return sim.run()

    def test_same_seed_same_bytes(self):
        a = self._mixed(5)
        b = self._mixed(5)
        assert a.to_csv() == b.to_csv()
        assert a.per_app_service == b.per_app_service

    def test_csv_quotes_commas_and_quotes(self):
        app, name = 'a,"b', 's,"x'
        sim = Simulation(horizon=250)
        deploy(sim, 0, app, "control", Contract.resbh(10, 100), cpu_bound(),
               scheduler=edf_spec(name, Contract.resbh(10, 100)))
        trace = sim.run()
        text = trace.to_csv()
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["tick", "event", "app", "node_path", "detail"])
        for e in rows(trace):
            writer.writerow([e.tick, e.kind.value, e.app, e.node_path, e.detail])
        assert text == expected.getvalue()
        read = list(csv.reader(io.StringIO(text)))
        assert len(read) == 1 + len(rows(trace))
        runs = [r for r in read if r[1] == "RUN"]
        assert len(runs) == 30
        assert all(r[2:] == [app, f"root/{name}", ""] for r in runs)
        assert ["100", "REPLENISH", "", f"root/{name}", ""] in read

    @pytest.mark.parametrize("idle", [False, True], ids=["scenario", "one-segment"])
    def test_csv_peaks_near_its_text(self, idle):
        # the text grows in place a block at a time: no whole-text buffer
        # beside it, nor a list of strs for one long segment's ticks
        if idle:
            trace = Simulation(horizon=100_000).run()
            assert len(trace.segments) == 1
        else:
            trace = run_scenario(parse_scenario(
                (SCENARIOS / "hard_guarantees.json").read_text(encoding="utf-8")))
        assert trace.horizon >= 100_000
        tracemalloc.start()
        try:
            text = trace.to_csv()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.isascii()
        assert peak <= 1.25 * len(text)

    def test_csv_holds_one_row_buffer_at_a_time(self, tmp_path):
        # each `csv.writer` allocates a 128 KiB row buffer at its first row:
        # the RUN rows after each tick are made before the writer of the
        # other rows, one writer at a time, so two buffers are never live
        # together. A short trace of many apps shows it
        trace = run_scenario(bench_scenario("mass_admission", 1, tmp_path))
        tracemalloc.start()
        try:
            text = trace.to_csv()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace.app_info) > 100
        assert peak - len(text) < 192 * 1024

    def test_csv_shape(self):
        trace = self._mixed(5)
        lines = trace.to_csv().splitlines()
        assert lines[0] == "tick,event,app,node_path,detail"
        run_line = next(l for l in lines if ",RUN," in l)
        assert run_line.count(",") == 4
