"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the verdict
lines while the suite runs). Tolerances are pinned inside each test; the
window checks use tolerance zero where an exact count is required.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from hiersched.cli import parse_scenario, run
from hiersched.contracts import (
    PPM,
    Contract,
    ContractError,
    ServiceClass,
    format_contract,
    parse_contract,
    satisfies,
    utilization,
)
from hiersched.deployment import DeploymentRequest, Outcome, RejectReason, deploy
from hiersched.engine import Simulation, Workload, WorkloadKind, run_scenario
from hiersched.hierarchy import Hierarchy, new_hierarchy
from hiersched.verify import ViolationKind, build_report

from helpers import canonical, edf_spec, rr_spec, stride_spec
from oracle import worst_case_supply

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@contextmanager
def verdict(n, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {n}: {label}", flush=True)
        raise
    print(f"[PASS] criterion {n}: {label}", flush=True)


def test_criterion_1_contract_roundtrip_and_mutation():
    with verdict(1, "10^4 contract round-trips, 10^3 mutations parse or "
                    "fail with a positioned error"):
        rng = random.Random(101)
        texts = []
        for _ in range(10_000):
            pick = rng.randrange(6)
            if pick == 0:
                c = Contract.be()
            elif pick == 1:
                c = Contract.null()
            elif pick == 2:
                c = Contract.all_cpu()
            elif pick == 3:
                c = Contract.ps(rng.randint(1, PPM))
            else:
                period = rng.randint(1, 10**6)
                budget = rng.randint(1, period)
                c = (Contract.resbh if pick == 4 else Contract.resbs)(budget, period)
            text = format_contract(c)
            texts.append(text)
            back = parse_contract(text)
            assert back == c
            assert format_contract(back) == text

        alphabet = "RESBHSPALNU0123456789[],x "
        for _ in range(1_000):
            base = list(rng.choice(texts))
            for _ in range(rng.randint(1, 3)):
                op = rng.randrange(3)
                if op == 0:
                    base.insert(rng.randrange(len(base) + 1), rng.choice(alphabet))
                elif base:
                    pos = rng.randrange(len(base))
                    if op == 1:
                        del base[pos]
                    else:
                        base[pos] = rng.choice(alphabet)
            mutated = "".join(base)
            try:
                parse_contract(mutated)
            except ContractError as e:
                assert isinstance(e.position, int)
                assert 0 <= e.position <= len(mutated)
                assert str(e)


def test_criterion_2_satisfies_never_overclaims_supply():
    with verdict(2, "10^3 random reservation pairs: satisfies=true implies "
                    "supply dominance out to four times both periods summed"):
        rng = random.Random(202)
        horizon_cap = 4 * (40 + 40)
        curves = {}

        def curve(budget, period):
            key = (budget, period)
            if key not in curves:
                curves[key] = worst_case_supply(budget, period, horizon_cap)
            return curves[key]

        trues = 0
        conservative = 0
        for _ in range(1_000):
            yp = rng.randint(1, 40)
            xp = rng.randint(1, yp)
            yr = rng.randint(1, 40)
            xr = rng.randint(1, yr)
            maker = rng.choice((Contract.resbh, Contract.resbs))
            granted = maker(xp, yp)
            requested = maker(xr, yr)
            window = 4 * (yp + yr)
            dominated = bool(
                (curve(xp, yp)[:window + 1] >= curve(xr, yr)[:window + 1]).all()
            )
            if satisfies(granted, requested):
                trues += 1
                assert dominated, (granted, requested)
            elif dominated:
                conservative += 1
        assert trues >= 100  # the check is not vacuous
        # negatives that still dominate inside this window carry a real
        # violation at some later time; the exact check is allowed to say no
        assert conservative < 1_000


def test_criterion_3_hard_windows_exact_over_long_run():
    with verdict(3, "three hard reservations deliver their exact budget in "
                    "every aligned window over 10^5 ticks, best effort "
                    "gets exactly the rest"):
        scenario = parse_scenario((SCENARIOS / "hard_guarantees.json").read_text())
        trace = run_scenario(scenario)
        report = build_report(trace)
        assert report.ok
        assert report.conservation_ok

        windows = {a: [0] * (trace.horizon // 100) for a in trace.app_info}
        for start, end, app in trace.segments:
            for t in range(start, end):
                if app is not None:
                    windows[app][t // 100] += 1
        budgets = {"hard_a": 10, "hard_b": 20, "hard_c": 30, "grinder": 40}
        for app, per_window in windows.items():
            assert all(n == budgets[app] for n in per_window), app
        assert trace.per_app_service["grinder"] == 40_000
        assert trace.idle_ticks == 0


def test_criterion_4_satisfiable_request_attaches_to_existing_service():
    with verdict(4, "a request an existing service satisfies attaches "
                    "without loading anything"):
        h = new_hierarchy()
        first = deploy(h, DeploymentRequest(
            "video1", "video", Contract.resbs(20, 100),
            scheduler=edf_spec("edf_m", Contract.resbs(50, 100)),
        ))
        assert first.outcome is Outcome.LOADED_NEW
        before = h.node_count()

        second = deploy(h, DeploymentRequest(
            "video2", "video", Contract.resbs(20, 100),
        ))
        assert second.outcome is Outcome.ATTACHED_EXISTING
        assert second.node_id == first.node_id
        assert h.node_count() == before
        assert "outcome=ATTACHED_EXISTING" in second.record()


def test_criterion_5_hard_guarantees_survive_randomized_churn():
    with verdict(5, "50 random deploy/undeploy events: hard awards never "
                    "change and hard apps see zero violations"):
        rng = random.Random(707)
        # every generated deploy is kept within capacity the same way the
        # composer counts it, so each one must be admitted and every
        # undeploy targets a live app
        events = [("deploy", 1, "anchor_be", Contract.be(),
                   Workload(WorkloadKind.CPU_BOUND),
                   rr_spec("rr_shared", Contract.be()))]
        tick = 1
        live = []
        hard_node_util = {}
        hard_load = Fraction(0)
        counter = 0
        for _ in range(50):
            tick += rng.randint(1, 40)
            if live and rng.random() < 0.3:
                victim = live.pop(rng.randrange(len(live)))
                events.append(("undeploy", tick, victim))
                hard_load -= hard_node_util.pop(victim, Fraction(0))
                continue
            counter += 1
            kind = rng.choice(("hard", "hard", "be", "ps"))
            app = f"{kind}{counter}"
            if kind == "hard":
                budget = rng.randint(5, 15)
                node_util = Fraction(budget + 5, 100)
                if hard_load + node_util > Fraction(7, 10):
                    kind = "be"
                else:
                    hard_load += node_util
                    hard_node_util[app] = node_util
                    req = Contract.resbh(budget, 100)
                    workload = Workload(WorkloadKind.PERIODIC,
                                        period=100, wcet=budget)
                    sched = edf_spec(f"edf{counter}",
                                     Contract.resbh(budget + 5, 100))
            if kind == "be":
                app = f"be{counter}"
                req = Contract.be()
                workload = Workload(WorkloadKind.CPU_BOUND)
                sched = None  # attaches to the anchor's scheduler
            elif kind == "ps":
                req = Contract.ps(rng.randint(50_000, 150_000))
                workload = Workload(WorkloadKind.CPU_BOUND)
                sched = stride_spec(f"st{counter}", Contract.ps(200_000))
            events.append(("deploy", tick, app, req, workload, sched))
            live.append(app)

        sim = Simulation(horizon=tick + 300, seed=1)
        for ev in events:
            if ev[0] == "deploy":
                _, t, app, req, workload, sched = ev
                sim.deploy_at(t, DeploymentRequest(app, app[:2], req, scheduler=sched),
                              workload)
            else:
                sim.undeploy_at(ev[1], ev[2])
        trace = sim.run()

        assert all(d.outcome is not Outcome.REJECTED
                   for _, _, d in trace.decisions)
        admitted = {app for _, app, d in trace.decisions}
        assert len(admitted) >= 15
        hard_awards = {}
        for _, app, d in trace.decisions:
            if d.outcome is Outcome.REJECTED:
                continue
            if d.awarded.service is ServiceClass.RESBH:
                assert d.outcome is not Outcome.DEGRADED
                hard_awards[app] = d.awarded
        assert len(hard_awards) >= 5
        for app, award in hard_awards.items():
            # the award recorded at admission is still the award at the end
            assert trace.app_info[app].awarded == award

        report = build_report(trace)
        assert report.conservation_ok
        hard_violations = [v for v in report.violations if v.app_id in hard_awards]
        assert hard_violations == []
        assert report.ok


def test_criterion_6_degradation_is_exact_and_rejection_rolls_back():
    with verdict(6, "0.6 hard + 300000/300000 shares degrade to exactly "
                    "200000 ppm each; an infeasible hard add is rejected "
                    "with a byte-exact rollback"):
        h = new_hierarchy()
        d1 = deploy(h, DeploymentRequest(
            "hard", "control", Contract.resbh(60, 100),
            scheduler=edf_spec("edf_h", Contract.resbh(60, 100)),
        ))
        d2 = deploy(h, DeploymentRequest(
            "ps_a", "web", Contract.ps(300_000),
            scheduler=stride_spec("st1", Contract.ps(300_000)),
        ))
        d3 = deploy(h, DeploymentRequest(
            "ps_b", "web", Contract.ps(300_000),
            scheduler=stride_spec("st2", Contract.ps(300_000)),
        ))
        assert d1.outcome is Outcome.LOADED_NEW
        assert d2.outcome is Outcome.LOADED_NEW
        assert d3.outcome is Outcome.DEGRADED

        st1 = h.node(h.find_node_by_name("st1"))
        st2 = h.node(h.find_node_by_name("st2"))
        assert st1.granted == Contract.ps(200_000)
        assert st2.granted == Contract.ps(200_000)
        assert st1.degraded and st2.degraded
        assert h.app_slot("ps_a").awarded == Contract.ps(200_000)
        assert h.app_slot("ps_b").awarded == Contract.ps(200_000)

        frozen = canonical(h)
        d4 = deploy(h, DeploymentRequest(
            "hard2", "control", Contract.resbh(50, 100),
            scheduler=edf_spec("edf_x", Contract.resbh(50, 100)),
        ))
        assert d4.outcome is Outcome.REJECTED
        assert d4.reason is RejectReason.INFEASIBLE
        assert canonical(h) == frozen


def test_criterion_7_demand_propagation_enlarges_the_ancestor():
    with verdict(7, "propagating RESBH[30,100] under an ancestor holding "
                    "RESBH[20,100] asks for exactly RESBH[50,100]; pushing "
                    "past full capacity stays infeasible"):
        h = new_hierarchy()
        n1 = h.attach_scheduler(Hierarchy.ROOT_ID,
                                edf_spec("edf1", Contract.resbh(20, 100)))
        n2 = h.attach_scheduler(Hierarchy.ROOT_ID,
                                edf_spec("edf2", Contract.resbh(30, 100)))
        h.attach_application(n1, "a1", Contract.resbh(20, 100))
        h.attach_application(n2, "a2", Contract.resbh(30, 100))
        assert h.compose().feasible

        asks = h.propagate_demand(n1, Contract.resbh(30, 100))
        assert asks == [(n1, Contract.resbh(50, 100))]
        for nid, contract in asks:
            h.update_parent_request(nid, contract)
        assert h.compose().feasible
        assert h.node(n1).granted == Contract.resbh(50, 100)

        # local 0.2 plus a global 0.6 asks for 0.8; with the sibling's 0.3
        # the tree needs 1.1 of one CPU and must stay infeasible
        asks = h.propagate_demand(n1, Contract.resbh(60, 100))
        assert asks == [(n1, Contract.resbh(80, 100))]
        for nid, contract in asks:
            h.update_parent_request(nid, contract)
        result = h.compose()
        assert not result.feasible


def test_criterion_8_stride_shares_split_exactly_two_to_one():
    with verdict(8, "2:1 shares over 300 quanta land on exactly 200:100 "
                    "with lag never past quantum times group size"):
        scenario = parse_scenario((SCENARIOS / "stride.json").read_text())
        trace = run_scenario(scenario)
        assert trace.per_app_service == {"big": 200, "small": 100}

        quantum = scenario.schedulers["st"].quantum
        bound = quantum * 2
        got = {"big": 0, "small": 0}
        runners = [app for start, end, app in trace.segments
                   for _ in range(start, end) if app is not None]
        for app in runners:
            got[app] += 1
            elapsed = got["big"] + got["small"]
            assert abs(got["big"] - elapsed * 2 / 3) <= bound
            assert abs(got["small"] - elapsed * 1 / 3) <= bound

        assert build_report(trace).ok


def test_criterion_9_every_scenario_replays_byte_identical(tmp_path):
    with verdict(9, "two runs of every bundled scenario produce "
                    "byte-identical trace and report files"):
        files = sorted(SCENARIOS.glob("*.json"))
        assert len(files) == 6
        for path in files:
            results = []
            for attempt in range(2):
                trace_out = tmp_path / f"{path.stem}.{attempt}.csv"
                report_out = tmp_path / f"{path.stem}.{attempt}.txt"
                code = run([
                    "--scenario", str(path),
                    "--trace-out", str(trace_out),
                    "--report-out", str(report_out),
                    "--allow-reject",
                ])
                results.append(
                    (code, trace_out.read_bytes(), report_out.read_bytes())
                )
            assert results[0] == results[1], path.name
            assert results[0][0] == 0, path.name
