"""The verifier against engine faults: one-method engine mutants.

The mutants and their scenarios are in `tests/mutants.py`. Each test patches
the engine with one of them through `monkeypatch` and runs a scenario that
shows its fault; the real engine reads clean on every such scenario. A
mutant the verifier catches must be reported with the exact violation kind,
app and window. The faults the verifier cannot see today, `node_over` and
`starve` with `hide_backlog`, are strict xfails that name the ROADMAP item
that mends them.
"""

import json

import pytest

from hiersched.cli import parse_scenario
from hiersched.engine import run_scenario
from hiersched.verify import ViolationKind, build_report

import mutants
from helpers import bench_scenario
from mutants import APPCAP, NODECAP, hide_backlog, node_over, starve

WORKLOADS = ("churn", "long_horizon", "mass_admission")


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """The benchmark's workload of a name at seed 1, made once per module."""
    made = {}

    def get(name):
        if name not in made:
            made[name] = bench_scenario(name, 1, tmp_path_factory.mktemp(name))
        return made[name]

    return get


# workload -> (UNDER_SUPPLY rows, the first of them) at seed 1 under starve
STARVED = {
    "long_horizon": (98, "UNDER_SUPPLY app=hard_1 window=[300,400) expected=10 observed=0"),
    "churn": (9, "UNDER_SUPPLY app=hard_0 window=[300,400)"),
}

# mutant -> workload -> every violation row of its report at seed 1
EXACT = {
    "starve": {"mass_admission": []},  # 120 ticks: no full window is starved
    "skew": {
        "long_horizon": [
            "LAG_EXCEEDED app=stride_hi window=[36,197) expected=152/3 observed=61",
            "LAG_EXCEEDED app=stride_lo window=[36,197) expected=76/3 observed=15",
        ],
        "churn": [],
        "mass_admission": [],
    },
    "lazy": {
        "long_horizon": [],
        "churn": [
            "NON_CONSERVING app=- window=[57,58) expected=0 observed=1",
            "NON_CONSERVING app=- window=[357,364) expected=0 observed=1",
        ],
        "mass_admission": ["NON_CONSERVING app=- window=[7,9) expected=0 observed=1"],
    },
}


def under_supply(report):
    return [v.line() for v in report.violations if v.kind is ViolationKind.UNDER_SUPPLY]


@pytest.mark.parametrize("name", WORKLOADS)
def test_the_real_engine_reads_clean(name, workload):
    assert build_report(run_scenario(workload(name))).violations == ()


@pytest.mark.parametrize("name", sorted(STARVED))
def test_starve_is_reported_as_under_supply(name, workload, monkeypatch):
    starve(monkeypatch)
    report = build_report(run_scenario(workload(name)))
    count, first = STARVED[name]
    assert {v.kind for v in report.violations} == {ViolationKind.UNDER_SUPPLY}
    rows = under_supply(report)
    assert len(rows) == count
    assert rows[0].startswith(first)


@pytest.mark.parametrize("mutant, name", [(m, n) for m in EXACT for n in sorted(EXACT[m])])
def test_a_mutant_is_reported_row_for_row(mutant, name, workload, monkeypatch):
    getattr(mutants, mutant)(monkeypatch)
    report = build_report(run_scenario(workload(name)))
    assert [v.line() for v in report.violations] == EXACT[mutant][name]


def test_nodecap_runs_clean_within_its_leaf_grant():
    trace = run_scenario(parse_scenario(json.dumps(NODECAP)))
    assert trace.per_app_service["s"] == 300
    assert build_report(trace).violations == ()


def test_appcap_runs_clean_within_its_own_grant():
    trace = run_scenario(parse_scenario(json.dumps(APPCAP)))
    assert trace.per_app_service["h"] == 100
    assert build_report(trace).violations == ()


def test_app_over_is_reported_as_over_cap(monkeypatch):
    # 10 ticks in the first window, which no refill opens, then 15 in each
    mutants.app_over(monkeypatch)
    trace = run_scenario(parse_scenario(json.dumps(APPCAP)))
    assert trace.per_app_service["h"] == 145
    assert [v.line() for v in build_report(trace).violations] == [
        f"OVER_CAP app=h window=[{a},{a + 100}) expected=10 observed=15"
        for a in range(100, 1000, 100)
    ]


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
    starve(monkeypatch)
    hide_backlog(monkeypatch)
    rows = under_supply(build_report(run_scenario(scenario)))
    count, first = STARVED["long_horizon"]
    assert len(rows) == count and rows[0] == first
