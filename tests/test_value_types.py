"""The package's value types behave as values.

`Contract`, `SchedulerSpec`, `DeploymentRequest` and `Workload` print as
`Name(field=value, ...)`, compare and hash by their field values, survive
pickle and deepcopy, refuse any assignment or deletion, and validate anew
when `_replace` changes a field. The constructor faults at the end are the
ones no other test reaches.

Every record type of the package, the four above and the twelve records it
returns or builds on the way, keeps its exact `_fields`, `_field_defaults`
and `repr`; an instance equals, hashes as (where its fields hash) and pickles
to the plain tuple of its values, and `_replace` keeps its type.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from hiersched.cli import Scenario, TimelineEntry
from hiersched.contracts import Contract, ContractError, ServiceClass, parse_contract
from hiersched.deployment import (
    DeploymentDecision,
    DeploymentRequest,
    Outcome,
    RejectReason,
)
from hiersched.engine import (
    AppTraceInfo,
    EngineError,
    EventKind,
    SimEvent,
    Trace,
    Workload,
    WorkloadKind,
)
from hiersched.hierarchy import (
    FeasibilityResult,
    Grant,
    HierarchyError,
    PolicyKind,
    Rejection,
    SchedulerSpec,
)
from hiersched.verify import GuaranteeReport, Violation, ViolationKind, _ShareLeaf


def edf0():
    return SchedulerSpec("edf0", PolicyKind.EDF_RESERVATION, Contract.resbh(3, 10),
                         quantum=5)


def contract():
    return Contract.resbh(1, 10)


def request():
    return DeploymentRequest("a", "ctl", Contract.ps(250000), edf0(), "mid")


def periodic():
    return Workload(WorkloadKind.PERIODIC, period=10, wcet=2, offset=1)


def bursty():
    return Workload(WorkloadKind.BURSTY, on=2, off=3)


_RESBH_3_10 = ("Contract(service=<ServiceClass.RESBH: 'RESBH'>, budget=3, "
               "period=10, share=None)")
_EDF0 = ("SchedulerSpec(name='edf0', policy=<PolicyKind.EDF_RESERVATION: "
         f"'EDF_RESERVATION'>, parent_request={_RESBH_3_10}, quantum=5)")

REPRS = [
    (contract, "Contract(service=<ServiceClass.RESBH: 'RESBH'>, budget=1, "
               "period=10, share=None)"),
    (edf0, _EDF0),
    (request, "DeploymentRequest(app_id='a', app_class='ctl', "
              "request=Contract(service=<ServiceClass.PS: 'PS'>, budget=None, "
              f"period=None, share=250000), scheduler={_EDF0}, "
              "target_parent='mid')"),
    (periodic, "Workload(kind=<WorkloadKind.PERIODIC: 'PERIODIC'>, period=10, "
               "wcet=2, offset=1, on=None, off=None)"),
    (bursty, "Workload(kind=<WorkloadKind.BURSTY: 'BURSTY'>, period=None, "
             "wcet=None, offset=0, on=2, off=3)"),
]
MAKERS = [make for make, _ in REPRS]
IDS = ["contract", "spec", "request", "periodic", "bursty"]


def field_values(x):
    return tuple(getattr(x, f) for f in type(x)._fields)


@pytest.mark.parametrize("make, text", REPRS, ids=IDS)
def test_repr_names_each_field(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_equal_and_hashed_by_value(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(field_values(a))
    assert len({a, b}) == 1


def test_values_that_differ_are_unequal():
    assert Contract.resbh(1, 10) != Contract.resbh(1, 11)
    assert Contract.resbh(1, 10) != Contract.resbs(1, 10)
    assert edf0() != edf0()._replace(quantum=6)
    assert periodic() != periodic()._replace(offset=0)


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_pickle_and_deepcopy_round_trip(make):
    x = make()
    for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert copied == x and type(copied) is type(x)
        assert repr(copied) == repr(x)


def test_a_contract_with_its_utilization_cached_round_trips():
    c = Contract.resbh(1, 10)
    assert c.utilization == Fraction(1, 10)
    for copied in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
        assert copied == c and copied.utilization == Fraction(1, 10)


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(make):
    x = make()
    before = repr(x)
    for field in type(x)._fields:
        with pytest.raises(AttributeError):
            setattr(x, field, 1)
        with pytest.raises(AttributeError):
            delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert repr(x) == before


def test_replace_validates_a_contract_anew():
    assert contract()._replace(budget=2) == Contract.resbh(2, 10)
    with pytest.raises(ContractError, match="budget must be positive"):
        contract()._replace(budget=0)


def test_replace_validates_a_scheduler_spec_anew():
    assert edf0()._replace(quantum=7).quantum == 7
    with pytest.raises(HierarchyError, match="quantum must be >= 1"):
        edf0()._replace(quantum=0)


def test_replace_validates_a_workload_anew():
    assert periodic()._replace(wcet=3).wcet == 3
    with pytest.raises(EngineError, match=r"PERIODIC needs 0 < wcet <= period"):
        periodic()._replace(wcet=0)


def test_replace_of_a_request_keeps_the_other_fields():
    moved = request()._replace(target_parent=4)
    assert moved.target_parent == 4
    assert field_values(moved)[:4] == field_values(request())[:4]


@pytest.mark.parametrize("args, message", [
    ((ServiceClass.RESBH, 1, 10, 5), "RESBH takes no share"),
    ((ServiceClass.PS,), "PS needs an integer share"),
    ((ServiceClass.PS, None, None, "5"), "PS needs an integer share"),
    ((ServiceClass.BE, 1), "BE takes no parameters"),
], ids=["resbh-share", "ps-none", "ps-str", "be-budget"])
def test_contract_parameter_faults(args, message):
    with pytest.raises(ContractError, match=message):
        Contract(*args)


def test_parse_contract_needs_a_string():
    with pytest.raises(ContractError, match="contract must be a string"):
        parse_contract(5)


@pytest.mark.parametrize("kwargs, message", [
    (dict(kind=WorkloadKind.PERIODIC, period=10), "PERIODIC needs period and wcet"),
    (dict(kind=WorkloadKind.PERIODIC, wcet=2), "PERIODIC needs period and wcet"),
    (dict(kind=WorkloadKind.PERIODIC, period=10, wcet=2, offset=-1),
     "offset must be >= 0"),
    (dict(kind=WorkloadKind.BURSTY, on=0, off=1), "BURSTY needs on > 0 and off > 0"),
    (dict(kind=WorkloadKind.BURSTY, on=1), "BURSTY needs on > 0 and off > 0"),
], ids=["no-wcet", "no-period", "offset", "on-zero", "no-off"])
def test_workload_faults(kwargs, message):
    with pytest.raises(EngineError, match=message):
        Workload(**kwargs)


def test_a_scheduler_needs_a_name():
    with pytest.raises(HierarchyError, match="scheduler name must be non-empty"):
        SchedulerSpec("", PolicyKind.VIRTUAL, Contract.all_cpu())


_PS = "Contract(service=<ServiceClass.PS: 'PS'>, budget=None, period=None, share={})"
_RESBS = ("Contract(service=<ServiceClass.RESBS: 'RESBS'>, budget=1, period={}, "
          "share=None)")

# (type, its _fields, its _field_defaults, an instance, that instance's repr)
SHAPES = [
    (Contract, "service budget period share", {}, contract(), REPRS[0][1]),
    (SchedulerSpec, "name policy parent_request quantum", {}, edf0(), _EDF0),
    (DeploymentRequest, "app_id app_class request scheduler target_parent",
     {"scheduler": None, "target_parent": None}, request(), REPRS[2][1]),
    (Workload, "kind period wcet offset on off", {}, periodic(), REPRS[3][1]),
    (Grant, "holder requested awarded degraded", {},
     Grant("a", Contract.ps(250000), Contract.ps(125000), True),
     f"Grant(holder='a', requested={_PS.format(250000)}, "
     f"awarded={_PS.format(125000)}, degraded=True)"),
    (Rejection, "holder reason", {}, Rejection(3, "hard demand exceeds capacity"),
     "Rejection(holder=3, reason='hard demand exceeds capacity')"),
    (FeasibilityResult, "feasible grants rejected", {"rejected": None},
     FeasibilityResult(True, []),
     "FeasibilityResult(feasible=True, grants=[], rejected=None)"),
    (DeploymentDecision, "outcome node_id awarded reason detail grants",
     {"node_id": None, "awarded": None, "reason": None, "detail": "", "grants": ()},
     DeploymentDecision(Outcome.REJECTED, reason=RejectReason.INFEASIBLE,
                        detail="no room"),
     "DeploymentDecision(outcome=<Outcome.REJECTED: 'REJECTED'>, node_id=None, "
     "awarded=None, reason=<RejectReason.INFEASIBLE: 'INFEASIBLE'>, "
     "detail='no room', grants=())"),
    (SimEvent, "tick kind app node_id node_path detail",
     {"app": "", "node_id": None, "node_path": "", "detail": ""},
     SimEvent(5, EventKind.RUN, "a", 1, "root/edf0"),
     "SimEvent(tick=5, kind=<EventKind.RUN: 'RUN'>, app='a', node_id=1, "
     "node_path='root/edf0', detail='')"),
    (AppTraceInfo, "app_id node_id node_path leaf_policy requested awarded "
                   "weight_ppm quantum deployed_at undeployed_at hard_capped backlog",
     {}, AppTraceInfo("a", 1, "root/edf0", "EDF_RESERVATION", Contract.resbs(1, 10),
                      Contract.resbs(1, 20), 0, 10, 0, None, False, [(0, 5)]),
     "AppTraceInfo(app_id='a', node_id=1, node_path='root/edf0', "
     f"leaf_policy='EDF_RESERVATION', requested={_RESBS.format(10)}, "
     f"awarded={_RESBS.format(20)}, weight_ppm=0, quantum=10, deployed_at=0, "
     "undeployed_at=None, hard_capped=False, backlog=[(0, 5)])"),
    (Violation, "kind app_id window expected observed", {},
     Violation(ViolationKind.UNDER_SUPPLY, "a", (0, 10), 3, 2),
     "Violation(kind=<ViolationKind.UNDER_SUPPLY: 'UNDER_SUPPLY'>, app_id='a', "
     "window=(0, 10), expected=3, observed=2)"),
    (GuaranteeReport, "violations conservation_ok", {}, GuaranteeReport((), True),
     "GuaranteeReport(violations=(), conservation_ok=True)"),
    (_ShareLeaf, "runners pieces", {}, _ShareLeaf([], []),
     "_ShareLeaf(runners=[], pieces=[])"),
    (TimelineEntry, "tick action app_id request workload",
     {"request": None, "workload": None}, TimelineEntry(0, "undeploy", "a"),
     "TimelineEntry(tick=0, action='undeploy', app_id='a', request=None, "
     "workload=None)"),
    (Trace, "horizon events per_app_service idle_ticks app_info decisions segments",
     {"segments": ()}, Trace(10, [], {"a": 4}, 6, {}, [], [(0, 4, "a"), (4, 10, None)]),
     "Trace(horizon=10, events=[], per_app_service={'a': 4}, idle_ticks=6, app_info={}, "
     "decisions=[], segments=[(0, 4, 'a'), (4, 10, None)])"),
    (Scenario, "horizon seed schedulers timeline", {}, Scenario(100, 0, {}, ()),
     "Scenario(horizon=100, seed=0, schedulers={}, timeline=())"),
]
SHAPE_IDS = [kind.__name__ for kind, *_ in SHAPES]


@pytest.mark.parametrize("kind, fields, defaults, x, text", SHAPES, ids=SHAPE_IDS)
def test_a_record_keeps_its_fields_defaults_and_repr(kind, fields, defaults, x, text):
    assert kind._fields == tuple(fields.split())
    assert kind._field_defaults == defaults
    assert type(x) is kind
    assert repr(x) == text


@pytest.mark.parametrize("kind, fields, defaults, x, text", SHAPES, ids=SHAPE_IDS)
def test_a_record_is_the_tuple_of_its_values(kind, fields, defaults, x, text):
    values = field_values(x)
    assert x == values and tuple(x) == values and len(x) == len(kind._fields)
    try:
        expected = hash(values)
    except TypeError:  # a list or dict field
        expected = None
    if expected is not None:
        assert hash(x) == expected
    for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert copied == x and type(copied) is kind and repr(copied) == text
    last = kind._fields[-1]
    moved = x._replace(**{last: getattr(x, last)})
    assert moved == x and type(moved) is kind
    with pytest.raises(AttributeError):
        x.extra = 1
