"""Hierarchical CPU scheduler deployment framework.

Service contracts with exact arithmetic, a composable scheduler hierarchy,
an admission/deployment protocol, a deterministic tick simulator, guarantee
verification over traces, and a JSON scenario CLI.
"""

from .contracts import (
    MAX_PERIOD,
    PPM,
    Contract,
    ContractError,
    ServiceClass,
    format_contract,
    parse_contract,
    satisfies,
    utilization,
)
from .hierarchy import (
    POLICY_PROVIDES,
    FeasibilityResult,
    Grant,
    Hierarchy,
    HierarchyError,
    PolicyKind,
    Rejection,
    SchedulerSpec,
    new_hierarchy,
)
from .deployment import (
    DeploymentDecision,
    DeploymentError,
    DeploymentRequest,
    Outcome,
    RejectReason,
    deploy,
    find_compatible_service,
    undeploy,
)
from .engine import (
    AppTraceInfo,
    EngineError,
    EventKind,
    SimEvent,
    Simulation,
    Trace,
    Workload,
    WorkloadKind,
    run_scenario,
)
from .verify import (
    GuaranteeReport,
    VerifyError,
    Violation,
    ViolationKind,
    build_report,
    check_conservation,
    check_reservation,
    check_share,
)
from .cli import (
    Scenario,
    ScenarioError,
    TimelineEntry,
    parse_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "PPM",
    "MAX_PERIOD",
    "ServiceClass",
    "Contract",
    "ContractError",
    "parse_contract",
    "format_contract",
    "utilization",
    "satisfies",
    "PolicyKind",
    "POLICY_PROVIDES",
    "SchedulerSpec",
    "Hierarchy",
    "HierarchyError",
    "Grant",
    "Rejection",
    "FeasibilityResult",
    "new_hierarchy",
    "DeploymentRequest",
    "DeploymentDecision",
    "DeploymentError",
    "Outcome",
    "RejectReason",
    "deploy",
    "undeploy",
    "find_compatible_service",
    "Workload",
    "WorkloadKind",
    "Simulation",
    "SimEvent",
    "EventKind",
    "Trace",
    "AppTraceInfo",
    "EngineError",
    "run_scenario",
    "Violation",
    "ViolationKind",
    "GuaranteeReport",
    "VerifyError",
    "check_reservation",
    "check_share",
    "check_conservation",
    "build_report",
    "Scenario",
    "TimelineEntry",
    "ScenarioError",
    "parse_scenario",
    "__version__",
]
