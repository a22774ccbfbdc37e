"""Command-line front end: run a JSON scenario, emit trace and report files.

A scenario file looks like:

    {
      "horizon": 1000,
      "seed": 0,
      "schedulers": [
        {"name": "edf0", "policy": "EDF_RESERVATION", "request": "RESBH[30,100]"}
      ],
      "timeline": [
        {"tick": 0, "action": "deploy", "app": "a1", "class": "control",
         "request": "RESBH[10,100]", "scheduler": "edf0",
         "workload": {"kind": "PERIODIC", "period": 100, "wcet": 10}}
      ]
    }

Timeline ticks must be non-decreasing, every referenced scheduler must be
declared, undeploys must name an app deployed earlier, and the horizon must
lie strictly past the last timeline tick. An undeploy of an app whose deploy
was rejected is a no-op, traced as an UNDEPLOY row with detail NOT_ADMITTED.
New schedulers load at the root.
A deploy entry may name a parent scheduler with "parent", but only a VIRTUAL
scheduler can be a parent and no scenario can load one (it provides no
service class, so every deploy naming one is rejected): "parent" never
places a scheduler below the root, and a deploy that names a loaded leaf
is rejected, one that names a scheduler not loaded yet stops the run.

Flags: --scenario FILE (required), --trace-out FILE, --report-out FILE,
--seed N, --horizon N and --allow-reject, each value given as `--flag value`
or `--flag=value`; a repeated flag keeps its last value. They are read by a
plain loop over argv, not argparse, which with gettext and locale would cost
every run a few milliseconds of start-up; abbreviated flags are not taken.
--help prints the usage to stdout and exits 0.

Exit status: 0 when the run is clean, 1 when the verifier found violations
or any deployment was rejected (suppress the latter with --allow-reject),
2 for unusable input, a usage error included (usage to stderr). Both
output paths are tried once the scenario is read and before it runs: one
that cannot be written, an empty one included, or one that names the same
file as the scenario or the other output, exits 2, and no output file is
made or changed. Paths that exist are compared by device and inode, so
through symbolic and hard links; a path not made yet is compared by
`os.path.realpath`.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from collections import namedtuple

from .contracts import ContractError, parse_contract
from .deployment import DeploymentRequest, Outcome
from .engine import run_scenario
from .hierarchy import HierarchyError, PolicyKind, SchedulerSpec
from .record import EngineError, Workload, WorkloadKind
from .verify import build_report


class ScenarioError(ValueError):
    pass


# `action` is "deploy" or "undeploy"; only a deploy carries a request
# (DeploymentRequest) and a workload
TimelineEntry = namedtuple("TimelineEntry", "tick action app_id request workload",
                           defaults=(None, None))
# `schedulers` maps each declared name to its SchedulerSpec; `timeline` is a
# tuple of TimelineEntry
Scenario = namedtuple("Scenario", "horizon seed schedulers timeline")


def _need(obj, key, kind, where, minimum=None):
    if key not in obj:
        raise ScenarioError(f"{where}: missing {key!r}")
    val = obj[key]
    if not isinstance(val, kind) or isinstance(val, bool):
        raise ScenarioError(f"{where}.{key}: expected {kind.__name__}")
    if minimum is not None and val < minimum:
        raise ScenarioError(f"{where}.{key}: must be >= {minimum}")
    return val


def _opt(obj, key, kind, where, default, minimum=None):
    if key not in obj:
        return default
    return _need(obj, key, kind, where, minimum=minimum)


def _declared(obj, key, schedulers, where):
    """The optional scheduler name under `key`, which must be declared in
    `schedulers`, or None."""
    name = _opt(obj, key, str, where, None)
    if name is not None and name not in schedulers:
        raise ScenarioError(f"{where}.{key}: undeclared scheduler {name!r}")
    return name


def _contract(obj, key, where):
    text = _need(obj, key, str, where)
    try:
        return parse_contract(text)
    except ContractError as e:
        raise ScenarioError(f"{where}.{key}: {e}") from e


def _scheduler(item, i):
    where = f"schedulers[{i}]"
    if not isinstance(item, dict):
        raise ScenarioError(f"{where}: expected object")
    name = _need(item, "name", str, where)
    policy_name = _need(item, "policy", str, where)
    try:
        policy = PolicyKind[policy_name]
    except KeyError:
        raise ScenarioError(f"{where}.policy: unknown policy {policy_name!r}")
    request = _contract(item, "request", where)
    optional = {}  # a left-out quantum takes SchedulerSpec's default
    if "quantum" in item:
        optional["quantum"] = _need(item, "quantum", int, where, minimum=1)
    try:
        return SchedulerSpec(name=name, policy=policy, parent_request=request, **optional)
    except HierarchyError as e:
        raise ScenarioError(f"{where}: {e}") from e


def _workload(obj, where):
    spec = _need(obj, "workload", dict, where)
    kind_name = _need(spec, "kind", str, f"{where}.workload")
    try:
        kind = WorkloadKind[kind_name]
    except KeyError:
        raise ScenarioError(
            f"{where}.workload.kind: unknown kind {kind_name!r}"
        )
    try:
        if kind is WorkloadKind.PERIODIC:
            return Workload(
                kind,
                period=_need(spec, "period", int, f"{where}.workload", minimum=1),
                wcet=_need(spec, "wcet", int, f"{where}.workload", minimum=1),
                offset=_opt(spec, "offset", int, f"{where}.workload", 0, minimum=0),
            )
        if kind is WorkloadKind.BURSTY:
            return Workload(
                kind,
                on=_need(spec, "on", int, f"{where}.workload", minimum=1),
                off=_need(spec, "off", int, f"{where}.workload", minimum=1),
            )
        return Workload(kind)
    except EngineError as e:
        raise ScenarioError(f"{where}.workload: {e}") from e


def _check_past(horizon, timeline, where):
    """Refuse a `horizon` that does not lie past the last `timeline` tick;
    the message starts with `where`."""
    if timeline and horizon <= timeline[-1].tick:
        raise ScenarioError(
            f"{where}: must exceed the last timeline tick ({timeline[-1].tick})"
        )


def parse_scenario(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(
            f"invalid JSON: {e.msg} (line {e.lineno}, column {e.colno})"
        ) from e
    except (ValueError, RecursionError) as e:
        # past the interpreter's limit on integer digits or on nesting depth
        raise ScenarioError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: expected a JSON object")
    horizon = _need(doc, "horizon", int, "scenario", minimum=1)
    seed = _opt(doc, "seed", int, "scenario", 0)

    schedulers: dict = {}
    for i, item in enumerate(_opt(doc, "schedulers", list, "scenario", [])):
        spec = _scheduler(item, i)
        if spec.name in schedulers:
            raise ScenarioError(
                f"schedulers[{i}].name: duplicate name {spec.name!r}"
            )
        schedulers[spec.name] = spec

    entries = []
    deployed: set = set()
    last_tick = -1
    for i, item in enumerate(_opt(doc, "timeline", list, "scenario", [])):
        where = f"timeline[{i}]"
        if not isinstance(item, dict):
            raise ScenarioError(f"{where}: expected object")
        tick = _need(item, "tick", int, where, minimum=0)
        if tick < last_tick:
            raise ScenarioError(
                f"{where}.tick: ticks must be non-decreasing "
                f"({tick} after {last_tick})"
            )
        last_tick = tick
        action = _need(item, "action", str, where)
        app_id = _need(item, "app", str, where)
        if action == "deploy":
            app_class = _opt(item, "class", str, where, "")
            request = _contract(item, "request", where)
            workload = _workload(item, where)
            entries.append(TimelineEntry(
                tick=tick, action="deploy", app_id=app_id,
                request=DeploymentRequest(
                    app_id=app_id, app_class=app_class, request=request,
                    # checked in this order: the scheduler, then the parent
                    scheduler=schedulers.get(_declared(item, "scheduler", schedulers, where)),
                    target_parent=_declared(item, "parent", schedulers, where),
                ),
                workload=workload,
            ))
            deployed.add(app_id)
        elif action == "undeploy":
            if app_id not in deployed:
                raise ScenarioError(
                    f"{where}.app: undeploy of app {app_id!r} "
                    "never deployed earlier in the timeline"
                )
            entries.append(TimelineEntry(tick=tick, action="undeploy", app_id=app_id))
        else:
            raise ScenarioError(f"{where}.action: unknown action {action!r}")

    _check_past(horizon, entries, "scenario.horizon")
    return Scenario(
        horizon=horizon, seed=seed, schedulers=schedulers,
        timeline=tuple(entries),
    )


def _decision_lines(trace) -> list:
    return [
        f"deploy tick={tick} app={app} {decision.record()}"
        for tick, app, decision in trace.decisions
    ]


_USAGE = """\
usage: hiersched [-h] --scenario SCENARIO [--trace-out TRACE_OUT]
                 [--report-out REPORT_OUT] [--seed SEED] [--horizon HORIZON]
                 [--allow-reject]
"""

_HELP = _USAGE + """
Run a scheduler scenario and verify its guarantees.

options:
  -h, --help            show this help message and exit
  --scenario SCENARIO   scenario JSON file
  --trace-out TRACE_OUT
                        write the event trace CSV here
  --report-out REPORT_OUT
                        write the decision+guarantee report here
  --seed SEED           override the scenario seed
  --horizon HORIZON     override the scenario horizon
  --allow-reject        rejected deployments do not fail the run
"""

_FLAGS = ("--scenario", "--trace-out", "--report-out", "--seed", "--horizon")


def _parse_args(argv) -> dict:
    """The flags of `argv`, keyed by name, with --seed and --horizon as
    ints; a repeated flag keeps its last value. A flag's value follows it
    as `--flag value` or `--flag=value`; in the first form it may not start
    with "-" unless it is a negative integer. Raises ValueError with the
    message for anything else."""
    args = {}
    rest = iter(argv)
    for arg in rest:
        flag, eq, value = arg.partition("=")
        if arg == "--allow-reject":
            value = True
        elif flag not in _FLAGS:
            raise ValueError(f"unrecognized argument: {arg}")
        elif not eq:
            value = next(rest, None)
            if value is None or value[:1] == "-" and not value[1:].isdigit():
                raise ValueError(f"argument {flag}: expected one argument")
        if flag in ("--seed", "--horizon"):
            try:
                value = int(value)
            except ValueError:
                raise ValueError(
                    f"argument {flag}: invalid int value: {value!r}"
                ) from None
        args[flag] = value
    if "--scenario" not in args:
        raise ValueError("the following arguments are required: --scenario")
    return args


def _file_key(path):
    """What `path` names: (device, inode) of a file that exists, which two
    hard links share, else the real path it would be made at."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def run(argv=None) -> int:
    """Run the command line `argv` (default `sys.argv[1:]`); return the
    exit status. The trace's CSV text is made once, by `Trace.to_csv`, and
    written in slices of 65,536 characters: a whole-text `write` would encode
    all of it to one `bytes`, a second peak the size of the text."""
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_HELP, end="")
        return 0
    try:
        args = _parse_args(argv)
    except ValueError as e:
        print(f"{_USAGE}hiersched: error: {e}", file=sys.stderr)
        return 2
    seed, horizon = args.get("--seed"), args.get("--horizon")

    try:
        with open(args["--scenario"], encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read scenario: {e}", file=sys.stderr)
        return 2

    try:
        scenario = parse_scenario(text)
        if seed is not None:
            scenario = scenario._replace(seed=seed)
        if horizon is not None:
            if horizon < 1:
                raise ScenarioError("--horizon: must be >= 1")
            _check_past(horizon, scenario.timeline, "--horizon")
            scenario = scenario._replace(horizon=horizon)
        # try the outputs before the run, so that a bad path costs no run;
        # a file made here is removed (the target, where the path is a
        # dangling link), so an output fault leaves no file behind
        seen = {}  # the key of each file named so far -> its flag
        for flag in ("--scenario", "--trace-out", "--report-out"):
            if args.get(flag):  # an empty path names no file
                key = _file_key(args[flag])
                if key in seen:
                    raise ScenarioError(f"{flag} names the same file as {seen[key]}")
                seen[key] = flag
        # an empty output path is tried too, and fails as unwritable
        for path in [args[flag] for flag in ("--trace-out", "--report-out") if flag in args]:
            existed = os.path.exists(path)
            try:
                open(path, "a").close()
            except OSError as e:
                raise ScenarioError(f"cannot write output: {e}") from e
            if not existed:
                os.remove(os.path.realpath(path))
        trace = run_scenario(scenario)
    except (ScenarioError, EngineError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    report = build_report(trace)
    report_text = "\n".join(_decision_lines(trace) + [report.to_text()])

    try:
        if "--trace-out" in args:
            with open(args["--trace-out"], "w", encoding="utf-8", newline="") as f:
                csv_text = trace.to_csv()
                f.writelines(csv_text[k:k + 65536]
                             for k in range(0, len(csv_text), 65536))
        if "--report-out" in args:
            with open(args["--report-out"], "w", encoding="utf-8", newline="") as f:
                f.write(report_text)
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2

    print(report_text, end="")
    rejected = any(
        d.outcome is Outcome.REJECTED for _, _, d in trace.decisions
    )
    if report.ok and (args.get("--allow-reject") or not rejected):
        return 0
    return 1


def main():
    """The command's entry point (`python3 -m hiersched`, `hiersched`):
    exit with `run`'s status. It freezes the heap first, so that shutdown
    skips its cyclic collections; `run` does not freeze, since tests and
    the bench call it in their own process."""
    code = run()
    # the process ends here: the collections at exit would free nothing that
    # matters, so move every object out of their reach
    gc.freeze()
    raise SystemExit(code)
