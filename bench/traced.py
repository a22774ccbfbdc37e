"""Traced child process of the benchmark.

It times hiersched's public calls from outside the package: it wraps them in
spans held in memory and writes the spans out as JSON when it ends. It runs
with `src` on PYTHONPATH, like the CLI runs it is compared with.

    python3 bench/traced.py mirror SCENARIO TRACE_CSV REPORT OUT_JSON
    python3 bench/traced.py layers SCENARIO OUT_JSON

mirror  runs the real CLI (`hiersched.cli.run`) with spans around
        parse_scenario, run_scenario, the deploy/undeploy calls the engine
        makes, Trace.to_csv, build_report and the check_* functions
        build_report calls.
layers  replays the timeline through the public deploy/undeploy on
        new_hierarchy(), then times compose() and app_slot() on the final
        tree and parse_contract() over the scenario's contract strings.

A span is [name, start_ns, end_ns, parent_index, note].
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter_ns

# enough deploys that at least 10 lie beyond the 95th percentile
MIN_DEPLOY_SAMPLES = 200
MAX_REPLAYS = 100
COMPOSE_REPEATS = 21


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, parent, ""])
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter_ns()

    def note(self, index, text):
        self.spans[index][4] = text

    def wrap(self, owner, attr, name, results=None):
        """Replace owner.attr with a traced call; keep its last result."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if results is not None:
                results[name] = out
            return out

        setattr(owner, attr, traced)


def mirror(scenario, trace_out, report_out, out_json):
    tr = Tracer()
    with tr.span("cli.import"):
        import hiersched.cli as cli
        import hiersched.engine as engine
        import hiersched.verify as verify

    kept: dict = {}
    tr.wrap(cli, "parse_scenario", "cli.parse_scenario")
    tr.wrap(cli, "run_scenario", "engine.run_scenario", kept)
    # the engine's own references to deployment.deploy and .undeploy
    tr.wrap(engine, "_deploy", "deployment.deploy")
    tr.wrap(engine, "_undeploy", "deployment.undeploy")
    tr.wrap(engine.Trace, "to_csv", "engine.to_csv", kept)
    tr.wrap(cli, "build_report", "verify.build_report", kept)
    for name in ("check_reservation", "check_share", "check_conservation"):
        tr.wrap(verify, name, f"verify.{name}")

    with tr.span("cli.run"):
        code = cli.run([
            "--scenario", scenario, "--trace-out", trace_out,
            "--report-out", report_out, "--allow-reject",
        ])

    counts = {"exit": code}
    trace = kept.get("engine.run_scenario")
    if trace is not None:
        counts.update(
            events=len(trace.events),
            idle_ticks=trace.idle_ticks,
            deadline_misses=sum(
                e.kind is engine.EventKind.DEADLINE_MISS for e in trace.events
            ),
        )
    if "engine.to_csv" in kept:
        counts["csv_bytes"] = len(kept["engine.to_csv"].encode())
    if "verify.build_report" in kept:
        counts["violations"] = len(kept["verify.build_report"].violations)
    _dump(out_json, {"spans": tr.spans, "counts": counts})
    return 0


def _replay(tr, scenario):
    """Deploy and undeploy in timeline order on a fresh tree, as the engine
    does, but without simulating any tick."""
    from hiersched import Outcome, deploy, new_hierarchy, undeploy

    h = new_hierarchy()
    decisions = []
    live: list = []
    for entry in scenario.timeline:
        if entry.action == "deploy":
            req = entry.request
            if isinstance(req.target_parent, str):
                # resolved like engine._do_deploy: by name, once loaded
                nid = h.find_node_by_name(req.target_parent)
                if nid is None:
                    raise SystemExit(
                        f"unknown target parent {req.target_parent!r}"
                    )
                req = replace(req, target_parent=nid)
            with tr.span("deployment.deploy") as s:
                decision = deploy(h, req)
            tr.note(s, decision.outcome.value)
            decisions.append([entry.tick, entry.app_id, decision.record()])
            if decision.outcome is not Outcome.REJECTED:
                live.append(entry.app_id)
        else:
            if entry.app_id not in live:
                raise SystemExit(
                    f"undeploy of app {entry.app_id!r} that was not admitted"
                )
            with tr.span("deployment.undeploy"):
                undeploy(h, entry.app_id)
            live.remove(entry.app_id)
    return h, decisions, live


def layers(scenario_path, out_json):
    tr = Tracer()
    with tr.span("cli.import"):
        from hiersched import parse_contract, parse_scenario

    with open(scenario_path, encoding="utf-8") as f:
        text = f.read()
    doc = json.loads(text)
    contracts = [s["request"] for s in doc.get("schedulers", [])]
    contracts += [e["request"] for e in doc.get("timeline", [])
                  if e.get("action") == "deploy"]
    with tr.span("contracts.parse_contract"):
        for c in contracts:
            parse_contract(c)
    scenario = parse_scenario(text)

    n_deploys = sum(e.action == "deploy" for e in scenario.timeline)
    replays = min(MAX_REPLAYS, math.ceil(MIN_DEPLOY_SAMPLES / max(1, n_deploys)))
    first = None
    for _ in range(replays):
        with tr.span("deployment.replay"):
            result = _replay(tr, scenario)
        if first is None:
            first = result
        elif result[1] != first[1]:
            raise SystemExit("replays of one timeline disagree")
    h, decisions, live = first

    for _ in range(COMPOSE_REPEATS):
        with tr.span("hierarchy.compose"):
            h.compose()
    with tr.span("hierarchy.app_slot") as s:
        for app in live:
            h.app_slot(app)
    tr.note(s, str(len(live)))

    _dump(out_json, {
        "spans": tr.spans,
        "decisions": decisions,
        "counts": {
            "contracts": len(contracts),
            "replays": replays,
            "nodes": h.node_count(),
            "apps": len(live),
        },
    })
    return 0


def _dump(path, obj):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)


def main(argv):
    if len(argv) == 5 and argv[0] == "mirror":
        return mirror(*argv[1:])
    if len(argv) == 3 and argv[0] == "layers":
        return layers(*argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
