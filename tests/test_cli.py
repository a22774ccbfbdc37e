"""Scenario parsing diagnostics and end-to-end CLI runs over the bundled zoo."""

import errno
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hiersched import cli
from hiersched.cli import Scenario, ScenarioError, parse_scenario, run
from hiersched.contracts import ServiceClass
from hiersched.engine import EventKind, Trace
from hiersched.hierarchy import PolicyKind

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def minimal(**overrides):
    doc = {
        "horizon": 100,
        "schedulers": [
            {"name": "rr0", "policy": "ROUND_ROBIN", "request": "BE"},
        ],
        "timeline": [
            {"tick": 0, "action": "deploy", "app": "a", "class": "batch",
             "request": "BE", "scheduler": "rr0",
             "workload": {"kind": "CPU_BOUND"}},
        ],
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestParse:
    def test_minimal_scenario(self):
        sc = parse_scenario(minimal())
        assert isinstance(sc, Scenario)
        assert sc.horizon == 100
        assert sc.seed == 0
        assert sc.schedulers["rr0"].policy is PolicyKind.ROUND_ROBIN
        assert sc.schedulers["rr0"].provides == frozenset({ServiceClass.BE})
        assert len(sc.timeline) == 1
        entry = sc.timeline[0]
        assert entry.action == "deploy"
        assert entry.request.scheduler is sc.schedulers["rr0"]

    def test_a_left_out_quantum_is_the_spec_default(self):
        assert parse_scenario(minimal()).schedulers["rr0"].quantum == 10
        doc = json.loads(minimal())
        doc["schedulers"][0]["quantum"] = 3
        assert parse_scenario(json.dumps(doc)).schedulers["rr0"].quantum == 3
        doc["schedulers"][0]["quantum"] = 0
        with pytest.raises(ScenarioError,
                           match=r"schedulers\[0\]\.quantum: must be >= 1"):
            parse_scenario(json.dumps(doc))

    def test_invalid_json_names_the_position(self):
        with pytest.raises(ScenarioError, match=r"line 1"):
            parse_scenario("{nope")

    def test_missing_horizon(self):
        with pytest.raises(ScenarioError, match="missing 'horizon'"):
            parse_scenario(json.dumps({"timeline": []}))

    def test_bad_contract_names_the_field(self):
        doc = json.loads(minimal())
        doc["timeline"][0]["request"] = "RESBH[200,100]"
        with pytest.raises(ScenarioError, match=r"timeline\[0\].request"):
            parse_scenario(json.dumps(doc))

    def test_undeclared_scheduler(self):
        doc = json.loads(minimal())
        doc["timeline"][0]["scheduler"] = "ghost"
        with pytest.raises(ScenarioError, match="undeclared scheduler 'ghost'"):
            parse_scenario(json.dumps(doc))

    def test_ticks_must_not_decrease(self):
        doc = json.loads(minimal())
        doc["timeline"].append({
            "tick": 0, "action": "deploy", "app": "b", "class": "batch",
            "request": "BE", "workload": {"kind": "CPU_BOUND"}})
        doc["timeline"][1]["tick"] = 5
        doc["timeline"].append({"tick": 2, "action": "undeploy", "app": "a"})
        with pytest.raises(ScenarioError, match="non-decreasing"):
            parse_scenario(json.dumps(doc))

    def test_undeploy_needs_an_earlier_deploy(self):
        doc = json.loads(minimal())
        doc["timeline"].append({"tick": 10, "action": "undeploy", "app": "ghost"})
        with pytest.raises(ScenarioError, match="never deployed"):
            parse_scenario(json.dumps(doc))

    def test_horizon_must_clear_the_last_tick(self):
        doc = json.loads(minimal())
        doc["horizon"] = 0
        with pytest.raises(ScenarioError):
            parse_scenario(json.dumps(doc))
        doc["horizon"] = 100
        doc["timeline"][0]["tick"] = 100
        with pytest.raises(ScenarioError, match="exceed the last timeline tick"):
            parse_scenario(json.dumps(doc))

    def test_unknown_policy_and_kind(self):
        doc = json.loads(minimal())
        doc["schedulers"][0]["policy"] = "FIFO"
        with pytest.raises(ScenarioError, match="unknown policy 'FIFO'"):
            parse_scenario(json.dumps(doc))
        doc = json.loads(minimal())
        doc["timeline"][0]["workload"] = {"kind": "SPIKY"}
        with pytest.raises(ScenarioError, match="unknown kind 'SPIKY'"):
            parse_scenario(json.dumps(doc))

    def test_duplicate_scheduler_name(self):
        doc = json.loads(minimal())
        doc["schedulers"].append(dict(doc["schedulers"][0]))
        with pytest.raises(ScenarioError, match="duplicate name 'rr0'"):
            parse_scenario(json.dumps(doc))

    def test_bad_periodic_workload(self):
        doc = json.loads(minimal())
        doc["timeline"][0]["workload"] = {
            "kind": "PERIODIC", "period": 10, "wcet": 20}
        with pytest.raises(ScenarioError, match=r"timeline\[0\].workload"):
            parse_scenario(json.dumps(doc))

    def test_every_bundled_scenario_parses(self):
        files = sorted(SCENARIOS.glob("*.json"))
        assert len(files) == 6
        for path in files:
            sc = parse_scenario(path.read_text())
            assert sc.horizon > 0


# A soft leaf shared by `s` (and `s2`), and a hard app `h` deployed at tick
# 300 and undeployed at 600. In EPOCHS, `s` holds all of the soft leaf, so
# the shape check rejects `h`. In EPOCHS2, `h` is admitted and squeezes the
# soft leaf to half its ask until it leaves.
EPOCHS = {
    "horizon": 1000, "seed": 0,
    "schedulers": [
        {"name": "soft", "policy": "EDF_RESERVATION", "request": "RESBS[60,100]"},
        {"name": "hard", "policy": "EDF_RESERVATION", "request": "RESBH[70,100]"},
    ],
    "timeline": [
        {"tick": 0, "action": "deploy", "app": "s", "class": "c",
         "request": "RESBS[60,100]", "scheduler": "soft",
         "workload": {"kind": "CPU_BOUND"}},
        {"tick": 300, "action": "deploy", "app": "h", "class": "d",
         "request": "RESBH[70,100]", "scheduler": "hard",
         "workload": {"kind": "CPU_BOUND"}},
        {"tick": 600, "action": "undeploy", "app": "h"},
    ],
}
EPOCHS2 = dict(EPOCHS, timeline=[
    {"tick": 0, "action": "deploy", "app": app, "class": "c",
     "request": "RESBS[30,100]", "scheduler": "soft",
     "workload": {"kind": "CPU_BOUND"}}
    for app in ("s", "s2")
] + EPOCHS["timeline"][1:])

# Two CPU-bound apps ask a stride leaf for PS[3] and PS[2]. A hard app on a
# second leaf leaves the root too little room for `st`'s PS[5], so `st` is
# squeezed to PS[4], and the floors of its apps' awards are PS[2] and PS[1].
SQUEEZE = {
    "horizon": 2000, "seed": 0,
    "schedulers": [
        {"name": "st", "policy": "STRIDE", "request": "PS[5]", "quantum": 1},
        {"name": "hard", "policy": "EDF_RESERVATION",
         "request": "RESBH[249999,250000]"},
    ],
    "timeline": [
        {"tick": 0, "action": "deploy", "app": "a", "class": "c",
         "request": "PS[3]", "scheduler": "st", "workload": {"kind": "CPU_BOUND"}},
        {"tick": 0, "action": "deploy", "app": "b", "class": "c",
         "request": "PS[2]", "scheduler": "st", "workload": {"kind": "CPU_BOUND"}},
        {"tick": 0, "action": "deploy", "app": "h", "class": "d",
         "request": "RESBH[249999,250000]", "scheduler": "hard",
         "workload": {"kind": "PERIODIC", "period": 250000, "wcet": 1}},
    ],
}

# The same apps, with `h` deployed at tick 1000: `st` holds PS[5] until then,
# and dispatch weighs `a` and `b` 3:2 before the squeeze and 2:1 after it.
SQUEEZE_LATE = dict(SQUEEZE, timeline=SQUEEZE["timeline"][:2] + [
    dict(SQUEEZE["timeline"][2], tick=1000),
])

# Three hard leaves, each with one PERIODIC app that fits its award. `a2`
# runs wcet 1 every 20 ticks from tick 11 under RESBH[3,20], and its server's
# windows are aligned to multiples of 20, not to `a2`'s releases.
OFFSET = {
    "horizon": 200, "seed": 0,
    "schedulers": [
        {"name": f"e{i}", "policy": "EDF_RESERVATION", "request": request}
        for i, request in enumerate(("RESBH[32,100]", "RESBH[20,40]", "RESBH[3,20]"))
    ],
    "timeline": [
        {"tick": 0, "action": "deploy", "app": f"a{i}", "class": f"a{i}",
         "request": request, "scheduler": f"e{i}",
         "workload": {"kind": "PERIODIC", "period": period, "wcet": wcet,
                      "offset": offset}}
        for i, (request, period, wcet, offset) in enumerate((
            ("RESBH[32,100]", 100, 29, 90),
            ("RESBH[20,40]", 40, 17, 18),
            ("RESBH[3,20]", 20, 1, 11),
        ))
    ],
}


class TestRun:
    def test_stride_scenario_clean_run(self, tmp_path, capsys):
        trace_out = tmp_path / "trace.csv"
        report_out = tmp_path / "report.txt"
        code = run([
            "--scenario", str(SCENARIOS / "stride.json"),
            "--trace-out", str(trace_out),
            "--report-out", str(report_out),
        ])
        assert code == 0
        report = report_out.read_text()
        lines = report.splitlines()
        assert lines[0].startswith("deploy tick=0 app=big outcome=LOADED_NEW")
        assert lines[1].startswith("deploy tick=0 app=small outcome=ATTACHED_EXISTING")
        assert lines[2] == "violations=0 conservation=ok"
        assert trace_out.read_text().splitlines()[0] == "tick,event,app,node_path,detail"
        assert capsys.readouterr().out == report

    def test_one_decision_line_per_timeline_deploy(self, tmp_path):
        report_out = tmp_path / "report.txt"
        code = run([
            "--scenario", str(SCENARIOS / "deployment_mix.json"),
            "--report-out", str(report_out),
        ])
        assert code == 0
        deploys = [l for l in report_out.read_text().splitlines()
                   if l.startswith("deploy ")]
        doc = json.loads((SCENARIOS / "deployment_mix.json").read_text())
        wanted = [e for e in doc["timeline"] if e["action"] == "deploy"]
        assert len(deploys) == len(wanted)
        for line, entry in zip(deploys, wanted):
            assert line.startswith(f"deploy tick={entry['tick']} app={entry['app']} ")

    def test_rejections_fail_the_run_unless_allowed(self, capsys):
        path = str(SCENARIOS / "overcommit.json")
        assert run(["--scenario", path]) == 1
        out = capsys.readouterr().out
        assert "outcome=REJECTED reason=NO_SERVICE_NO_SCHEDULER" in out
        assert "outcome=REJECTED reason=INFEASIBLE" in out
        assert "violations=0 conservation=ok" in out
        assert run(["--scenario", path, "--allow-reject"]) == 0

    def test_reservation_of_the_wrong_shape_is_rejected(self, tmp_path, capsys):
        # RESBH[50,100] has the utilization for RESBH[5,10] but can starve it
        # for 100 ticks; admitted, `a` missed 16 of its windows
        doc = {
            "horizon": 400, "seed": 0,
            "schedulers": [
                {"name": "fast", "policy": "EDF_RESERVATION", "request": "RESBH[25,50]"},
                {"name": "slow", "policy": "EDF_RESERVATION", "request": "RESBH[50,100]"},
            ],
            "timeline": [
                {"tick": 0, "action": "deploy", "app": "q", "class": "c",
                 "request": "RESBH[25,50]", "scheduler": "fast",
                 "workload": {"kind": "CPU_BOUND"}},
                {"tick": 0, "action": "deploy", "app": "a", "class": "c",
                 "request": "RESBH[5,10]", "scheduler": "slow",
                 "workload": {"kind": "PERIODIC", "period": 10, "wcet": 5}},
            ],
        }
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        assert run(["--scenario", str(path), "--allow-reject"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "deploy tick=0 app=q outcome=LOADED_NEW node=1 awarded=RESBH[25,50]",
            "deploy tick=0 app=a outcome=REJECTED reason=INFEASIBLE detail="
            "'rejected at a: supply shape: RESBH[50,100] does not satisfy RESBH[5,10]'",
            "violations=0 conservation=ok",
        ]

    @pytest.mark.parametrize("doc, lines", [
        (  # admitted, `y` got 40 ticks of its 60 in every window
            {"horizon": 300, "seed": 0,
             "schedulers": [
                 {"name": "a", "policy": "EDF_RESERVATION", "request": "RESBH[60,100]"},
                 {"name": "b", "policy": "EDF_RESERVATION", "request": "ALL"},
             ],
             "timeline": [
                 {"tick": 0, "action": "deploy", "app": "x", "class": "c",
                  "request": "RESBH[60,100]", "scheduler": "a",
                  "workload": {"kind": "CPU_BOUND"}},
                 {"tick": 0, "action": "deploy", "app": "y", "class": "d",
                  "request": "RESBH[60,100]", "scheduler": "b",
                  "workload": {"kind": "CPU_BOUND"}},
             ]},
            ["deploy tick=0 app=x outcome=LOADED_NEW node=1 awarded=RESBH[60,100]",
             "deploy tick=0 app=y outcome=REJECTED reason=INVALID_REQUEST "
             "detail=\"scheduler 'b' asks its parent for ALL\""],
        ),
        (  # admitted, `z` never ran and the CPU idled
            {"horizon": 50, "seed": 0,
             "schedulers": [{"name": "r", "policy": "ROUND_ROBIN", "request": "NULL"}],
             "timeline": [
                 {"tick": 0, "action": "deploy", "app": "z", "class": "c",
                  "request": "BE", "scheduler": "r", "workload": {"kind": "CPU_BOUND"}},
             ]},
            ["deploy tick=0 app=z outcome=REJECTED reason=INVALID_REQUEST "
             "detail=\"scheduler 'r' asks its parent for NULL\""],
        ),
    ], ids=["all_leaf", "null_leaf"])
    def test_a_scheduler_asking_for_all_or_null_is_rejected(self, tmp_path, capsys,
                                                             doc, lines):
        path = tmp_path / "ask.json"
        path.write_text(json.dumps(doc))
        assert run(["--scenario", str(path), "--allow-reject"]) == 0
        assert capsys.readouterr().out.splitlines() == lines + [
            "violations=0 conservation=ok"
        ]

    def test_undeploy_of_a_rejected_app_is_recorded(self, tmp_path, capsys):
        path = tmp_path / "epochs.json"
        path.write_text(json.dumps(EPOCHS))
        trace_out = tmp_path / "trace.csv"
        assert run(["--scenario", str(path), "--trace-out", str(trace_out),
                    "--allow-reject"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "deploy tick=0 app=s outcome=LOADED_NEW node=1 awarded=RESBS[60,100]",
            "deploy tick=300 app=h outcome=REJECTED reason=INFEASIBLE detail="
            "'rejected at s: supply shape: RESBS[30,100] does not satisfy "
            "RESBS[60,100]'",
            "violations=0 conservation=ok",
        ]
        assert "600,UNDEPLOY,h,,NOT_ADMITTED" in trace_out.read_text().splitlines()
        assert run(["--scenario", str(path)]) == 1  # the rejection alone fails it

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP items 1a/2: the verifier holds `s` and `s2` to their final "
        "award while `h` squeezes them, 300-600"))
    def test_a_squeeze_that_ends_is_no_violation(self, tmp_path, capsys):
        path = tmp_path / "epochs2.json"
        path.write_text(json.dumps(EPOCHS2))
        run(["--scenario", str(path)])
        assert "violations=0 conservation=ok" in capsys.readouterr().out.splitlines()

    def test_stride_dispatch_weighs_the_awards_of_a_squeeze(self):
        trace = cli.run_scenario(parse_scenario(json.dumps(SQUEEZE)))
        awards = {app: str(trace.app_info[app].awarded) for app in "abh"}
        assert awards == {"a": "PS[2]", "b": "PS[1]", "h": "RESBH[249999,250000]"}
        assert [trace.per_app_service[app] for app in "abh"] == [1333, 666, 1]

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: the share check weighs `a` and `b` by their request, "
        "3:2, where dispatch weighs them by their award, 2:1"))
    def test_a_squeezed_share_leaf_is_no_violation(self, tmp_path, capsys):
        path = tmp_path / "squeeze.json"
        path.write_text(json.dumps(SQUEEZE))
        run(["--scenario", str(path)])
        assert "violations=0 conservation=ok" in capsys.readouterr().out.splitlines()

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 2: the share check weighs `a` and `b` by their request, "
        "3:2, after `h` squeezes them to 2:1 at tick 1000; weighing them by "
        "their final award instead would give false rows before tick 1000"))
    def test_a_squeeze_that_starts_mid_run_is_no_violation(self, tmp_path, capsys):
        path = tmp_path / "squeeze_late.json"
        path.write_text(json.dumps(SQUEEZE_LATE))
        run(["--scenario", str(path)])
        assert "violations=0 conservation=ok" in capsys.readouterr().out.splitlines()

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 10: `a2`'s server windows are aligned to multiples of "
        "its period, not to its releases, so its job released at 91 misses "
        "its deadline at 110 though it fits its award"))
    def test_an_admitted_app_that_fits_its_award_misses_no_deadline(self):
        trace = cli.run_scenario(parse_scenario(json.dumps(OFFSET)))
        assert str(trace.app_info["a2"].awarded) == "RESBH[3,20]"
        misses = [e.tick for e in trace.events
                  if e.kind is EventKind.DEADLINE_MISS and e.app == "a2"]
        assert misses == []

    def test_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for i in range(2):
            trace_out = tmp_path / f"t{i}.csv"
            report_out = tmp_path / f"r{i}.txt"
            code = run([
                "--scenario", str(SCENARIOS / "deployment_mix.json"),
                "--trace-out", str(trace_out),
                "--report-out", str(report_out),
            ])
            assert code == 0
            outs.append((trace_out.read_bytes(), report_out.read_bytes()))
        assert outs[0] == outs[1]

    def test_a_trace_of_many_slices_is_written_whole(self, tmp_path, capsys):
        # an app name that csv must quote, and that UTF-8 writes in 2 bytes
        app = 'a,"é'
        path = tmp_path / "long.json"
        path.write_text(minimal(horizon=20_000, timeline=[
            {"tick": 0, "action": "deploy", "app": app, "class": "batch",
             "request": "BE", "scheduler": "rr0",
             "workload": {"kind": "CPU_BOUND"}},
        ]), encoding="utf-8")
        trace_out, report_out = tmp_path / "t.csv", tmp_path / "r.txt"
        code = run(["--scenario", str(path), "--trace-out", str(trace_out),
                    "--report-out", str(report_out)])
        assert code == 0
        text = cli.run_scenario(parse_scenario(path.read_text(encoding="utf-8"))).to_csv()
        assert len(text) > 5 * 65536  # the slices `run` writes
        assert trace_out.read_bytes() == text.encode("utf-8")
        assert report_out.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_seed_override_changes_bursty_phases(self, tmp_path):
        def trace_bytes(extra):
            out = tmp_path / f"s{len(extra)}.csv"
            code = run([
                "--scenario", str(SCENARIOS / "deployment_mix.json"),
                "--trace-out", str(out), *extra,
            ])
            assert code == 0
            return out.read_bytes()

        base = trace_bytes([])
        same = trace_bytes(["--seed", "42"])  # the file's own seed
        assert base == same

    def test_horizon_override_must_clear_last_tick(self, capsys):
        code = run([
            "--scenario", str(SCENARIOS / "deployment_mix.json"),
            "--horizon", "10",
        ])
        assert code == 2
        assert "error: --horizon: must exceed the last timeline tick" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_horizon_override_must_be_positive(self, tmp_path, capsys, horizon):
        path = tmp_path / "empty.json"
        path.write_text(minimal(timeline=[]))
        assert run(["--scenario", str(path), "--horizon", horizon]) == 2
        assert capsys.readouterr().err == "error: --horizon: must be >= 1\n"

    def test_non_ascii_digit_in_a_contract_exits_two(self, tmp_path, capsys):
        doc = json.loads(minimal())
        doc["schedulers"][0]["request"] = "RESBH[\u00b2,10]"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["--scenario", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: schedulers[0].request: expected integer, found '\u00b2' "
            "(position 6)\n"
        )

    def test_missing_and_malformed_files(self, tmp_path, capsys):
        assert run(["--scenario", str(tmp_path / "nope.json")]) == 2
        assert "cannot read scenario" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run(["--scenario", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err
        binary = tmp_path / "binary.json"
        binary.write_bytes(b'{"horizon": 10}\xff')
        assert run(["--scenario", str(binary)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot read scenario: 'utf-8' codec can't decode byte 0xff"
        )

    def test_integer_past_the_digit_limit_in_the_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"horizon": 1' + "0" * 5000 + "}")
        assert run(["--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON: ") and "digits" in err

    def test_deeply_nested_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert run(["--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON: ") and "recursion" in err

    def test_integer_past_the_digit_limit_in_a_contract_exits_two(self, tmp_path,
                                                                  capsys):
        doc = json.loads(minimal())
        doc["timeline"][0]["request"] = "PS[1" + "0" * 5000 + "]"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["--scenario", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: timeline[0].request: integer too long (5001 digits) (position 3)\n"
        )

    @pytest.mark.parametrize("key", ["schedulers", "timeline"])
    @pytest.mark.parametrize("value", [5, "abc", {"tick": 0}],
                             ids=["int", "str", "object"])
    def test_non_list_section_exits_two(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"horizon": 10, key: value}))
        assert run(["--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"error: scenario.{key}: expected list\n"

    @pytest.mark.parametrize("case", [
        "array", "scheduler", "entry", "class", "action", "name", "parent",
        "trace-out",
    ])
    def test_unusable_input_exits_two_with_one_line(self, tmp_path, capsys, case):
        doc = json.loads(minimal())
        deploy = doc["timeline"][0]
        args = []
        expected = {
            "array": "scenario: expected a JSON object",
            "scheduler": "schedulers[0]: expected object",
            "entry": "timeline[0]: expected object",
            "class": "timeline[0].class: expected str",
            "action": "timeline[0].action: unknown action 'pause'",
            "name": "schedulers[0]: scheduler name must be non-empty",
            "parent": "timeline[0].parent: undeclared scheduler 'x'",
        }.get(case)
        if case == "array":
            doc = [doc]
        elif case == "scheduler":
            doc["schedulers"] = [5]
        elif case == "entry":
            doc["timeline"] = [5]
        elif case == "class":
            deploy["class"] = 7
        elif case == "action":
            deploy["action"] = "pause"
        elif case == "name":
            doc["schedulers"][0]["name"] = ""
        elif case == "parent":
            deploy["parent"] = "x"
        else:
            args = ["--trace-out", str(tmp_path)]
            err = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    str(tmp_path))
            expected = f"cannot write output: {err}"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert run(["--scenario", str(path), *args]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("fault", ["directory", "no-parent", "empty"])
    @pytest.mark.parametrize("other", ["missing", "existing", "dangling-link"])
    @pytest.mark.parametrize("bad", ["--trace-out", "--report-out"])
    def test_an_unwritable_output_exits_two_before_the_run(self, tmp_path, capsys,
                                                           monkeypatch, bad, other,
                                                           fault):
        """Both outputs are tried before the run: one that cannot be written,
        an empty path among them, exits 2 with one line, no scenario is run,
        and no output file is made or changed."""
        monkeypatch.setattr(cli, "run_scenario", lambda scenario: pytest.fail("ran"))
        kept = tmp_path / "kept.txt"
        if other == "existing":
            kept.write_text("old")
        elif other == "dangling-link":
            kept.symlink_to(tmp_path / "target.txt")
        if fault == "directory":
            path = tmp_path / "out"
            path.mkdir()
            err = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        else:
            path = "" if fault == "empty" else tmp_path / "nodir" / "out"
            err = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
        good = "--report-out" if bad == "--trace-out" else "--trace-out"
        code = run(["--scenario", str(SCENARIOS / "stride.json"),
                    good, str(kept), bad, str(path)])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: cannot write output: {err}\n")
        made = set() if other == "missing" else {"kept.txt"}
        if fault == "directory":
            made.add("out")
        assert {p.name for p in tmp_path.rglob("*")} == made
        if other == "existing":
            assert kept.read_text() == "old"
        elif other == "dangling-link":
            assert kept.is_symlink()

    @pytest.mark.parametrize("case", ["report-links-to-trace", "trace-is-scenario",
                                      "report-hard-links-trace", "trace-hard-links-scenario"])
    def test_outputs_that_name_one_file_exit_two_before_the_run(self, tmp_path, capsys,
                                                                monkeypatch, case):
        """The trace would overwrite the report or the scenario: unusable
        input, found through symbolic and hard links too (a hard link shares
        its file's inode, not its real path). It exits 2 with one line, no
        scenario is run, and no file is made or changed."""
        monkeypatch.setattr(cli, "run_scenario", lambda scenario: pytest.fail("ran"))
        scenario = tmp_path / "scenario.json"
        scenario.write_text(minimal())
        trace = tmp_path / "trace.csv"
        link = tmp_path / "link.txt"
        if case.startswith("report"):
            if case == "report-links-to-trace":
                link.symlink_to(trace)  # dangling: trace.csv is not made
            else:
                trace.write_text("old")
                os.link(trace, link)
            outputs = ["--trace-out", str(trace), "--report-out", str(link)]
            expected = "--report-out names the same file as --trace-out"
        else:
            if case == "trace-hard-links-scenario":
                os.link(scenario, trace)
            else:
                trace = scenario
            outputs = ["--trace-out", str(trace)]
            expected = "--trace-out names the same file as --scenario"
        names = {p.name for p in tmp_path.iterdir()}
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.exists()}
        assert run(["--scenario", str(scenario), *outputs]) == 2
        assert capsys.readouterr() == ("", f"error: {expected}\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.exists()} == before
        assert {p.name for p in tmp_path.iterdir()} == names
        assert scenario.read_text() == minimal()

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "--scenario" in capsys.readouterr().out

    def test_usage_error_exits_two(self, capsys):
        assert run([]) == 2
        capsys.readouterr()


FLAGS = ("--scenario", "--trace-out", "--report-out", "--seed", "--horizon",
         "--allow-reject")


class TestArgs:
    def usage_error(self, capsys, argv, message):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: hiersched ")
        assert lines[-1] == f"hiersched: error: {message}"

    def test_help_lists_every_flag_on_stdout(self, capsys):
        for flag in ("--help", "-h"):
            assert run(["--scenario", "x.json", flag]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert captured.out.startswith("usage: hiersched ")
            for name in FLAGS:
                assert f"  {name}" in captured.out

    def test_a_value_may_follow_an_equals_sign(self, tmp_path, capsys):
        report = tmp_path / "r.txt"
        code = run([f"--scenario={SCENARIOS / 'stride.json'}",
                    f"--report-out={report}", "--seed=-4"])
        assert code == 0
        assert report.read_text() == capsys.readouterr().out

    def test_the_last_of_a_repeated_flag_wins(self, tmp_path, capsys):
        first, last = tmp_path / "first.txt", tmp_path / "last.txt"
        code = run(["--scenario", str(tmp_path / "missing.json"),
                    "--report-out", str(first),
                    "--scenario", str(SCENARIOS / "stride.json"),
                    "--report-out", str(last), "--horizon", "5", "--horizon=1000"])
        assert code == 0
        assert not first.exists()
        assert last.read_text().endswith("violations=0 conservation=ok\n")

    def test_scenario_is_required(self, capsys):
        self.usage_error(capsys, ["--seed", "1"],
                         "the following arguments are required: --scenario")

    @pytest.mark.parametrize("flag", FLAGS[:5])
    def test_a_flag_without_its_value(self, capsys, flag):
        self.usage_error(capsys, ["--scenario", "x.json", flag],
                         f"argument {flag}: expected one argument")
        self.usage_error(capsys, [flag, "--allow-reject", "--scenario", "x.json"],
                         f"argument {flag}: expected one argument")

    @pytest.mark.parametrize("flag", ["--seed", "--horizon"])
    @pytest.mark.parametrize("value", ["x", "1.5", "", "--3"])
    def test_a_non_integer_seed_or_horizon(self, capsys, flag, value):
        self.usage_error(capsys, ["--scenario", "x.json", f"{flag}={value}"],
                         f"argument {flag}: invalid int value: {value!r}")

    @pytest.mark.parametrize("arg", ["--bogus", "--scen", "--allow-reject=1",
                                     "stray", "-s"])
    def test_an_unknown_flag_or_a_stray_argument(self, capsys, arg):
        self.usage_error(capsys, ["--scenario", "x.json", arg],
                         f"unrecognized argument: {arg}")

    @staticmethod
    def modules_a_run_adds(tmp_path, scenario):
        """The modules a clean `cli.run` of `scenario` (rejections allowed)
        loads over a bare interpreter."""
        show = "import sys; print(' '.join(sorted(sys.modules)))"
        run_cli = ("import sys; from hiersched import cli; "
                   "code = cli.run(['--scenario', sys.argv[1], '--allow-reject']); "
                   f"{show}; sys.exit(code)")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        loaded = []
        for code in (show, run_cli):
            done = subprocess.run(
                [sys.executable, "-c", code, str(SCENARIOS / scenario)],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            loaded.append(set(done.stdout.splitlines()[-1].split()))
        base, after = loaded
        assert "hiersched.cli" in after - base
        return after - base

    def test_a_run_loads_no_argument_parser(self, tmp_path):
        """argparse brings gettext and locale with it, some 4 ms of every
        start; none of the three may come back through the CLI."""
        added = self.modules_a_run_adds(tmp_path, "stride.json")
        assert not {"argparse", "gettext", "locale"} & added

    @pytest.mark.parametrize("scenario", ["stride.json", "overcommit.json",
                                          "reallocation.json"])
    def test_a_run_loads_no_fractions(self, tmp_path, scenario):
        """Admission sums integers; `fractions` brings `decimal` with it, some
        3 ms of every start. Neither may load in a run, on the rejection and
        degradation paths either, which these scenarios take."""
        added = self.modules_a_run_adds(tmp_path, scenario)
        assert not {"fractions", "decimal"} & added


class TestMain:
    """`main`, the command's entry point, freezes the heap once `run` is
    done, so the interpreter's collections at exit skip it; `run` never
    freezes."""

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_main_exits_with_the_status_of_run_and_freezes_once_after_it(
            self, monkeypatch, code):
        calls = []
        monkeypatch.setattr(cli, "run", lambda: calls.append("run") or code)
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == code
        assert calls == ["run", "freeze"]

    def test_run_does_not_freeze(self, tmp_path, capsys):
        frozen = gc.get_freeze_count()
        assert run(["--scenario", str(SCENARIOS / "stride.json"),
                    "--trace-out", str(tmp_path / "trace.csv")]) == 0
        capsys.readouterr()
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("scenario, code", [("stride.json", 0), ("overcommit.json", 1)])
    def test_the_command_writes_what_run_writes(self, tmp_path, capsys, scenario, code):
        """Skipping the collections at exit loses no output: the command's
        trace, report and stdout are those of an in-process `run`."""
        outputs = {}
        for side in ("run", "command"):
            (tmp_path / side).mkdir()
            argv = ["--scenario", str(SCENARIOS / scenario),
                    "--trace-out", str(tmp_path / side / "trace.csv"),
                    "--report-out", str(tmp_path / side / "report.txt")]
            if side == "run":
                assert run(argv) == code
                stdout = capsys.readouterr().out.encode()
            else:
                env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
                done = subprocess.run([sys.executable, "-m", "hiersched", *argv],
                                      cwd=tmp_path, env=env, capture_output=True,
                                      timeout=120)
                assert done.returncode == code, done.stderr
                stdout = done.stdout
            outputs[side] = (stdout, (tmp_path / side / "trace.csv").read_bytes(),
                             (tmp_path / side / "report.txt").read_bytes())
        assert outputs["command"] == outputs["run"]


class TestBenchWraps:
    """bench/traced.py wraps package names by attribute; a rename or removal
    of one of them breaks the benchmark's traced runs."""

    def traced(self, tmp_path, mode, *outputs):
        out = tmp_path / f"{mode}.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "traced.py"), mode,
             str(SCENARIOS / "stride.json"), *map(str, outputs), str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(out.read_text())

    def test_mirror_runs_the_cli(self, tmp_path):
        got = self.traced(tmp_path, "mirror", tmp_path / "t.csv", tmp_path / "r.txt")
        assert got["counts"]["exit"] == 0

    def test_mirror_times_the_share_check(self, tmp_path):
        # the report's share rows come from `check_share`, the name the
        # bench wraps for verify.share_s; a private walk would leave it at 0
        got = self.traced(tmp_path, "mirror", tmp_path / "t.csv", tmp_path / "r.txt")
        assert "verify.check_share" in {span[0] for span in got["spans"]}

    def test_the_trace_file_is_the_one_text_to_csv_returns(self, tmp_path,
                                                           monkeypatch):
        # traced.py reads the CSV's size (engine.csv_mb) from what to_csv
        # returns; a writer that bypassed it would leave that count unset
        texts, to_csv = [], Trace.to_csv

        def kept(trace):
            texts.append(to_csv(trace))
            return texts[-1]

        monkeypatch.setattr(Trace, "to_csv", kept)
        trace_out = tmp_path / "t.csv"
        run(["--scenario", str(SCENARIOS / "hard_guarantees.json"),
             "--trace-out", str(trace_out)])
        assert len(texts) == 1
        assert trace_out.read_bytes() == texts[0].encode("utf-8")

    def test_layers_times_compose(self, tmp_path):
        got = self.traced(tmp_path, "layers")
        assert "hierarchy.compose" in {span[0] for span in got["spans"]}
