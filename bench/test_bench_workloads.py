"""Tests for the benchmark's scenario generator and its entry point.

Run with `PYTHONPATH=src python -m pytest bench`.
"""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from hiersched import Outcome, deploy, new_hierarchy, parse_scenario, undeploy

BENCH = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_files(name, tmp_path):
    a = workloads.write(name, 5, str(tmp_path / "a.json"))
    b = workloads.write(name, 5, str(tmp_path / "b.json"))
    c = workloads.write(name, 6, str(tmp_path / "c.json"))
    assert Path(a).read_bytes() == Path(b).read_bytes()
    assert Path(a).read_bytes() != Path(c).read_bytes()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parse_scenario_accepts_generated_files(name, seed):
    doc = workloads.generate(name, seed)
    scenario = parse_scenario(workloads.render(doc))
    assert scenario.horizon == doc["horizon"]
    assert len(scenario.timeline) == len(doc["timeline"])


@pytest.mark.parametrize("seed", [0, 1])
def test_churn_undeploys_only_admitted_apps(seed):
    """engine._do_undeploy aborts the run on an app whose deploy was
    rejected, so churn must only undeploy apps admitted by construction."""
    scenario = parse_scenario(workloads.render(workloads.generate("churn", seed)))
    h = new_hierarchy()
    live = set()
    outcomes = set()
    for entry in scenario.timeline:
        if entry.action == "deploy":
            decision = deploy(h, entry.request)
            outcomes.add(decision.outcome)
            if decision.outcome is not Outcome.REJECTED:
                live.add(entry.app_id)
        else:
            assert entry.app_id in live, entry
            undeploy(h, entry.app_id)
            live.remove(entry.app_id)
    # the probes reach the rollback and the degradation paths
    assert {Outcome.REJECTED, Outcome.DEGRADED} <= outcomes


def test_generator_imports_only_the_standard_library():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert imported <= {"__future__", "argparse", "json", "random"}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
