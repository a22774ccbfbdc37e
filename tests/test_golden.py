"""Pinned sha256 digests of the trace CSV and report of every shipped scenario,
and of the benchmark's workloads at seeds 1, 3 and 7.

A rerun compared with itself cannot notice that a refactor changed the
output; these digests can. Any change to the simulator, the admission
protocol or the verifier that alters a byte of either file makes them fail.
Update a digest only for an intended change of output.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hiersched.cli import run

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

GOLDEN = {
    "deployment_mix": (
        "db2c790f1218e1cda813062b850c4ac74a57abcc72903b73a660bb39649546e0",
        "5477620a413562bd391dc95e09b5200348b329f9d89d88023ec385aaae4204b5",
    ),
    "hard_guarantees": (
        "cc8f10b51b1d2a3c0febc88c38290eedc08827bb726b1054d1f4814e0adf3129",
        "2bfe8724d3b11220ef8d38155a513e5528cbab6387dc9d02c374deaa73e22a76",
    ),
    "overcommit": (
        "ae5d09e3e5e4e6d6eeb625d5bcde677163d7721f014148e8b28b2a05ceebc5ba",
        "a58345e2f7d67e163c100a1add05806afe37f91faf65a48feca01c6d1c2c1537",
    ),
    "pertinence": (
        "e4640829d24124fa045e200d02f95847a06c446eb19f8e4fcf4e253db1144705",
        "82936c48ff20ae497f08c8c1d0a53d48d9f9df1b96d0520166f1642d002eb304",
    ),
    "reallocation": (
        "cadbb3e6164626eeec8d6f9649c68d295a7c7fa5ac73d9ea13f44ad36bcc8d2f",
        "659e7cd5080309967be542f80b7833b464e9b533fb9abaafaca2e18a9104e654",
    ),
    "stride": (
        "de13125d585c4909c1b843fe45b510b3c514cabc3cb45382256a10257ce3140d",
        "f048d9b87920282ec1e838b5171ce61718e33166feea4ee3b6fd6346ccd9066f",
    ),
}

# bench/workloads.py at seeds 1, 3 and 7; the generator reads only bench/, so
# the scenarios do not move with the code under test
BENCH_GOLDEN = {
    ("long_horizon", 1): (
        "959debc6d2673ced48a1525a3d4a184e7c69f20a1c50c88f2ea50909b14cee1e",
        "4fe7703138141d23eba5e44fef5b2f8aaa8efc1ddc5a43e74159d77465a77212",
    ),
    ("mass_admission", 1): (
        "bb101f471200309c7728a6c05ae349ea302e5d86265e829ac3b1221c995bea78",
        "b05d701ab91810ef8257bb35915407e80e2aed77959585a72065b6ffb6f664dd",
    ),
    ("churn", 1): (
        "e5f46afd7f32b92092df077609b2f4f018d8e46f3c43736733e1bc7f8c192362",
        "304ee83c3f0bc2334a239a8a87a8cd87155ff00a007b71f4fd37e10f4bdca237",
    ),
    ("long_horizon", 3): (
        "728a7569fcbf23bf898e99713fecac54186734325c96c607d46217c139e5d6e8",
        "31cd94ee63119737875eb3197987c33f6a2d91e9cbc43a8e582d17a31825dbec",
    ),
    ("mass_admission", 3): (
        "4e62de02a13a80b68d70bbce0ebb23fbaa3f38d74ebe38c13033d330bc7ae122",
        "20af17e441f6566b96103aa03b16026a5ded55a8c5a44d01f9fd393b0e62469b",
    ),
    ("churn", 3): (
        "11d136a1fb90f64f58264cae8dec085f3d37767bea0e6fd5b4f6fbcfa5b2fd45",
        "6147ff07453f71ecee01b9045e088f4253c578e4df024849694254871916e536",
    ),
    ("long_horizon", 7): (
        "f7b26296096c0a96b4683a361b65fd2ce4c1946dbfa6f9feede7340c42c4e86a",
        "7bd0d6bb06596cdb1ae201e302d9586ba0c14c1cdc4b015733ae3a79b022f724",
    ),
    ("mass_admission", 7): (
        "397ed45f9b4c87ccd07c52188b9805eaaa80af6cd3f2ee02fd12273d51f1fcc1",
        "e0ff8b091c9743d57a722c0f867352d2ab82abbb4c1b8e956ac795a84f710597",
    ),
    ("churn", 7): (
        "9a02aca71930de87a7639fd458a906b30351adc9ee1afa1f1d31172162f7f3fe",
        "f6f4e18dbfd12d278a432052d3c91d29bbb07614ca440f78cfb7c6c2f940018f",
    ),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_shipped_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name, tmp_path):
    trace = tmp_path / "trace.csv"
    report = tmp_path / "report.txt"
    code = run([
        "--scenario", str(SCENARIOS / f"{name}.json"),
        "--trace-out", str(trace),
        "--report-out", str(report),
        "--allow-reject",
    ])
    assert code == 0
    assert (_sha256(trace), _sha256(report)) == GOLDEN[name]


# the seed-1 cases keep the bare workload names they were first pinned under
@pytest.mark.parametrize("name, seed", sorted(BENCH_GOLDEN), ids=[
    name if seed == 1 else f"{name}-seed{seed}" for name, seed in sorted(BENCH_GOLDEN)
])
def test_bench_workload_digests(name, seed, tmp_path):
    scenario = tmp_path / f"{name}.json"
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "workloads.py"),
         "--workload", name, "--seed", str(seed), "--out", str(scenario)],
        check=True, capture_output=True, timeout=120,
    )
    trace = tmp_path / "trace.csv"
    report = tmp_path / "report.txt"
    code = run([
        "--scenario", str(scenario),
        "--trace-out", str(trace),
        "--report-out", str(report),
        "--allow-reject",
    ])
    assert code == 0
    assert (_sha256(trace), _sha256(report)) == BENCH_GOLDEN[name, seed]


def _run_module(tmp_path, *flags):
    """Run `python <flags> -m hiersched` on deployment_mix.json in a new
    interpreter that compiles every module afresh, as the benchmark runs
    it; check that it exits 0 and that its files carry the pinned digests."""
    name = "deployment_mix"
    trace = tmp_path / "trace.csv"
    report = tmp_path / "report.txt"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, *flags, "-m", "hiersched",
         "--scenario", str(SCENARIOS / f"{name}.json"),
         "--trace-out", str(trace), "--report-out", str(report), "--allow-reject"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == report.read_text(encoding="utf-8")
    assert (_sha256(trace), _sha256(report)) == GOLDEN[name]


def test_module_entry_point_in_a_fresh_process(tmp_path):
    _run_module(tmp_path)


def test_module_entry_point_without_asserts(tmp_path):
    """`python -O` strips `assert` statements: no check the run relies on
    may be one."""
    _run_module(tmp_path, "-O")


def test_import_loads_no_dataclasses_in_a_fresh_process():
    """`import hiersched` loads neither `dataclasses` nor the `inspect` it
    pulls in (with `ast`, `dis`, `tokenize`, ...): every CLI run would pay
    for them at start-up."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, hiersched; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
