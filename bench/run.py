"""Layered benchmark for hiersched.

    python3 bench/run.py --workload churn --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60 --trace 1

Each run of the program is a fresh `python3 -m hiersched` child process,
started one at a time from this process. The scenario is generated from
--seed by bench/workloads.py, which does not import hiersched.

--trace 0 measures the end-to-end metrics with tracing off. Each round is
a reference probe (bench/reference.py, fixed work independent of
hiersched), one set-up probe (a fresh process that imports hiersched and
parses the scenario) and one CLI run; rounds repeat until --seconds are
spent and the medians are reported.

On a shared host the speed of a process drifts by tens of percent over
minutes, so the medians of raw wall times of two runs of this benchmark
disagree. Each wall time is therefore scaled by REFERENCE_S over the
reference probe's time in the same round: the reported seconds are those
of a machine on which the reference takes REFERENCE_S. The unscaled times
are printed and recorded too.

--trace 1 alternates untraced CLI runs with a traced run: bench/traced.py
runs the same CLI call with spans around the public functions of each
module, then replays the timeline through deploy/undeploy. It reports the
per-layer metrics (medians over traced runs) and the tracing overhead.

Every CLI run is checked: exit status 0 or 1, one RUN or IDLE row per tick,
one report deploy line per timeline deploy with the replay's outcome, and
the same trace and report digests and simulated counts on every run.
Verifier violations are output, not failures.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A full record with provenance, every sample, digests and spans is
written under .bench_out/. With --workload all the workloads are
interleaved and each metric name is prefixed with its workload.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_ROUNDS = 5  # CLI runs per workload even when --seconds is short
MIN_TRACED = 3
# Timings are scaled to the machine speed at which bench/reference.py takes
# this long: each run's wall time is multiplied by REFERENCE_S over the
# reference time measured just before it.
REFERENCE_S = 0.2

SETUP_CODE = (
    "import sys, hiersched\n"
    "hiersched.parse_scenario(open(sys.argv[1], encoding='utf-8').read())\n"
)

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}

# per-layer metric -> (unit, the end-to-end metric it should move, the
# workloads on which it should move it, most first)
LAYERS = {
    "cli.parse_s": ("s", "setup_s", ["mass_admission"]),
    "contracts.parse_us": ("us", "setup_s", ["mass_admission"]),
    "deployment.deploy_s": ("s", "run_s", ["mass_admission", "churn"]),
    "deployment.deploy_p50_us": ("us", "run_s", ["mass_admission", "churn"]),
    "deployment.deploy_p95_us": ("us", "run_s", ["mass_admission", "churn"]),
    "deployment.undeploy_s": ("s", "run_s", ["churn"]),
    "deployment.rollback_s": ("s", "run_s", ["mass_admission", "churn"]),
    "deployment.deploys": ("count", "run_s", ["mass_admission", "churn"]),
    "deployment.rejected": ("count", "run_s", ["mass_admission", "churn"]),
    "deployment.degraded": ("count", "run_s", ["churn"]),
    "deployment.admit_ratio": ("ratio", "run_s", ["mass_admission"]),
    "hierarchy.compose_us": ("us", "run_s", ["mass_admission"]),
    "hierarchy.lookup_us": ("us", "run_s", ["mass_admission"]),
    "hierarchy.nodes": ("count", "run_s", ["mass_admission"]),
    "hierarchy.apps": ("count", "run_s", ["mass_admission"]),
    "engine.self_s": ("s", "run_s", ["long_horizon", "churn"]),
    "engine.us_per_tick": ("us", "run_s", ["long_horizon", "churn"]),
    "engine.events": ("count", "peak_rss_mb", ["long_horizon"]),
    "engine.idle_ticks": ("count", "run_s", ["long_horizon"]),
    "engine.deadline_misses": ("count", "run_s", ["long_horizon"]),
    "engine.csv_s": ("s", "run_s", ["long_horizon"]),
    "engine.csv_mb": ("MB", "run_s", ["long_horizon"]),
    "verify.report_s": ("s", "run_s", ["churn", "long_horizon"]),
    "verify.reservation_s": ("s", "run_s", ["long_horizon"]),
    "verify.share_s": ("s", "run_s", ["churn"]),
    "verify.conservation_s": ("s", "run_s", ["long_horizon"]),
    "verify.violations": ("count", "run_s", ["churn", "long_horizon"]),
    "trace.overhead_frac": ("ratio", "run_s", list(workloads.WORKLOADS)),
}

# which self time the traced run should show largest, and why it matters
EXPECTED_LARGEST = {
    "long_horizon": ("engine.self_s", "ROADMAP item 3: event-driven engine"),
    "mass_admission": ("deployment", "ROADMAP item 2: deepcopy rollback, "
                       "linear tree scans"),
    "churn": ("verify.share_s", "ROADMAP item 3: single-pass verifier"),
}

NOTES = {
    "mass_admission": "engine.self_s here includes Simulation._sync_runtimes "
                      "after each deploy, which calls app_slot for every live "
                      "app: O(apps^2) per deploy. The replay that times "
                      "deployment.* runs no simulation, so it leaves this out",
}

_DEPLOY_LINE = re.compile(r"^deploy tick=(\d+) app=(\S+) (.*)$")


def _fail_hard(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(cmd, err_path):
    """Run one child to completion through bench/launch.py; return its
    (wall seconds, exit code, peak RSS in MiB)."""
    with open(err_path, "wb") as err:
        out = subprocess.run([sys.executable, str(HERE / "launch.py"), *cmd],
                             cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                             stderr=err, check=False)
    if out.returncode != 0:
        _fail_hard(f"launcher exited {out.returncode} running {cmd}")
    secs, code, maxrss_kb = out.stdout.split()
    return float(secs), int(code), int(maxrss_kb) / 1024


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "hiersched").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Workload:
    """One workload's scenario, expected outputs and samples."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.scenario = OUT / f"{name}-s{seed}.json"
        workloads.write(name, seed, str(self.scenario))
        self.scenario_sha = _sha(self.scenario.read_bytes())
        doc = json.loads(self.scenario.read_text())
        self.horizon = doc["horizon"]
        self.n_deploys = sum(e["action"] == "deploy" for e in doc["timeline"])
        self.trace_csv = OUT / f"{name}-s{seed}.trace.csv"
        self.report = OUT / f"{name}-s{seed}.report.txt"
        self.err = OUT / f"{name}-s{seed}.stderr.txt"
        # wall times as measured, and scaled to the nominal machine speed
        self.raw = {"reference_s": [], "setup_s": [], "run_s": [], "traced_s": []}
        self.samples = {"run_s": [], "setup_s": [], "peak_rss_mb": [],
                        "traced_s": []}
        self.layer_samples: dict = {}
        self.self_samples: dict = {}  # layer -> self times of traced runs
        self.spans: list = []
        self.deploy_samples = None  # (deploys timed, replays) of a traced run
        self.attempted = 0
        self.failures: list = []
        self.expected = None  # (trace sha, report sha, counts) of run one
        self.replay_decisions = None

    # ------------------------------------------------------------ children

    def round(self, trace, run_id):
        """One reference probe, then the measured runs it scales."""
        ref = self.probe([sys.executable, str(HERE / "reference.py")])
        self.raw["reference_s"].append(ref)
        scale = REFERENCE_S / ref
        timed = [("run_s", self.cli_run())]
        if trace:
            timed.append(("traced_s", self.traced_run(run_id)))
        else:
            timed.append(("setup_s", self.probe(
                [sys.executable, "-c", SETUP_CODE, str(self.scenario)])))
        for name, secs in timed:
            if secs is not None:
                self.raw[name].append(secs)
                self.samples[name].append(secs * scale)

    def probe(self, cmd):
        """Wall time of a child that must succeed, or stop the benchmark."""
        secs, code, _ = _spawn(cmd, self.err)
        if code != 0:
            _fail_hard(f"{self.name}: {cmd[1]} exited {code}: "
                       + self.err.read_text()[-2000:])
        return secs

    def cli_run(self):
        for path in (self.trace_csv, self.report):
            path.unlink(missing_ok=True)
        secs, code, peak_mb = _spawn([
            sys.executable, "-m", "hiersched",
            "--scenario", str(self.scenario),
            "--trace-out", str(self.trace_csv),
            "--report-out", str(self.report),
            "--allow-reject",
        ], self.err)
        if not self.check(code, "cli"):
            return None
        self.samples["peak_rss_mb"].append(peak_mb)
        return secs

    def traced_run(self, run_id):
        for path in (self.trace_csv, self.report):
            path.unlink(missing_ok=True)
        mirror_json = OUT / f"{self.name}-s{self.seed}.mirror.json"
        secs, code, _ = _spawn([
            sys.executable, str(HERE / "traced.py"), "mirror",
            str(self.scenario), str(self.trace_csv), str(self.report),
            str(mirror_json),
        ], self.err)
        if code != 0:
            self.attempted += 1
            self.fail(f"traced run exited {code}: "
                      + self.err.read_text()[-2000:])
            return None
        mirror = json.loads(mirror_json.read_text())
        if not self.check(mirror["counts"]["exit"], "traced"):
            return None
        layers = self.layers_run()
        if layers is None:
            return None
        self.deploy_samples = (
            sum(s[0] == "deployment.deploy" for s in layers["spans"]),
            layers["counts"]["replays"],
        )
        for phase, data in (("mirror", mirror), ("layers", layers)):
            spans = data["spans"]
            covered = [0] * len(spans)  # children run one after another
            for _, start, end, parent, _ in spans:
                if parent >= 0:
                    covered[parent] += end - start
            for i, (name, start, end, parent, note) in enumerate(spans):
                self.spans.append({
                    "run": run_id, "phase": phase, "index": i, "name": name,
                    "start_ns": start, "end_ns": end, "parent": parent,
                    "self_ns": end - start - covered[i], "note": note,
                })
        values = _layer_metrics(self, mirror, layers)
        in_run = values.pop("deployment.in_run_s")
        for key, value in values.items():
            self.layer_samples.setdefault(key, []).append(value)
        for key, value in _self_times(values, in_run, secs).items():
            self.self_samples.setdefault(key, []).append(value)
        return secs

    def layers_run(self):
        out = OUT / f"{self.name}-s{self.seed}.layers.json"
        _, code, _ = _spawn([
            sys.executable, str(HERE / "traced.py"), "layers",
            str(self.scenario), str(out),
        ], self.err)
        if code != 0:
            self.attempted += 1
            self.fail(f"replay exited {code}: " + self.err.read_text()[-2000:])
            return None
        layers = json.loads(out.read_text())
        decisions = [tuple(d) for d in layers["decisions"]]
        if self.replay_decisions is None:
            self.replay_decisions = decisions
        elif decisions != self.replay_decisions:
            self.attempted += 1
            self.fail("replay outcomes differ from the first replay's")
            return None
        return layers

    # --------------------------------------------------------------- checks

    def fail(self, why):
        self.failures.append(why)
        print(f"{self.name}: FAILED: {why}", file=sys.stderr)

    def check(self, code, kind):
        """Check one run's exit status and files; True when it passed."""
        self.attempted += 1
        if code not in (0, 1):
            self.fail(f"{kind} run exited {code}: "
                      + self.err.read_text()[-2000:])
            return False
        try:
            trace_bytes = self.trace_csv.read_bytes()
            report_bytes = self.report.read_bytes()
        except OSError as e:
            self.fail(f"{kind} run left no output: {e}")
            return False
        counts = Counter()
        ticks = []
        rows = csv.reader(io.StringIO(trace_bytes.decode()))
        next(rows, None)
        for row in rows:
            counts["rows"] += 1
            counts[row[1]] += 1
            if row[1] in ("RUN", "IDLE"):
                ticks.append(int(row[0]))
        if ticks != list(range(self.horizon)):
            self.fail(f"{kind} run: trace is not one RUN or IDLE row per tick")
            return False
        decisions = []
        for line in report_bytes.decode().splitlines():
            m = _DEPLOY_LINE.match(line)
            if m:
                decisions.append((int(m[1]), m[2], m[3]))
                counts["outcome=" + m[3].split()[0].split("=")[1]] += 1
            elif line.startswith("violations="):
                counts["violations"] = int(line.split()[0].split("=")[1])
        if len(decisions) != self.n_deploys:
            self.fail(f"{kind} run: {len(decisions)} deploy lines for "
                      f"{self.n_deploys} timeline deploys")
            return False
        if self.replay_decisions is not None and decisions != self.replay_decisions:
            self.fail(f"{kind} run: deploy outcomes differ from the replay's")
            return False
        counts["exit"] = code
        result = (_sha(trace_bytes), _sha(report_bytes), dict(sorted(counts.items())))
        if self.expected is None:
            self.expected = result
        elif result != self.expected:
            self.fail(f"{kind} run: outputs differ from the first run's")
            return False
        return True

    # -------------------------------------------------------------- results

    def metrics(self, trace):
        if not trace:
            out = {k: statistics.median(self.samples[k])
                   for k in ("run_s", "setup_s", "peak_rss_mb")
                   if self.samples[k]}
            out["success_rate"] = 1 - len(self.failures) / max(1, self.attempted)
            return out
        out = {k: statistics.median(v) for k, v in self.layer_samples.items()}
        if self.samples["traced_s"] and self.samples["run_s"]:
            out["trace.overhead_frac"] = (
                statistics.median(self.samples["traced_s"])
                / statistics.median(self.samples["run_s"]) - 1
            )
        return out


def _span_sum(spans, name, note=None):
    return sum(
        (s[2] - s[1]) / 1e9 for s in spans
        if s[0] == name and (note is None or s[4] == note)
    )


def _span_durations(spans, name):
    return [(s[2] - s[1]) / 1e9 for s in spans if s[0] == name]


def _layer_metrics(w, mirror, layers):
    """Per-layer values of one traced run."""
    ms, ls = mirror["spans"], layers["spans"]
    mc, lc = mirror["counts"], layers["counts"]
    replays = lc["replays"]
    deploys = sorted(_span_durations(ls, "deployment.deploy"))
    outcomes = Counter(s[4] for s in ls if s[0] == "deployment.deploy")
    n_deploys = len(deploys) // replays
    # totals are per replay; the latency percentiles pool every replay
    deploy_s = _span_sum(ls, "deployment.deploy") / replays
    undeploy_s = _span_sum(ls, "deployment.undeploy") / replays
    q = statistics.quantiles(deploys, n=20)
    # deploys inside the run, not the replay's, so that noise between two
    # processes cannot drive the engine's self time below zero
    in_run = (_span_sum(ms, "deployment.deploy")
              + _span_sum(ms, "deployment.undeploy"))
    engine_self = _span_sum(ms, "engine.run_scenario") - in_run
    lookup = [s for s in ls if s[0] == "hierarchy.app_slot"][0]
    return {
        "cli.parse_s": _span_sum(ms, "cli.parse_scenario"),
        "contracts.parse_us": _span_sum(ls, "contracts.parse_contract")
        * 1e6 / lc["contracts"],
        "deployment.deploy_s": deploy_s,
        "deployment.deploy_p50_us": statistics.median(deploys) * 1e6,
        "deployment.deploy_p95_us": q[18] * 1e6,
        "deployment.undeploy_s": undeploy_s,
        "deployment.rollback_s": _span_sum(ls, "deployment.deploy", "REJECTED")
        / replays,
        "deployment.deploys": n_deploys,
        "deployment.rejected": outcomes["REJECTED"] // replays,
        "deployment.degraded": outcomes["DEGRADED"] // replays,
        "deployment.admit_ratio":
            (n_deploys - outcomes["REJECTED"] // replays) / n_deploys,
        "hierarchy.compose_us":
            statistics.median(_span_durations(ls, "hierarchy.compose")) * 1e6,
        "hierarchy.lookup_us":
            (lookup[2] - lookup[1]) / 1e3 / max(1, int(lookup[4])),
        "hierarchy.nodes": lc["nodes"],
        "hierarchy.apps": lc["apps"],
        "engine.self_s": engine_self,
        "engine.us_per_tick": engine_self * 1e6 / w.horizon,
        "engine.events": mc["events"],
        "engine.idle_ticks": mc["idle_ticks"],
        "engine.deadline_misses": mc["deadline_misses"],
        "engine.csv_s": _span_sum(ms, "engine.to_csv"),
        "engine.csv_mb": mc["csv_bytes"] / 1e6,
        "verify.report_s": _span_sum(ms, "verify.build_report"),
        "verify.reservation_s": _span_sum(ms, "verify.check_reservation"),
        "verify.share_s": _span_sum(ms, "verify.check_share"),
        "verify.conservation_s": _span_sum(ms, "verify.check_conservation"),
        "verify.violations": mc["violations"],
        "deployment.in_run_s": in_run,
    }


def _self_times(values, deployment, traced_total):
    """Self time of each layer in one traced CLI run, in seconds."""
    verify_parts = (values["verify.reservation_s"] + values["verify.share_s"]
                    + values["verify.conservation_s"])
    counted = (values["cli.parse_s"] + deployment + values["engine.self_s"]
               + values["engine.csv_s"] + values["verify.report_s"])
    return {
        "cli.parse_s": values["cli.parse_s"],
        "deployment": deployment,
        "engine.self_s": values["engine.self_s"],
        "engine.csv_s": values["engine.csv_s"],
        "verify.reservation_s": values["verify.reservation_s"],
        "verify.share_s": values["verify.share_s"],
        "verify.conservation_s": values["verify.conservation_s"],
        "verify.build_report_self": values["verify.report_s"] - verify_parts,
        "process_and_io": traced_total - counted,
    }


def _provenance(seed):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "loadavg_before": os.getloadavg(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _print_summary(w, trace, metrics):
    print(f"== {w.name} seed={w.seed} horizon={w.horizon} "
          f"deploys={w.n_deploys} scenario_sha256={w.scenario_sha[:16]}")
    print(f"   attempted={w.attempted} failed={len(w.failures)} "
          f"fail_rate={len(w.failures) / max(1, w.attempted):.4f}")
    if w.expected is not None:
        trace_sha, report_sha, counts = w.expected
        print(f"   trace_sha256={trace_sha} report_sha256={report_sha}")
        print(f"   counts {json.dumps(counts, sort_keys=True)}")
    ref = w.raw["reference_s"]
    print(f"   reference work took median {statistics.median(ref):.4g} s "
          f"(n={len(ref)}); times below are scaled to {REFERENCE_S} s")
    if not trace:
        for name, unit in END_TO_END.items():
            samples = w.samples.get(name)
            if samples:
                q1, q3 = _quartiles(samples)
                print(f"   {name:<14} {metrics[name]:.6g} {unit}  median of "
                      f"n={len(samples)}  q1={q1:.6g} q3={q3:.6g} "
                      f"min={min(samples):.6g} max={max(samples):.6g}")
                if name in w.raw:
                    print(f"   {'':<14} unscaled median "
                          f"{statistics.median(w.raw[name]):.6g} {unit}")
            elif name in metrics:
                print(f"   {name:<14} {metrics[name]:.6g} {unit}")
        return
    n = len(w.raw["traced_s"])
    print(f"   per-layer medians of n={n} traced runs "
          f"(untraced run_s n={len(w.samples['run_s'])})")
    for name, (unit, e2e, where) in LAYERS.items():
        if name in metrics:
            moves = ", ".join(where)
            print(f"   {name:<26} {metrics[name]:<12.6g} {unit:<6} "
                  f"should move {e2e} on {moves}")
    if w.deploy_samples:
        print("   deploy latency percentiles pool %d deploys over %d replays "
              "of the timeline" % w.deploy_samples)
    if n:
        total = statistics.median(w.raw["traced_s"])
        ranked = sorted(((k, statistics.median(v))
                         for k, v in w.self_samples.items()),
                        key=lambda kv: -kv[1])
        print(f"   self time of the traced CLI run ({total:.4g} s):")
        for name, secs in ranked:
            print(f"     {name:<26} {secs:.4g} s  {secs / total:6.1%}")
        want, why = EXPECTED_LARGEST[w.name]
        print(f"   largest self time: {ranked[0][0]} (expected {want}; {why})")
    if w.name in NOTES:
        print(f"   note: {NOTES[w.name]}")


def main(argv=None):
    p = argparse.ArgumentParser(description="Layered benchmark for hiersched.")
    p.add_argument("--workload", required=True,
                   choices=list(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "hiersched" / "cli.py").is_file():
        _fail_hard(f"no hiersched sources under {SRC}")
    OUT.mkdir(exist_ok=True)
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    prov = _provenance(args.seed)
    ws = [Workload(name, args.seed) for name in names]
    for w in ws:
        # compile bytecode before timing; take the replay's deploy outcomes
        w.probe([sys.executable, "-c", SETUP_CODE, str(w.scenario)])
        w.layers_run()

    start = time.perf_counter()
    deadline = start + args.seconds
    rounds = 0
    while True:
        t0 = time.perf_counter()
        for w in ws:
            w.round(args.trace, rounds)
        rounds += 1
        took = time.perf_counter() - t0
        enough = rounds >= (MIN_TRACED if args.trace else MIN_ROUNDS)
        if enough and time.perf_counter() + took > deadline:
            break
    prov["loadavg_after"] = os.getloadavg()
    prov["measured_s"] = time.perf_counter() - start
    prov["rounds"] = rounds

    units = {**END_TO_END, **{k: v[0] for k, v in LAYERS.items()}}
    metrics_out = {}
    record = {"provenance": prov, "trace": args.trace, "workloads": {}}
    for w in ws:
        metrics = w.metrics(args.trace)
        _print_summary(w, args.trace, metrics)
        prefix = f"{w.name}/" if len(ws) > 1 else ""
        for name, value in metrics.items():
            metrics_out[prefix + name] = {"value": value, "unit": units[name]}
        record["workloads"][w.name] = {
            "scenario": w.scenario.name, "scenario_sha256": w.scenario_sha,
            "horizon": w.horizon, "deploys": w.n_deploys,
            "attempted": w.attempted, "failures": w.failures,
            "expected": w.expected, "samples": w.samples,
            "unscaled": w.raw, "layer_samples": w.layer_samples,
            "self_samples": w.self_samples,
            "metrics": metrics,
        }
        if w.spans:
            spans_path = OUT / f"{w.name}-s{w.seed}.spans.jsonl"
            with open(spans_path, "w", encoding="utf-8") as f:
                for s in w.spans:
                    f.write(json.dumps(s) + "\n")
    tag = args.workload
    result_path = OUT / f"result-{tag}-s{args.seed}-t{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=list))
    print(f"provenance {json.dumps(prov)}")
    print(f"full record: {result_path.relative_to(ROOT)}")

    attempted = sum(w.attempted for w in ws)
    failed = sum(len(w.failures) for w in ws)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
