"""Seeded scenario generator for the benchmark workloads.

Standard library only: it never imports hiersched, so two commits under
comparison receive byte-identical inputs for the same seed.

    python3 bench/workloads.py --workload churn --seed 3 --out churn.json

Workloads (see BENCHMARK.json for why each was chosen):

long_horizon    periodic hard reservations, a best-effort CPU hog and a
                small stride pair on three leaves, run for many ticks. The
                tick loop does the work; admission does none.
mass_admission  180 apps offered 24 EDF, STRIDE and RR leaves, all deployed
                at tick 0 over a short horizon. The apps too large for any
                leaf are rejected. Admission does the work.
churn           a live population of share and best-effort apps with a
                deploy and an undeploy every ~20 ticks, plus probe deploys
                that load a fresh scheduler and are either rejected (the
                rollback path) or degrade the share leaf until they leave.
                Verification of the shares does most of the work.

The seed picks who asks for what, not how much there is: app counts, leaf
sizes, event counts and demand totals are fixed, so that the run time of a
workload barely depends on its seed.
"""

from __future__ import annotations

import argparse
import json
import random

WORKLOADS = ("long_horizon", "mass_admission", "churn")

PPM = 1_000_000

LONG_HORIZON = 10_000
LONG_PERIODS = (100, 100, 200, 400)  # one hard app per period
LONG_PERCENTS = (5, 10, 15, 20)  # CPU share of each, under edf0's 60

MASS_HORIZON = 120
MASS_LEAVES_PER_POLICY = 8  # EDF, STRIDE and RR leaves each
MASS_APPS_PER_POLICY = 54
MASS_OVERSIZE = 18  # EDF apps no leaf can host: the rejected ones
# (class, budget, period), dealt out in turn; with the share requests below
# the leaves keep enough room that no other deploy is rejected
MASS_RESERVATIONS = (
    ("RESBH", 1, 100), ("RESBH", 1, 200), ("RESBS", 1, 200),
    ("RESBH", 1, 400), ("RESBH", 3, 400), ("RESBS", 2, 400),
    ("RESBH", 2, 200), ("RESBH", 2, 400), ("RESBS", 1, 400),
)

# churn: one STRIDE leaf holds the share apps whose pairwise lag checks
# dominate verification. Its grant and the probes are sized so that every
# steady app finds room even while a probe degrades the leaf, which makes
# each undeploy target an app admitted by construction.
CHURN_HORIZON = 800
CHURN_GAP = 20  # ticks between one replacement and the next
CHURN_PROBE_EVERY = 5  # replacements per probe
CHURN_PS_APPS = 26
CHURN_PS_SHARE = (8_000, 20_000)  # ppm one share app asks for
CHURN_BE_APPS = 24
CHURN_PS_LEAF = 650_000  # ppm the share leaf asks of the root
CHURN_PS_PROBE = 350_000  # a share probe this large never fits the leaf
CHURN_HARD = 30  # ticks per 100 the hard leaf holds, full with 3 apps
# worst grant of the share leaf: root capacity left after the hard leaf,
# split pro rata with a share probe
CHURN_PS_FLOOR = (100 - CHURN_HARD) * PPM // 100 * CHURN_PS_LEAF // (
    CHURN_PS_LEAF + CHURN_PS_PROBE)
CHURN_PS_MIN = 330_000  # keep the leaf too full to host a share probe
CHURN_PS_MAX = CHURN_PS_FLOOR - 15_000

CPU_BOUND = {"kind": "CPU_BOUND"}


def _deploy(tick, app, cls, request, workload, scheduler=None):
    entry = {"tick": tick, "action": "deploy", "app": app, "class": cls,
             "request": request}
    if scheduler is not None:
        entry["scheduler"] = scheduler
    entry["workload"] = workload
    return entry


def _undeploy(tick, app):
    return {"tick": tick, "action": "undeploy", "app": app}


def _periodic(period, wcet, offset=0):
    return {"kind": "PERIODIC", "period": period, "wcet": wcet,
            "offset": offset}


def _bursty(n):
    """n BURSTY shapes whose on and off lengths spread evenly over 10..30
    ticks; the same multiset for every seed."""
    return [{"kind": "BURSTY", "on": 10 + 20 * i // max(1, n - 1),
             "off": 10 + 20 * ((i + n // 2) % n) // max(1, n - 1)}
            for i in range(n)]


def _mix(rng, n, bursty_share):
    """n workloads, a fixed share of them BURSTY, in seeded order."""
    n_bursty = round(n * bursty_share)
    kinds = _bursty(n_bursty) + [CPU_BOUND] * (n - n_bursty)
    rng.shuffle(kinds)
    return kinds


def long_horizon(rng: random.Random, seed: int) -> dict:
    schedulers = [
        {"name": "edf0", "policy": "EDF_RESERVATION",
         "request": "RESBH[60,100]"},
        {"name": "rr0", "policy": "ROUND_ROBIN", "request": "BE"},
        {"name": "st0", "policy": "STRIDE", "request": "PS[200000]",
         "quantum": 5},
    ]
    periods = list(LONG_PERIODS)
    rng.shuffle(periods)
    timeline = []
    for i, (period, percent) in enumerate(zip(periods, LONG_PERCENTS)):
        wcet = percent * period // 100
        timeline.append(_deploy(
            0, f"hard_{i}", "control", f"RESBH[{wcet},{period}]",
            _periodic(period, wcet, rng.randrange(period)),
            scheduler="edf0" if i == 0 else None,
        ))
    # the hog loads rr0 before st0 exists, so it lands on the RR leaf
    timeline.append(_deploy(0, "grinder", "batch", "BE", CPU_BOUND,
                            scheduler="rr0"))
    weight = rng.randint(20, 60) * 1000
    shapes = _bursty(2)
    rng.shuffle(shapes)
    timeline.append(_deploy(0, "stride_hi", "web", f"PS[{2 * weight}]",
                            shapes[0], scheduler="st0"))
    timeline.append(_deploy(0, "stride_lo", "web", f"PS[{weight}]",
                            shapes[1]))
    return {"horizon": LONG_HORIZON, "seed": seed, "schedulers": schedulers,
            "timeline": timeline}


def mass_admission(rng: random.Random, seed: int) -> dict:
    schedulers = []
    for i in range(MASS_LEAVES_PER_POLICY):
        schedulers += [
            {"name": f"edf{i}", "policy": "EDF_RESERVATION",
             "request": "RESBH[8,100]"},
            {"name": f"st{i}", "policy": "STRIDE", "request": "PS[35000]",
             "quantum": rng.choice((5, 10))},
            {"name": f"rr{i}", "policy": "ROUND_ROBIN", "request": "BE"},
        ]
    apps = []
    n = MASS_APPS_PER_POLICY
    for policy, kinds in (("edf", [None] * n), ("st", _mix(rng, n, 0.5)),
                          ("rr", _mix(rng, n, 0.5))):
        for i, workload in enumerate(kinds):
            # each leaf gets the same requests for every seed; the seed
            # decides their order of arrival and the phases
            home = f"{policy}{i % MASS_LEAVES_PER_POLICY}"
            if policy == "edf":
                kind, budget, period = MASS_RESERVATIONS[
                    i % len(MASS_RESERVATIONS)]
                request = f"{kind}[{budget},{period}]"
                workload = _periodic(period, budget, rng.randrange(period))
            elif policy == "st":
                request = f"PS[{1000 * (1 + i % 3)}]"
            else:
                request = "BE"
            apps.append((home, request, workload))
    rng.shuffle(apps)
    # a rejection costs more the larger the tree it rolls back, so the
    # oversized apps arrive at the same evenly spaced places for every seed
    step = len(apps) // MASS_OVERSIZE
    for i in range(MASS_OVERSIZE):
        apps.insert(i * (step + 1) + step // 2, (
            f"edf{i % MASS_LEAVES_PER_POLICY}", "RESBH[20,100]",
            _periodic(100, 20)))
    timeline = [
        _deploy(0, f"app{i:04d}", f"c_{home}", request, workload,
                scheduler=home)
        for i, (home, request, workload) in enumerate(apps)
    ]
    return {"horizon": MASS_HORIZON, "seed": seed, "schedulers": schedulers,
            "timeline": timeline}


def churn(rng: random.Random, seed: int) -> dict:
    schedulers = [
        {"name": "edf0", "policy": "EDF_RESERVATION",
         "request": f"RESBH[{CHURN_HARD},100]"},
        {"name": "rr0", "policy": "ROUND_ROBIN", "request": "BE"},
        {"name": "ps0", "policy": "STRIDE", "request": f"PS[{CHURN_PS_LEAF}]",
         "quantum": 5},
        # probes: a hard load the root cannot fit (rejected, rolled back) ...
        {"name": "probe_rej", "policy": "EDF_RESERVATION",
         "request": "RESBH[80,100]"},
        # ... and loads that squeeze ps0 pro rata until they leave
        {"name": "probe_ps", "policy": "STRIDE",
         "request": f"PS[{CHURN_PS_PROBE}]"},
        {"name": "probe_hard", "policy": "EDF_RESERVATION",
         "request": "RESBH[10,100]"},
    ]
    events = []  # (tick, entry)
    names = iter(range(10 ** 6))
    replacements = (CHURN_HORIZON - CHURN_GAP) // CHURN_GAP
    n_ps = round(replacements * CHURN_PS_APPS / (CHURN_PS_APPS + CHURN_BE_APPS))
    ps_turns = [True] * n_ps + [False] * (replacements - n_ps)
    rng.shuffle(ps_turns)
    ps_kinds = iter(_mix(rng, CHURN_PS_APPS + n_ps, 2 / 3))
    be_kinds = iter(_mix(rng, CHURN_BE_APPS + replacements - n_ps, 1 / 2))

    # tick 0: fill edf0 exactly, then load rr0 before ps0 so that best
    # effort apps land on the RR leaf
    for i in range(3):
        events.append((0, _deploy(
            0, f"hard_{i}", "control", f"RESBH[{CHURN_HARD // 3},100]",
            _periodic(100, CHURN_HARD // 3, rng.randrange(100)),
            scheduler="edf0" if i == 0 else None,
        )))

    live_be = []
    live_ps = {}  # app -> share ppm

    def add_be(tick):
        app = f"be{next(names):05d}"
        events.append((tick, _deploy(tick, app, "batch", "BE", next(be_kinds),
                                     scheduler="rr0")))
        live_be.append(app)

    def add_ps(tick, still_to_add=0):
        # keep the leaf's load in [CHURN_PS_MIN, CHURN_PS_MAX] once the
        # apps still to add have been placed
        load = sum(live_ps.values())
        small, big = CHURN_PS_SHARE
        lo = max(small, CHURN_PS_MIN - load - big * still_to_add)
        hi = min(big, CHURN_PS_MAX - load - small * still_to_add)
        share = rng.randint(-(-lo // 1000), hi // 1000) * 1000
        app = f"ps{next(names):05d}"
        events.append((tick, _deploy(tick, app, "web", f"PS[{share}]",
                                     next(ps_kinds), scheduler="ps0")))
        live_ps[app] = share

    add_be(0)
    for i in range(CHURN_PS_APPS):
        add_ps(0, CHURN_PS_APPS - 1 - i)
    for _ in range(CHURN_BE_APPS - 1):
        add_be(0)

    for k, ps_turn in enumerate(ps_turns, start=1):
        tick = k * CHURN_GAP + rng.randrange(-CHURN_GAP // 4, CHURN_GAP // 4)
        if ps_turn:
            app = rng.choice(sorted(live_ps))
            del live_ps[app]
            events.append((tick, _undeploy(tick, app)))
            add_ps(tick)
        else:
            app = live_be.pop(rng.randrange(len(live_be)))
            events.append((tick, _undeploy(tick, app)))
            add_be(tick)
        if k % CHURN_PROBE_EVERY:
            continue
        kind = (k // CHURN_PROBE_EVERY) % 3
        app = f"probe{next(names):05d}"
        if kind == 0:
            events.append((tick, _deploy(tick, app, "probe", "RESBH[80,100]",
                                         _periodic(100, 80),
                                         scheduler="probe_rej")))
        else:
            # gone before the next probe, which comes >= 90 ticks later
            probe_until = min(tick + rng.randint(50, 80), CHURN_HORIZON - 1)
            if kind == 1:
                entry = _deploy(tick, app, "probe", f"PS[{CHURN_PS_PROBE}]",
                                CPU_BOUND, scheduler="probe_ps")
            else:
                entry = _deploy(tick, app, "probe", "RESBH[10,100]",
                                _periodic(100, 10), scheduler="probe_hard")
            events.append((tick, entry))
            events.append((probe_until, _undeploy(probe_until, app)))

    events.sort(key=lambda e: e[0])  # stable: same-tick order is kept
    return {"horizon": CHURN_HORIZON, "seed": seed, "schedulers": schedulers,
            "timeline": [entry for _, entry in events]}


_BUILDERS = {"long_horizon": long_horizon, "mass_admission": mass_admission,
             "churn": churn}


def generate(workload: str, seed: int) -> dict:
    """Scenario document for `workload`; the same seed gives the same one."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    # str seeds hash with sha512, so this is stable across processes
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, seed)


def render(doc: dict) -> str:
    """Canonical JSON text, one timeline entry per line."""
    head = json.dumps({k: v for k, v in doc.items() if k != "timeline"},
                      sort_keys=True)[:-1]
    entries = ",\n".join(json.dumps(e, sort_keys=True) for e in doc["timeline"])
    return f'{head}, "timeline": [\n{entries}\n]}}\n'


def write(workload: str, seed: int, path: str) -> str:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(render(generate(workload, seed)))
    return path


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="scenario JSON to write")
    args = p.parse_args(argv)
    write(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
