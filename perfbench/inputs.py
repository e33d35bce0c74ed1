"""Regenerate every benchmark input from a workload seed, then re-verify it.

    python3 perfbench/inputs.py --seed 7 --out DIR [--workload NAME]

Writes ``DIR/plan.json`` (and, for ``monitor-traces``, the trace files)
for one workload, or for every workload into ``DIR/<workload>/`` when
``--workload`` is omitted.  Each input is checked against the property
it was built to have; a failed check exits 1.  Nothing the benchmark
reads is a stored copy: ``run.py`` runs this script to set itself up,
and the time that takes is its ``setup_s`` metric.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import oracles  # noqa: E402

WORKLOADS = ("check-table2", "campaign-pool", "generate-seeded", "monitor-traces")

# The paper's reference test (Fig. 1 shape) and its check settings.
REFERENCE_CLASS = "ConcurrentQueue"
REFERENCE_TEST = [
    [["Enqueue", [1]], ["TryDequeue", []], ["Enqueue", [2]]],
    [["TryDequeue", []], ["Enqueue", [3]], ["TryPeek", []]],
]

# campaign-pool: RandomCheck over uniform 3x3 samples (Table 2 methodology),
# on the two Table 2 rows without a root cause, so every test must PASS and
# pays its whole phase 1 and phase 2.  The sample is drawn once, with a
# fixed seed; the run's seed drives the phase-2 random walk.  Samples drawn
# from the run's seed made the round's cost differ by 15-26% between seeds,
# more than any bound can allow.
CAMPAIGN_CLASSES = ("TaskCompletionSource", "ConcurrentLinkedList")
CAMPAIGN_SAMPLES = 2
CAMPAIGN_SAMPLE_SEED = 1
CAMPAIGN_SCHEDULES = 150

# generate-seeded: fixed execution budget per (class, vintage) campaign.
# Only classes whose preview bug is found within the budget whatever the
# run's seed are used (an operation that fails on some seeds cannot be told
# from noise).  The mutation stream starts from a fixed seed and the run's
# seed drives each candidate's phase-2 random walk, which steers corpus
# admission from there: drawing the mutation seed from the run's seed too
# made the round's cost differ by 12% between seeds, against 3% this way.
GENERATE_CAMPAIGNS = (
    ("Lazy", "pre"), ("Lazy", "beta"),
    ("SemaphoreSlim", "pre"), ("SemaphoreSlim", "beta"),
    ("ConcurrentQueue", "beta"),
)
GENERATE_BUDGET = 3000
GENERATE_MUTATION_SEED = 1

# monitor-traces: trace sizes, sized so today's slowest path takes seconds.
SESSIONS = 4
LIVE_TRACES = (  # (name, model, operations)
    ("counter", "counter", 1000),
    ("register", "register", 1000),
    ("dict", "dict", 2000),
)
VIOLATION_TRACES = (
    ("counter-violation", "counter", 300),
    ("register-violation", "register", 500),
    ("dict-violation", "dict", 1000),
)
# The queue recordings are fixed, not drawn from the seed: the online check
# of a queue recording is the known fault kept as a failed operation, and
# it must fail identically in every run (and nowhere else).
QUEUE_OPS = 200  # no empty dequeue: offline takes the specialized path
QUEUE_WGL = ("fixed-wgl:11", 50)  # one empty TryDequeue forces WGL
QUEUE_VIOLATION = ("fixed-violation:0", 40)
V1_HISTORIES = 200
WATCH_CAP = 1_000_000  # the `lineup watch` default
FAULT_CAP = 50_000  # lowered for the known fault, so it costs ~0.5 s not 16 s
OFFLINE_CAP = 1_000_000


class InputError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InputError(message)


def plan_check_table2(seed: int, out: str) -> dict:
    import random

    from repro.structures import REGISTRY

    witnesses = []
    for entry in REGISTRY:
        for cause in entry.causes:
            for version in ("pre", "beta"):
                witnesses.append({
                    "class": entry.name, "tag": cause.tag, "version": version,
                    "expect": oracles.witness_expectation(
                        entry.name, cause.tag, version),
                })
    curated = {(w["class"], w["tag"]) for w in witnesses}
    table = {(c, t) for c, tags in oracles.TABLE2.items() for t in tags}
    _require(curated == table,
             f"curated witnesses {sorted(curated ^ table)} differ from Table 2")
    # The inputs are the paper's; the seed only orders the witness checks.
    random.Random(seed).shuffle(witnesses)
    return {
        "reference": {"class": REFERENCE_CLASS, "version": "beta",
                      "test": REFERENCE_TEST, "preemption_bound": 2,
                      "expect": "PASS"},
        "witnesses": witnesses,
    }


def plan_campaign_pool(seed: int, out: str) -> dict:
    from repro.core.testcase import sample_tests
    from repro.structures import get_class

    tests = {}
    for name in CAMPAIGN_CLASSES:
        entry = get_class(name)
        sample = sample_tests(list(entry.invocations), 3, 3, CAMPAIGN_SAMPLES,
                              seed=CAMPAIGN_SAMPLE_SEED, init=entry.init)
        _require(len(sample) == CAMPAIGN_SAMPLES, f"{name}: short sample")
        _require(len({t.columns for t in sample}) == len(sample),
                 f"{name}: repeated test in the sample")
        alphabet = set(entry.invocations)
        for test in sample:
            _require(len(test.columns) == 3
                     and all(len(col) == 3 for col in test.columns)
                     and all(inv in alphabet for col in test.columns for inv in col),
                     f"{name}: sampled test outside the 3x3 matrix space")
        tests[name] = [
            [[f"{inv.method}{tuple(inv.args)!r}" for inv in col]
             for col in test.columns]
            for test in sample
        ]
    return {
        "classes": [
            {"class": name, "version": version,
             "may_fail": bool(oracles.causes_in(name, version))}
            for name in CAMPAIGN_CLASSES for version in ("pre", "beta")
        ],
        "samples": CAMPAIGN_SAMPLES, "rows": 3, "cols": 3,
        "schedules": CAMPAIGN_SCHEDULES, "sample_seed": CAMPAIGN_SAMPLE_SEED,
        "seed": seed, "tests": tests,
    }


def plan_generate_seeded(seed: int, out: str) -> dict:
    from repro.generate.campaign import GenerateConfig  # noqa: F401 - import cost

    campaigns = []
    for name, version in GENERATE_CAMPAIGNS:
        bugs = {t for t in oracles.causes_in(name, version)
                if oracles.TABLE2[name][t] == oracles.BUG}
        intentional = oracles.causes_in(name, version) - bugs
        _require(not intentional,
                 f"{name}({version}) has documented non-bug causes")
        campaigns.append({"class": name, "version": version,
                          "expect_failure": bool(bugs)})
    return {"campaigns": campaigns, "budget": GENERATE_BUDGET,
            "mutation_seed": GENERATE_MUTATION_SEED, "seed": seed}


def _queue_without_empty_dequeue(ops: int) -> tuple[list, list]:
    """The first fixed-seed queue recording whose dequeues all succeed."""
    for attempt in range(1000):
        events, order = oracles.live_events("queue", SESSIONS, ops,
                                            f"fixed:{attempt}")
        if all(e.get("v") != "'Fail'" for e in events):
            return events, order
    raise InputError("no queue recording without an empty dequeue")


def plan_monitor_traces(seed: int, out: str) -> dict:
    import repro.monitor  # noqa: F401 - import cost of the offline check
    import repro.stream.watch  # noqa: F401 - and of the online one

    traces = []

    def add(name, model, events, expect, online_fault=False):
        path = os.path.join(out, f"{name}.trace.jsonl")
        oracles.write_live(path, model, SESSIONS, events)
        traces.append({
            "name": name, "file": os.path.basename(path), "model": model,
            "ops": sum(1 for e in events if e["e"] == "c"),
            "expect": expect, "online_fault": online_fault,
            "online_cap": FAULT_CAP if online_fault else WATCH_CAP,
        })

    def violation(name, model, seed, ops):
        events, order = oracles.live_events(model, SESSIONS, ops, seed)
        _require(oracles.witness_ok(model, events, order),
                 f"{name}: base trace fails its own witness")
        _require(not oracles.violates(model, events),
                 f"{name}: base trace already violates")
        bad = oracles.seed_violation(model, events, seed)
        _require(oracles.violates(model, bad), f"{name}: violation not seeded")
        add(name, model, bad, "FAIL")

    for name, model, ops in LIVE_TRACES:
        events, order = oracles.live_events(model, SESSIONS, ops, seed)
        _require(oracles.witness_ok(model, events, order),
                 f"{name}: generated trace fails its own witness")
        add(name, model, events, "PASS")
    events, order = _queue_without_empty_dequeue(QUEUE_OPS)
    _require(oracles.witness_ok("queue", events, order), "queue: bad witness")
    add("queue", "queue", events, "PASS", online_fault=True)
    events, order = oracles.live_events("queue", SESSIONS, QUEUE_WGL[1],
                                        QUEUE_WGL[0])
    _require(oracles.witness_ok("queue", events, order), "queue-wgl: bad witness")
    _require(any(e.get("v") == "'Fail'" for e in events),
             "queue-wgl: no empty dequeue")
    add("queue-wgl", "queue", events, "PASS")
    for name, model, ops in VIOLATION_TRACES:
        violation(name, model, seed, ops)
    violation("queue-violation", "queue", *QUEUE_VIOLATION)

    histories = oracles.v1_histories(V1_HISTORIES, seed)
    for record, order in histories:
        _require(oracles.witness_ok("queue", record["events"], order),
                 "v1 history fails its own witness")
    path = os.path.join(out, "queue-v1.trace.jsonl")
    oracles.write_v1(path, [record for record, _order in histories])
    traces.append({
        "name": "queue-v1", "file": os.path.basename(path), "model": "queue",
        "ops": sum(len(r["events"]) // 2 for r, _o in histories),
        "expect": "PASS", "online_fault": False, "online_cap": WATCH_CAP,
    })
    return {"traces": traces, "offline_cap": OFFLINE_CAP}


PLANNERS = {
    "check-table2": plan_check_table2,
    "campaign-pool": plan_campaign_pool,
    "generate-seeded": plan_generate_seeded,
    "monitor-traces": plan_monitor_traces,
}


def write_plan(workload: str, seed: int, out: str) -> dict:
    os.makedirs(out, exist_ok=True)
    plan = PLANNERS[workload](seed, out)
    plan["workload"] = workload
    plan["seed"] = seed
    with open(os.path.join(out, "plan.json"), "w", encoding="utf-8") as handle:
        json.dump(plan, handle, indent=1)
    return plan


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        if args.workload:
            write_plan(args.workload, args.seed, args.out)
        else:
            for workload in WORKLOADS:
                write_plan(workload, args.seed, os.path.join(args.out, workload))
                print(f"{workload}: inputs regenerated and verified")
    except InputError as exc:
        print(f"input check failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
