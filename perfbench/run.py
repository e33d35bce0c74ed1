"""The repository's end-to-end benchmark, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run sets itself up (a fresh
interpreter regenerates and verifies the inputs, five times, and the
median of those times is ``setup_s``), then runs whole rounds of the
workload, closed loop in this process, until ``--seconds`` have passed.
Every verdict is compared with an answer computed apart from the program
(see ``oracles.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 0 only if every output was correct.

With ``--trace 1`` untraced and traced rounds alternate; the traced ones
record spans around the program's public entry points (``layers.py``),
written to ``.perfbench/spans-<workload>-<seed>.jsonl`` at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
#: traced rounds must attribute at least this share of their wall time
#: to a layer (the rest is the benchmark's own glue).
ATTRIBUTED_FLOOR = 0.95

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "work_per_s": "1/s",
}


def _setup(workload: str, seed: int, workdir: str) -> tuple[float, str]:
    """Regenerate the inputs in fresh interpreters; median time, last dir."""
    times = []
    out = ""
    for attempt in range(SETUP_REPEATS):
        out = os.path.join(workdir, f"inputs-{attempt}")
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.join(HERE, "inputs.py"),
             "--workload", workload, "--seed", str(seed), "--out", out],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - started)
    return statistics.median(times), out


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers pool workers and the
    # set-up interpreters (the largest one that has been waited for).
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _layer_metrics(tracer, facts: dict, wall: float) -> dict:
    from layers import ROUND

    st, total, calls, counts = (tracer.self_time, tracer.total_time,
                                tracer.calls, tracer.counts)
    pool_run = total.get("exec.pool.run", 0.0)
    wgl_s = st.get("monitor.wgl", 0.0)
    executions = counts.get("runtime.executions", 0)
    serial = facts.get("core.harness.serial_s",
                       total.get("core.harness.serial", 0.0))
    return {
        "runtime.explore_self_s": st.get("runtime.explore", 0.0),
        "runtime.strategy_s": st.get("runtime.strategy", 0.0),
        "runtime.executions": executions,
        "core.harness.serial_s": serial,
        "core.harness.history_s": st.get("core.harness.history", 0.0),
        "core.witness.check_s": st.get("core.witness.check", 0.0),
        "core.witness.calls": calls.get("core.witness.check", 0),
        "reduction.fingerprint_s": st.get("reduction.fingerprint", 0.0),
        "reduction.fingerprint_calls": calls.get("reduction.fingerprint", 0),
        "reduction.dpor_schedules": facts.get("reduction.dpor_schedules", 0),
        "reduction.pruned": facts.get("reduction.pruned", 0),
        "exec.pool.start_s": facts.get("exec.pool.start_s", 0.0),
        "exec.pool.run_s": pool_run,
        "exec.pool.busy_share": (
            facts["exec.task_s"] / (facts["exec.workers"] * pool_run)
            if pool_run else 0.0),
        "exec.ipc_s": st.get("exec.ipc", 0.0),
        "exec.retries": facts.get("exec.retries", 0),
        "generate.plan_s": st.get("generate.plan", 0.0),
        "generate.candidates": facts.get("generate.candidates", 0),
        "generate.kept_share": (
            facts["generate.kept"] / executions
            if "generate.kept" in facts and executions else 0.0),
        "generate.classes_found": facts.get("generate.classes_found", 0),
        "monitor.trace.load_s": st.get("monitor.trace.load", 0.0),
        "monitor.specialized_s": st.get("monitor.specialized", 0.0),
        "monitor.compositional_s": st.get("monitor.compositional", 0.0),
        "monitor.wgl_s": wgl_s,
        "monitor.wgl.configurations": counts.get("monitor.wgl.configurations", 0),
        "monitor.wgl.configs_per_s": (
            counts.get("monitor.wgl.configurations", 0) / wgl_s if wgl_s else 0.0),
        "monitor.incremental_s": st.get("monitor.incremental", 0.0),
        "monitor.incremental.configurations": counts.get(
            "monitor.incremental.configurations", 0),
        "monitor.incremental.max_live_configs": counts.get(
            "monitor.incremental.max_live_configs", 0),
        "monitor.exhausted": facts.get("monitor.exhausted", 0),
        "stream.tail_s": st.get("stream.tail", 0.0),
        "stream.feed_self_s": st.get("stream.feed", 0.0),
        "tracing.attributed_share": (wall - st.get(ROUND, 0.0)) / wall,
    }


def _layer_self_times(tracer) -> dict[str, float]:
    from layers import LAYER_OF, ROUND

    out: dict[str, float] = {}
    for name, seconds in tracer.self_time.items():
        layer = LAYER_OF.get(name, "bench" if name == ROUND else "unknown")
        out[layer] = out.get(layer, 0.0) + seconds
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from a source checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WORK_UNIT, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(WORKLOADS)})")
    state_dir = os.path.join(root, ".perfbench")
    workdir = os.path.join(state_dir, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workdir, state_dir, WORKLOADS, WORK_UNIT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """End and reap the helper process that spawning pool workers starts.

    ``multiprocessing``'s spawn start method launches a resource-tracker
    process on first use and leaves it to notice the parent's exit on its
    own, so it outlives the run unless it is stopped and waited for here.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def _run(args, workdir, state_dir, workloads, work_unit) -> int:
    setup_s, inputs = _setup(args.workload, args.seed, workdir)
    with open(os.path.join(inputs, "plan.json"), encoding="utf-8") as handle:
        plan = json.load(handle)
    workload = workloads[args.workload](plan, inputs)

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()

    plain_walls: list[float] = []
    traced_walls: list[float] = []
    layer_rounds: list[dict] = []
    layer_selves: list[dict] = []
    works: list[float] = []
    attempted = failed = 0
    wrong: list[str] = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(plain_walls) > len(traced_walls)
        if traced:
            tracer.reset_totals()
            tracer.run_id += 1
            layers.install(tracer)
            frame = tracer.begin(layers.ROUND)
        t0 = time.perf_counter()
        try:
            result = workload.run(tracer if traced else None)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.end(frame)
                tracer.restore()
        for op in result.ops:
            attempted += 1
            if not op.ok:
                failed += 1
                if not op.known_fault:
                    wrong.append(f"{op.name}: expected {op.expect}, got {op.got}")
        if traced:
            traced_walls.append(wall)
            layer_rounds.append(_layer_metrics(tracer, result.facts, wall))
            layer_selves.append(_layer_self_times(tracer))
        else:
            plain_walls.append(wall)
            works.append(result.work)
        elapsed = time.perf_counter() - started
        if elapsed >= args.seconds and (tracer is None or traced_walls):
            break

    for line in wrong[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    correct = not wrong
    if tracer is None:
        wall_s = statistics.median(plain_walls)
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(),
            "ops_per_s": statistics.median(
                len(result.ops) / w for w in plain_walls),
            "work_per_s": statistics.median(
                work / w for work, w in zip(works, plain_walls)),
        }
        units = END_TO_END_UNITS
        print(f"{args.workload}: {len(plain_walls)} rounds, work = "
              f"{work_unit[args.workload]}")
        print("  round walls: " + " ".join(f"{w:.3f}" for w in plain_walls))
    else:
        metrics = {
            key: statistics.median(r[key] for r in layer_rounds)
            for key in layer_rounds[0]
        }
        metrics["tracing.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(plain_walls))
        units = {key: _unit(key) for key in metrics}
        _print_layers(args.workload, layer_selves, traced_walls)
        path = os.path.join(state_dir,
                            f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write_jsonl(path)
        print(f"spans written to {os.path.relpath(path)}")
    for key, value in metrics.items():
        print(f"  {key:40s} {value:14.6g} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def _unit(key: str) -> str:
    if key.endswith("per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_share"):
        return "ratio"
    return "count"


def _print_layers(workload: str, selves: list[dict], walls: list[float]) -> None:
    """Self time per layer in each traced round, and the attribution check."""
    for number, (self_times, wall) in enumerate(zip(selves, walls), start=1):
        attributed = sum(v for k, v in self_times.items() if k != "bench")
        share = attributed / wall
        verdict = "ok" if share >= ATTRIBUTED_FLOOR else "BELOW FLOOR"
        print(f"{workload} traced round {number}: wall {wall:.3f} s, layers "
              f"{attributed:.3f} s ({share:.1%} attributed, {verdict})")
        for layer, seconds in sorted(self_times.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:10s} {seconds:9.3f} s")


if __name__ == "__main__":
    sys.exit(main())
