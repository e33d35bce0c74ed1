"""Run workloads several times and report how steady each metric is.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--seed 1]

Run from the root of a source checkout.  Each run is a fresh
``perfbench/run.py`` process with its own seed (``--seed``, ``--seed``+1,
...) and the run length of ``BENCHMARK.json``.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread — quartile distance over median — against the metric's
bound; ``setup_s`` is exempt from the spread check.  It also prints the
attempted and failed operation counts of every run.  Exits 1 if a run
failed, was incorrect, or a spread is over its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    result["exit"] = proc.returncode
    return result


def main(argv: list[str] | None = None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workload or names:
        results = []
        for number in range(args.runs):
            result = run_once(workload, args.seed + number, bench["run_seconds"])
            results.append(result)
            print(f"{workload} seed {args.seed + number}: exit {result['exit']} "
                  f"attempted {result.get('attempted')} "
                  f"failed {result.get('failed')}", flush=True)
        good = [r for r in results if r["exit"] == 0 and r.get("correct")]
        if len(good) < len(results):
            ok = False
            print(f"{workload}: {len(results) - len(good)} runs failed")
        if len(good) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in good}
        print(f"{workload}: failed share per run {sorted(shares)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in good]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            over = name != "setup_s" and spread > bound
            ok = ok and not over
            print(f"  {name:12s} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:6.1%} of bound {bound:.0%}"
                  f"{'  OVER' if over else ''}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
