"""The four workloads: one round each, checked against the oracles.

A round runs every operation of the workload once and returns a
:class:`Round`: one :class:`Op` per verdict, with the verdict the oracle
expects, plus the work done.  Program entry points are looked up on
their modules at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


@dataclass
class Op:
    """One verdict and what it should have been."""

    name: str
    expect: str
    got: str
    known_fault: bool = False  #: the one failure the benchmark tolerates

    @property
    def ok(self) -> bool:
        return self.got == self.expect


@dataclass
class Round:
    ops: list[Op] = field(default_factory=list)
    work: float = 0.0  #: the workload's unit of work (see README)
    facts: dict = field(default_factory=dict)  #: layer counts read from results


def _config(**kwargs):
    from repro.core import CheckConfig

    return CheckConfig(engine="coop", **kwargs)


class CheckTable2:
    """``check`` on the reference test, then every Table 2 witness."""

    def __init__(self, plan: dict, inputs: str) -> None:
        from repro.core import FiniteTest, Invocation
        from repro.structures import get_class

        ref = plan["reference"]
        self.reference = ref
        self.ref_entry = get_class(ref["class"])
        self.ref_test = FiniteTest.of([
            [Invocation(method, tuple(args)) for method, args in column]
            for column in ref["test"]
        ])
        self.witnesses = []
        for w in plan["witnesses"]:
            entry = get_class(w["class"])
            cause = next(c for c in entry.causes if c.tag == w["tag"])
            self.witnesses.append((w, entry, cause.witness_test))

    def run(self, tracer=None) -> Round:
        from repro.core import SystemUnderTest
        from repro.core import checker

        out = Round()
        ref = self.reference
        results = {}
        for reduction in ("none", "dpor"):
            subject = SystemUnderTest(self.ref_entry.factory(ref["version"]),
                                      f"{ref['class']}({ref['version']})")
            result = checker.check(subject, self.ref_test, _config(
                reduction=reduction, preemption_bound=ref["preemption_bound"]))
            results[reduction] = result
            out.work += result.schedules_explored
            out.ops.append(Op(f"reference/{reduction}", ref["expect"],
                              result.verdict))
        none, dpor = results["none"], results["dpor"]
        # DPOR must agree with the unreduced search in no more schedules.
        agree = (dpor.verdict == none.verdict
                 and dpor.schedules_explored <= none.schedules_explored)
        out.ops.append(Op("reference/dpor<=none", "agree",
                          "agree" if agree else "disagree"))
        out.facts["reduction.dpor_schedules"] = dpor.schedules_explored
        out.facts["reduction.pruned"] = dpor.schedules_pruned
        for w, entry, test in self.witnesses:
            subject = SystemUnderTest(entry.factory(w["version"]),
                                      f"{entry.name}({w['version']})")
            result = checker.check(subject, test, _config())
            out.work += result.schedules_explored
            out.ops.append(Op(f"{entry.name}/{w['tag']}/{w['version']}",
                              w["expect"], result.verdict))
        return out


class CampaignPool:
    """``lineup campaign --isolate``: RandomCheck on a 2-worker pool."""

    WORKERS = 2

    def __init__(self, plan: dict, inputs: str) -> None:
        from repro.structures import get_class

        self.plan = plan
        self.classes = [(c, get_class(c["class"])) for c in plan["classes"]]
        self.report_dir = os.path.join(inputs, "pool")

    def run(self, tracer=None) -> Round:
        from repro.core import campaign
        from repro.exec import PoolConfig, WorkerPool

        plan = self.plan
        config = _config(phase2_strategy="random",
                         phase2_executions=plan["schedules"], seed=plan["seed"],
                         max_serial_executions=2000)
        out = Round()
        facts = out.facts
        facts.update({"core.harness.serial_s": 0.0, "exec.task_s": 0.0,
                      "exec.retries": 0})
        started = tracer.now() if tracer else 0.0
        with WorkerPool(PoolConfig(workers=self.WORKERS,
                                   report_dir=self.report_dir)) as pool:
            for spec, entry in self.classes:
                _row, summaries = campaign.run_class_campaign_isolated(
                    entry, spec["version"], samples=plan["samples"],
                    rows=plan["rows"], cols=plan["cols"],
                    seed=plan["sample_seed"], config=config, pool=pool,
                )
                allowed = ("PASS", "FAIL") if spec["may_fail"] else ("PASS",)
                expect = " or ".join(allowed)
                for index in range(plan["samples"]):
                    summary = summaries.get(index)
                    got = summary.verdict if summary else "MISSING"
                    out.ops.append(Op(f"{entry.name}/{spec['version']}/t{index}",
                                      expect, expect if got in allowed else got))
                    if summary:
                        out.work += 1
                        facts["core.harness.serial_s"] += summary.phase1_seconds
                        facts["exec.task_s"] += summary.total_seconds
                        facts["exec.retries"] += summary.attempts - 1
        if tracer:
            facts["exec.pool.start_s"] = (
                tracer.counts.get("exec.last_ready", started) - started)
        facts["exec.workers"] = self.WORKERS
        return out


class GenerateSeeded:
    """In-process ``lineup generate`` at a fixed execution budget."""

    def __init__(self, plan: dict, inputs: str) -> None:
        from repro.structures import get_class

        self.plan = plan
        self.campaigns = [(c, get_class(c["class"])) for c in plan["campaigns"]]

    def run(self, tracer=None) -> Round:
        from repro.generate import campaign as generate

        plan = self.plan
        out = Round()
        out.facts.update({"generate.candidates": 0, "generate.kept": 0,
                          "generate.classes_found": 0})
        for spec, entry in self.campaigns:
            config = _config(phase2_strategy="random", phase2_executions=150,
                             seed=plan["seed"], max_serial_executions=2000)
            report = generate.run_generation_campaign(
                entry, spec["version"], config,
                generate.GenerateConfig(budget=plan["budget"],
                                        seed=plan["mutation_seed"]),
            )
            found = "failure" if report.failures else "no-failure"
            within = report.executions <= plan["budget"]
            out.ops.append(Op(
                f"{entry.name}/{spec['version']}",
                "failure" if spec["expect_failure"] else "no-failure",
                found if within else "over-budget",
            ))
            out.work += report.executions
            out.facts["generate.candidates"] += report.candidates
            out.facts["generate.kept"] += report.executions
            out.facts["generate.classes_found"] += report.classes
        return out


class MonitorTraces:
    """``lineup monitor`` and ``lineup watch`` over generated traces."""

    def __init__(self, plan: dict, inputs: str) -> None:
        self.plan = plan
        self.traces = [
            (t, os.path.join(inputs, t["file"])) for t in plan["traces"]
        ]

    def offline(self, path: str, model) -> str:
        """What ``lineup monitor`` concludes for the whole file."""
        from repro.monitor import dispatch, trace
        from repro.monitor.wgl import MonitorLimitError

        verdicts = []
        for history in trace.load_trace(path).histories:
            try:
                verdict = dispatch.monitor_history(
                    history, model, max_configurations=self.plan["offline_cap"])
            except MonitorLimitError:
                verdicts.append("EXHAUSTED")
                continue
            verdicts.append("PASS" if verdict.ok else "FAIL")
        for worst in ("FAIL", "EXHAUSTED"):
            if worst in verdicts:
                return worst
        return "PASS"

    def run(self, tracer=None) -> Round:
        from repro.monitor import get_model
        from repro.stream import watch

        out = Round()
        exhausted = 0
        for spec, path in self.traces:
            model = get_model(spec["model"])
            offline = self.offline(path, model)
            online = watch.watch_trace(path, model, watch.WatchConfig(
                max_configurations=spec["online_cap"])).verdict
            for mode, got in (("offline", offline), ("online", online)):
                exhausted += got == "EXHAUSTED"
                op = Op(f"{spec['name']}/{mode}", spec["expect"], got,
                        known_fault=spec["online_fault"] and mode == "online")
                out.ops.append(op)
                if op.ok:
                    out.work += spec["ops"]
        out.facts["monitor.exhausted"] = exhausted
        return out


WORKLOADS = {
    "check-table2": CheckTable2,
    "campaign-pool": CampaignPool,
    "generate-seeded": GenerateSeeded,
    "monitor-traces": MonitorTraces,
}

#: What ``work`` counts in each workload (``work_per_s`` = work / wall_s).
WORK_UNIT = {
    "check-table2": "phase-2 schedules explored",
    "campaign-pool": "tests checked",
    "generate-seeded": "SUT executions kept in the reports",
    "monitor-traces": "trace operations decided",
}
