"""Which public entry points of the program belong to which layer.

:func:`install` wraps them in a :class:`tracer.Tracer`; :data:`LAYER_OF`
maps each span name to its layer, so a traced round's self times can be
summed per layer.  Span names are ``<layer>.<what>``.
"""

from __future__ import annotations

from tracer import Tracer

ROUND = "bench.round"

#: span name -> layer.  Every span the benchmark opens is listed here.
LAYER_OF = {
    "runtime.explore": "runtime",
    "runtime.strategy": "runtime",
    "core.check": "core",
    "core.harness.serial": "core",
    "core.harness.history": "core",
    "core.witness.check": "core",
    "reduction.fingerprint": "reduction",
    "exec.pool.run": "exec",
    "exec.ipc": "exec",
    "generate.campaign": "generate",
    "generate.plan": "generate",
    "monitor.trace.load": "monitor",
    "monitor.dispatch": "monitor",
    "monitor.specialized": "monitor",
    "monitor.compositional": "monitor",
    "monitor.wgl": "monitor",
    "monitor.incremental": "monitor",
    "stream.watch": "stream",
    "stream.tail": "stream",
    "stream.feed": "stream",
}


_WRAPPED_MODULES = (
    "repro.core.checker",
    "repro.core.witness",
    "repro.reduction.fingerprint",
    "repro.exec.protocol",
    "repro.exec.supervisor",
    "repro.generate.campaign",
    "repro.monitor.trace",
    "repro.monitor.dispatch",
    "repro.monitor.specialized",
    "repro.monitor.compositional",
    "repro.monitor.wgl",
    "repro.stream.watch",
)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point until ``tracer.restore()``."""
    import importlib

    for module in _WRAPPED_MODULES:  # wrap_function looks them up by name
        importlib.import_module(module)

    from repro.core.harness import TestHarness
    from repro.exec.supervisor import WorkerPool
    from repro.generate.corpus import Corpus
    from repro.generate.mutate import MutationEngine
    from repro.monitor.incremental import IncrementalChecker
    from repro.reduction import strategies as reduction_strategies
    from repro.runtime import strategies as runtime_strategies
    from repro.runtime.coop import CoopScheduler
    from repro.runtime.scheduler import Scheduler
    from repro.stream.engine import StreamChecker
    from repro.stream.tail import TraceTailer

    counts = tracer.counts

    def count(key, amount=1):
        counts[key] += amount

    # runtime: one span per execution; strategy calls are per step.
    for cls in (Scheduler, CoopScheduler):
        tracer.wrap_generator(cls, "explore", "runtime.explore",
                              on_item=lambda _o: count("runtime.executions"))
    for module in (runtime_strategies, reduction_strategies):
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for attr in ("more", "begin", "decide", "finish"):
                    if attr in cls.__dict__:
                        tracer.wrap_method(cls, attr, "runtime.strategy",
                                           aggregate=True)

    # core: the check, phase 1, history building, witness lookup.
    tracer.wrap_function("repro.core.checker", "check_with_harness", "core.check")
    tracer.wrap_method(TestHarness, "run_serial", "core.harness.serial")
    tracer.wrap_method(TestHarness, "history_from_outcome", "core.harness.history")
    for name in ("check_full_history", "check_stuck_history"):
        tracer.wrap_function("repro.core.witness", name, "core.witness.check")

    # reduction: the execution fingerprint.
    tracer.wrap_function("repro.reduction.fingerprint", "execution_fingerprint",
                         "reduction.fingerprint")

    # exec: the pool's supervision loop and its pipe traffic.
    def on_recv(_args, message, _error):
        if isinstance(message, dict) and message.get("type") == "ready":
            counts["exec.last_ready"] = tracer.now()

    tracer.wrap_method(WorkerPool, "run", "exec.pool.run")
    tracer.wrap_function("repro.exec.protocol", "send_message", "exec.ipc",
                         aggregate=True)
    tracer.wrap_function("repro.exec.protocol", "recv_message", "exec.ipc",
                         aggregate=True, after=on_recv)

    # generate: the campaign and its candidate planning.
    tracer.wrap_function("repro.generate.campaign", "run_generation_campaign",
                         "generate.campaign")
    for cls, attr in ((MutationEngine, "seed_tests"), (MutationEngine, "mutate"),
                      (Corpus, "select")):
        tracer.wrap_method(cls, attr, "generate.plan")

    # monitor: trace loading and the three offline engines.
    tracer.wrap_function("repro.monitor.trace", "load_trace", "monitor.trace.load")
    tracer.wrap_function("repro.monitor.dispatch", "monitor_history",
                         "monitor.dispatch")
    tracer.wrap_function("repro.monitor.specialized", "try_specialized",
                         "monitor.specialized")
    tracer.wrap_function("repro.monitor.compositional", "compositional_check",
                         "monitor.compositional")

    def on_wgl(_args, result, error):
        if result is not None:
            count("monitor.wgl.configurations", result.configurations)

    tracer.wrap_function("repro.monitor.wgl", "wgl_check", "monitor.wgl",
                         after=on_wgl)
    tracer.wrap_function("repro.monitor.wgl", "check_stuck_history_model",
                         "monitor.wgl")

    # monitor (online): configurations counted from outside, per return,
    # because a cell that exhausts is dropped with its counters.
    original_return = IncrementalChecker.on_return

    def on_return(self, *args, **kwargs):
        before = self.configurations
        try:
            return original_return(self, *args, **kwargs)
        finally:
            count("monitor.incremental.configurations",
                  self.configurations - before)
            live = self.live_configs
            if live > counts["monitor.incremental.max_live_configs"]:
                counts["monitor.incremental.max_live_configs"] = live

    tracer.replace(IncrementalChecker, "on_return", on_return)
    for attr in ("on_call", "on_return", "on_indeterminate"):
        tracer.wrap_method(IncrementalChecker, attr, "monitor.incremental",
                           aggregate=True)

    # stream: the watch loop, the tailer and the per-event router.
    tracer.wrap_function("repro.stream.watch", "watch_trace", "stream.watch")
    tracer.wrap_method(TraceTailer, "poll", "stream.tail")
    tracer.wrap_method(StreamChecker, "feed", "stream.feed", aggregate=True)
