"""Spans around calls into the program's layers, recorded from outside.

The benchmark does not change the program to trace it: :class:`Tracer`
replaces public functions and methods with wrappers that open a span on
entry and close it on exit, then puts the originals back.  A span has a
name, a start, an end, a parent and the id of the benchmark round it
belongs to.  Its *self time* is its duration minus the time its child
spans cover, so the self times of all spans in a round add up to the
round's wall time exactly; what no layer claims stays with the round's
own span.

Calls made once per scheduling step (strategy decisions, stream events)
are *aggregated*: they count in the totals and in their parent's child
time, but keep no record of their own, so memory stays bounded by the
number of executions rather than the number of steps.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "child", "record")

    def __init__(self, name: str, start: float, record: list | None) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.record = record


class Tracer:
    """In-memory span recorder with wrapping helpers."""

    def __init__(self) -> None:
        self.records: list[list] = []  #: [id, name, start, end, parent, run, self]
        self.self_time: dict[str, float] = defaultdict(float)
        self.total_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str, aggregate: bool = False) -> _Frame:
        record = None
        if not aggregate:
            parent = next(
                (f.record[0] for f in reversed(self._stack) if f.record),
                None,
            )
            record = [len(self.records), name, 0.0, 0.0, parent, self.run_id, 0.0]
            self.records.append(record)
        frame = _Frame(name, _clock(), record)
        if record is not None:
            record[2] = frame.start
        self._stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> float:
        now = _clock()
        popped = self._stack.pop()
        if popped is not frame:  # pragma: no cover - a wrapper bug
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = now - frame.start
        own = duration - frame.child
        self.self_time[frame.name] += own
        self.total_time[frame.name] += duration
        self.calls[frame.name] += 1
        if self._stack:
            self._stack[-1].child += duration
        if frame.record is not None:
            frame.record[3] = now
            frame.record[6] = own
        return duration

    def reset_totals(self) -> None:
        """Start a new round's totals (records are kept for the JSONL)."""
        self.self_time.clear()
        self.total_time.clear()
        self.calls.clear()
        self.counts.clear()

    # -- wrapping -----------------------------------------------------------

    def now(self) -> float:
        return _clock()

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to *value* until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrapper(self, original, name: str, aggregate: bool, after):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.begin(name, aggregate)
            result = error = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer.end(frame)
                if after is not None:
                    after(args, result, error)

        wrapper.__wrapped__ = original
        return wrapper

    def wrap_method(self, cls: type, attr: str, name: str,
                    aggregate: bool = False, after=None) -> None:
        """Time ``cls.attr``; ``after(args, result, error)`` observes each call."""
        original = cls.__dict__[attr]
        self.replace(cls, attr, self._wrapper(original, name, aggregate, after))

    def wrap_function(self, module_name: str, attr: str, name: str,
                      aggregate: bool = False, after=None) -> None:
        """Time a module-level function at every binding of it.

        ``from x import f`` copies the function into the importing
        module, so every ``repro`` module whose attribute is the same
        object gets the wrapper too.
        """
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._wrapper(original, name, aggregate, after)
        for mod_name, module in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and (
                module.__dict__.get(attr) is original
            ):
                self.replace(module, attr, wrapper)

    def wrap_generator(self, cls: type, attr: str, name: str,
                       on_item=None) -> None:
        """Time each step of the generator method ``cls.attr``."""
        original = cls.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            try:
                while True:
                    frame = tracer.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(frame)
                    if on_item is not None:
                        on_item(item)
                    yield item
            finally:
                inner.close()

        self.replace(cls, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for ident, name, start, end, parent, run, own in self.records:
                handle.write(json.dumps(
                    {"id": ident, "name": name, "start": start, "end": end,
                     "parent": parent, "run": run, "self": own},
                    separators=(",", ":"),
                ) + "\n")
            handle.write(json.dumps(
                {"aggregate": {
                    key: {"calls": self.calls[key], "self_s": self.self_time[key]}
                    for key in sorted(self.calls)
                }, "counts": dict(self.counts)},
                separators=(",", ":"),
            ) + "\n")
