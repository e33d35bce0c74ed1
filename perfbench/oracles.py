"""Answers the benchmark checks the program against, computed apart from it.

Nothing here imports :mod:`repro`.  Three kinds of oracle:

* :data:`TABLE2` — the paper's Table 2: which root causes each class of
  Table 1 exhibits in each vintage, and of which kind.  A curated witness
  for a *bug* (A–G) must FAIL on the preview vintage and PASS on beta; a
  witness for an *intentional* behaviour (H–L) FAILs on both.
* :func:`live_events` — a recording shaped like a ``lineup live`` trace
  (version-2 JSONL, one line per call/return).  Every response is
  computed by this module's own reference model at a linearization point
  chosen strictly between the operation's call and its return, so the
  recorded history is linearizable by construction.
* :func:`seed_violation` — the same trace with one response replaced by
  a value no linearization can produce: a read of a value never written,
  a dequeue of a value never enqueued, a counter ``get`` above the number
  of ``inc`` calls made before it returned.
"""

from __future__ import annotations

import json
import random

# ---------------------------------------------------------------------------
# Table 2 of the paper: class -> {tag: kind}.  "bug" causes are seeded in the
# technology-preview vintage only; "intentional" ones are documented
# behaviours present in both vintages.

BUG = "bug"
INTENTIONAL = "intentional"

TABLE2: dict[str, dict[str, str]] = {
    "ManualResetEvent": {"A": BUG},
    "SemaphoreSlim": {"B": BUG},
    "CountdownEvent": {"C": BUG},
    "BlockingCollection": {"D": BUG, "I": INTENTIONAL, "J": INTENTIONAL},
    "ConcurrentQueue": {"D": BUG},
    "ConcurrentDictionary": {"E": BUG},
    "ConcurrentStack": {"F": BUG},
    "Lazy": {"G": BUG},
    "ConcurrentBag": {"H": INTENTIONAL},
    "CancellationTokenSource": {"K": INTENTIONAL},
    "Barrier": {"L": INTENTIONAL},
    "TaskCompletionSource": {},
    "ConcurrentLinkedList": {},
}


def witness_expectation(class_name: str, tag: str, version: str) -> str:
    """Verdict the curated witness of *tag* must get on *version*."""
    kind = TABLE2[class_name][tag]
    if kind == INTENTIONAL or version == "pre":
        return "FAIL"
    return "PASS"


def causes_in(class_name: str, version: str) -> set[str]:
    """Root causes Table 2 gives *class_name* in *version*."""
    return {
        tag
        for tag, kind in TABLE2[class_name].items()
        if version == "pre" or kind == INTENTIONAL
    }


# ---------------------------------------------------------------------------
# Reference models.  Each returns (new_state, response_value).


def _counter(state, method, args):
    if method == "inc":
        return state + 1, None
    return state, state  # get


def _queue(state, method, args):
    if method == "Enqueue":
        return state + (args[0],), None
    if not state:
        return state, "Fail"  # TryDequeue on an empty queue
    return state[1:], state[0]


def _register(state, method, args):
    if method == "Write":
        return args[0], None
    return state, state  # Read


def _dict(state, method, args):
    key = args[0]
    present = key in state
    if method == "TryAdd":
        if present:
            return state, False
        new = dict(state)
        new[key] = key
        return new, True
    if method == "TryRemove":
        if not present:
            return state, "Fail"
        new = dict(state)
        value = new.pop(key)
        return new, value
    if method == "TryGetValue":
        return state, state[key] if present else "Fail"
    return state, present  # ContainsKey


REFERENCE = {
    "counter": (_counter, 0),
    "queue": (_queue, ()),
    "register": (_register, None),
    "dict": (_dict, {}),
}

DICT_KEYS = 6


def _invocation(model: str, session: int, serial: int, rng: random.Random):
    """The next invocation of *session*, with the ``lineup live`` mix."""
    unique = session * 1_000_000 + serial  # distinct across sessions
    if model == "counter":
        return ("inc", ()) if rng.random() < 0.65 else ("get", ())
    if model == "queue":
        return ("Enqueue", (unique,)) if rng.random() < 0.6 else ("TryDequeue", ())
    if model == "register":
        return ("Write", (unique,)) if rng.random() < 0.5 else ("Read", ())
    method = rng.choice(("TryAdd", "TryRemove", "TryGetValue", "ContainsKey"))
    return method, (rng.randrange(DICT_KEYS),)


# ---------------------------------------------------------------------------
# Traces.


def live_events(
    model: str, sessions: int, ops: int, seed: int | str
) -> tuple[list[dict], list[tuple]]:
    """Events of a linearizable-by-construction live recording.

    A seeded scheduler interleaves three steps per operation: the call,
    the linearization point (the reference model applies the operation and
    fixes its response; nothing is recorded), and the return.  Each
    session has at most one operation in flight, as a ``lineup live``
    client session does, so at most *sessions* operations overlap.
    Returns the events and the linearization order (see
    :func:`witness_ok`).
    """
    step, state = REFERENCE[model]
    rng = random.Random(f"perfbench:{model}:{seed}")
    issued = [0] * sessions
    phase = [0] * sessions  # 0 idle, 1 called, 2 linearized
    pending: list = [None] * sessions
    events: list[dict] = []
    order: list[tuple] = []
    ts = 0.0
    started = 0
    while started < ops or any(phase):
        session = rng.randrange(sessions)
        ts += rng.random() * 0.001
        if phase[session] == 0:
            if started >= ops:
                continue
            method, args = _invocation(model, session, issued[session], rng)
            pending[session] = (issued[session], method, args)
            events.append(
                {"e": "c", "t": session, "i": issued[session], "m": method,
                 "a": repr(tuple(args)), "ts": round(ts, 6)}
            )
            issued[session] += 1
            started += 1
            phase[session] = 1
        elif phase[session] == 1:
            index, method, args = pending[session]
            state, value = step(state, method, args)
            pending[session] = (index, method, args, value)
            order.append((session, index, len(events)))
            phase[session] = 2
        else:
            index, _method, _args, value = pending[session]
            events.append(
                {"e": "r", "t": session, "i": index, "k": "ok",
                 "v": repr(value), "ts": round(ts, 6)}
            )
            phase[session] = 0
    events.append({"e": "end", "outcome": "drained", "ts": round(ts + 0.001, 6)})
    return events, order


def seed_violation(model: str, events: list[dict], seed: int | str) -> list[dict]:
    """*events* with one response no linearization can produce.

    The corrupted operation is the middle read-like response of the
    trace.  A checker stops at the first violation it finds, so where the
    violation sits sets the cost of the check: a position drawn from the
    seed made that cost differ up to fourfold between seeds.  *seed* only
    names the trace in error messages.
    """
    calls = {(e["t"], e["i"]): e for e in events if e["e"] == "c"}
    reads = {"counter": "get", "queue": "TryDequeue", "register": "Read",
             "dict": "TryGetValue"}[model]
    candidates = [
        n for n, e in enumerate(events)
        if e["e"] == "r" and calls[(e["t"], e["i"])]["m"] == reads
    ]
    if not candidates:
        raise ValueError(f"{model} trace {seed}: no read-like response")
    position = candidates[len(candidates) // 2]
    bad = dict(events[position])
    if model == "counter":
        # Above every inc called before this get returned.
        incs = sum(
            1 for e in events[:position] if e["e"] == "c" and e["m"] == "inc"
        )
        bad["v"] = repr(incs + 1)
    else:
        bad["v"] = repr(-1)  # never written / enqueued / stored
    out = list(events)
    out[position] = bad
    return out


def v1_histories(count: int, seed: int) -> list[tuple[dict, list]]:
    """Short queue histories in the ``--dump-traces`` (version 1) format.

    Each is a four-operation, two-thread recording from
    :func:`live_events`, so each is linearizable by construction.
    Returns (record, linearization order) pairs.
    """
    out = []
    for number in range(count):
        events, order = live_events("queue", 2, 4, f"{seed}:{number}")
        body = [
            {k: v for k, v in e.items() if k != "ts"}
            for e in events if e["e"] in ("c", "r")
        ]
        out.append(({"stuck": False, "divergent": False, "events": body}, order))
    return out


def write_live(path: str, model: str, sessions: int, events: list[dict]) -> None:
    header = {"format": "lineup-trace", "version": 2, "mode": "live",
              "sessions": sessions, "subject": "perfbench", "model": model}
    with open(path, "w", encoding="utf-8") as handle:
        for obj in [header, *events]:
            handle.write(json.dumps(obj, separators=(",", ":")) + "\n")


def write_v1(path: str, records: list[dict]) -> None:
    header = {"format": "lineup-trace", "version": 1, "n_threads": 2,
              "subject": "perfbench"}
    with open(path, "w", encoding="utf-8") as handle:
        for obj in [header, *records]:
            handle.write(json.dumps(obj, separators=(",", ":")) + "\n")


def witness_ok(model: str, events: list[dict], order: list[tuple]) -> bool:
    """Re-check a generated trace against the linearization that built it.

    *order* lists ``(thread, op_index, position)`` in linearization order,
    where *position* is the number of trace events recorded before the
    linearization point.  The trace is linearizable if every point falls
    between its operation's call and return and replaying the reference
    model in that order reproduces every recorded response.
    """
    step, state = REFERENCE[model]
    where = {}
    for position, e in enumerate(events):
        if e["e"] in ("c", "r"):
            where[(e["e"], e["t"], e["i"])] = position
    for thread, index, position in order:
        call = events[where[("c", thread, index)]]
        ret = where[("r", thread, index)]
        if not where[("c", thread, index)] < position <= ret:
            return False
        state, value = step(state, call["m"], eval_args(call["a"]))
        if events[ret]["v"] != repr(value):
            return False
    return len(order) == sum(1 for e in events if e["e"] == "c")


def violates(model: str, events: list[dict]) -> bool:
    """Whether *events* breaks a fact every linearization must respect.

    Decided without any search: a read of a value never written, a
    dequeue of a value never enqueued, a stored value that is not its
    key's, or a counter ``get`` above the ``inc`` calls made before it
    returned.
    """
    calls = {}
    written = {"None", "'Fail'"}
    incs_called = 0
    for e in events:
        if e["e"] == "c":
            calls[(e["t"], e["i"])] = e
            if e["m"] in ("Enqueue", "Write"):
                written.add(repr(eval_args(e["a"])[0]))
            incs_called += e["m"] == "inc"
        elif e["e"] == "r":
            call = calls[(e["t"], e["i"])]
            method = call["m"]
            if method in ("TryDequeue", "Read") and e["v"] not in written:
                return True
            if method == "get" and int(e["v"]) > incs_called:
                return True
            if method == "TryGetValue" and e["v"] not in (
                "'Fail'", repr(eval_args(call["a"])[0])
            ):
                return True
    return False


def eval_args(text: str) -> tuple:
    """Parse a ``repr``-ed tuple of ints (the only arguments traces carry)."""
    inner = text.strip()[1:-1].strip().rstrip(",")
    return tuple(int(part) for part in inner.split(",") if part.strip())
