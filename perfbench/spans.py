"""Per-layer spans recorded from outside the program.

Nothing in ``src/`` is instrumented for this benchmark.  Instead
:func:`install` replaces each layer's public entry points with thin
wrappers *at the name the caller looks up* -- for example
``repro.runtime.executor.solve_batch``, the name the executor calls,
not ``repro.batched.greedy.solve_batch``, which nothing in the hot path
resolves at call time.  Methods are patched on their class, which is
where an instance lookup finds them.

A :class:`Recorder` keeps spans in memory as flat lists
``[span_id, parent_id, layer, start, end, leaf_seconds, leaf_calls,
attrs]`` with a per-thread parent stack, and writes them out as JSON
when asked (the traced server does so at shutdown).  Times are
``time.monotonic()``, which is the same clock in every process on the
host, so the client can cut a server's spans to its timed window.

Marginal-gain evaluations are far too many for one span each, so the
``utility.gain`` layer is a *leaf*: each call adds its count and time
to the enclosing span's ``leaf_calls``/``leaf_seconds`` instead.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

monotonic = time.monotonic

#: Index of each field in a span record.
ID, PARENT, LAYER, START, END, LEAF_SECONDS, LEAF_CALLS, ATTRS = range(8)


class Recorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.marks: Dict[int, float] = {}  # id(problem) -> submit entry
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn: Callable, args, kwargs, attrs=None):
        """Run ``fn`` inside a span; ``attrs(result)`` annotates it."""
        stack = self._stack()
        record = [
            next(self._ids),
            stack[-1][ID] if stack else -1,
            layer,
            monotonic(),
            0.0,
            0.0,
            0,
            None,
        ]
        self.spans.append(record)
        stack.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = monotonic()
            stack.pop()
        if attrs is not None:
            record[ATTRS] = attrs(result)
        return result

    def leaf(self, fn: Callable, args, kwargs, calls: int):
        """Run ``fn`` as ``calls`` leaf evaluations of the enclosing span.

        A leaf reached from inside another (an evaluator's ``gains``
        falling back to its base class's) is counted once, by the outer.
        """
        local = self._local
        if getattr(local, "in_leaf", False):
            return fn(*args, **kwargs)
        local.in_leaf = True
        start = monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            local.in_leaf = False
            stack = self._stack()
            if stack:
                stack[-1][LEAF_SECONDS] += monotonic() - start
                stack[-1][LEAF_CALLS] += calls

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def read_spans(path: str) -> List[list]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["spans"]


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _len_attr(result) -> Dict[str, Any]:
    return {"bytes": len(result)}


def _hit_attr(result) -> Dict[str, Any]:
    return {"hit": result is not None}


def _apply_attr(outcome) -> Dict[str, Any]:
    return {"resolve": outcome.resolve, "moves": outcome.moves}


def _many_attr(result) -> Dict[str, Any]:
    _results, telemetry = result
    return {
        "tasks": len(telemetry),
        "unique": sum(1 for r in telemetry if r.cache in ("miss", "uncached")),
    }


def _plain(recorder: Recorder, layer: str, original: Callable, attrs=None):
    def wrapper(*args, **kwargs):
        return recorder.call(layer, original, args, kwargs, attrs)

    return wrapper


def _width(recorder: Recorder, layer: str, original: Callable):
    def wrapper(problems, *args, **kwargs):
        return recorder.call(
            layer,
            original,
            (problems,) + args,
            kwargs,
            lambda _result, width=len(problems): {"width": width},
        )

    return wrapper


def _submit(recorder: Recorder, layer: str, original: Callable):
    # Mark when each problem entered the batcher, so the executor span
    # (on the batcher's worker thread) can compute its queue wait.
    def wrapper(self, problem, *args, **kwargs):
        recorder.marks[id(problem)] = monotonic()
        try:
            return recorder.call(layer, original, (self, problem) + args, kwargs)
        finally:
            recorder.marks.pop(id(problem), None)

    return wrapper


def _batcher_solve_many(recorder: Recorder, layer: str, original: Callable):
    def wrapper(tasks, *args, **kwargs):
        start = monotonic()
        waits = [
            start - recorder.marks[id(task[0])]
            for task in tasks
            if id(task[0]) in recorder.marks
        ]

        def attrs(result):
            record = _many_attr(result)
            record["waits"] = waits
            return record

        return recorder.call(layer, original, (tasks,) + args, kwargs, attrs)

    return wrapper


def _checkout(recorder: Recorder, layer: str, original: Callable):
    # ``SessionStore.checkout`` is a context manager: the wait for the
    # session's lock happens in ``__enter__``, which is what is timed.
    def wrapper(*args, **kwargs):
        manager = original(*args, **kwargs)
        return _TimedEnter(recorder, layer, manager)

    return wrapper


class _TimedEnter:
    def __init__(self, recorder: Recorder, layer: str, manager) -> None:
        self._recorder = recorder
        self._layer = layer
        self._manager = manager

    def __enter__(self):
        return self._recorder.call(self._layer, self._manager.__enter__, (), {})

    def __exit__(self, *exc_info):
        return self._manager.__exit__(*exc_info)


def _gain(recorder: Recorder, original: Callable):
    def wrapper(self, sensor):
        return recorder.leaf(original, (self, sensor), {}, 1)

    return wrapper


def _gains(recorder: Recorder, original: Callable):
    def wrapper(self, candidates):
        return recorder.leaf(original, (self, candidates), {}, len(candidates))

    return wrapper


#: (module, class or None, attribute, layer, wrapper factory).  Each row
#: names the lookup site its caller uses.
PATCHES: Tuple[Tuple[str, Optional[str], str, str, Callable], ...] = (
    ("repro.serve.handlers", "ServiceRequestHandler", "do_POST", "http.handler", _plain),
    ("repro.serve.schemas", None, "parse_solve_request", "http.parse", _plain),
    ("repro.serve.schemas", None, "parse_session_create", "http.parse", _plain),
    ("repro.serve.schemas", None, "parse_session_delta", "http.parse", _plain),
    ("repro.serve.schemas", None, "solve_response", "http.encode", _plain),
    ("repro.serve.schemas", None, "session_response", "http.encode", _plain),
    ("repro.serve.schemas", None, "session_delta_response", "http.encode", _plain),
    ("repro.serve.schemas", None, "session_schedule_response", "http.encode", _plain),
    (
        "repro.serve.schemas",
        None,
        "encode",
        "http.encode",
        lambda r, layer, fn: _plain(r, layer, fn, _len_attr),
    ),
    ("repro.serve.batcher", "SolveBatcher", "submit", "batcher.submit", _submit),
    ("repro.serve.batcher", None, "solve_many", "executor.solve_many", _batcher_solve_many),
    (
        "repro.runtime.executor",
        None,
        "solve_many",
        "executor.solve_many",
        lambda r, layer, fn: _plain(r, layer, fn, _many_attr),
    ),
    ("repro.serve.batcher", None, "solve_fingerprint", "fingerprint", _plain),
    ("repro.runtime.executor", None, "solve_fingerprint", "fingerprint", _plain),
    (
        "repro.runtime.cache",
        "ScheduleCache",
        "peek_result",
        "cache.peek",
        lambda r, layer, fn: _plain(r, layer, fn, _hit_attr),
    ),
    (
        "repro.runtime.cache",
        "ScheduleCache",
        "get_result",
        "cache.get",
        lambda r, layer, fn: _plain(r, layer, fn, _hit_attr),
    ),
    ("repro.runtime.cache", "ScheduleCache", "put", "cache.put", _plain),
    ("repro.runtime.executor", None, "solve_batch", "batched.solve_batch", _width),
    ("repro.runtime.executor", None, "solve", "core", _plain),
    ("repro.core.solver", None, "solve", "core", _plain),
    ("repro.sessions.session", None, "greedy_repair", "core", _plain),
    ("repro.sessions.session", None, "scoped_repair", "core", _plain),
    (
        "repro.sessions.session",
        "Session",
        "apply",
        "sessions.apply",
        lambda r, layer, fn: _plain(r, layer, fn, _apply_attr),
    ),
    ("repro.sessions.store", "SessionStore", "checkout", "sessions.checkout", _checkout),
    ("repro.sim.cityscale", None, "coverage_sets", "coverage.sets", _plain),
    ("repro.sim.engine", "SimulationEngine", "_step", "engine.step", _plain),
    ("repro.sim.metrics", "UtilityAccumulator", "record", "accumulator.record", _plain),
    ("repro.obs.events", "EventSink", "emit", "events.emit", _plain),
)


def _gain_patches() -> List[Tuple[Any, str, Callable]]:
    """Every evaluator class that defines its own ``gain``/``gains``."""
    module = importlib.import_module("repro.utility.incremental")
    base = module.IncrementalEvaluator
    sites = []
    for value in vars(module).values():
        if isinstance(value, type) and issubclass(value, base):
            for name, factory in (("gain", _gain), ("gains", _gains)):
                if name in vars(value):
                    sites.append((value, name, factory))
    return sites


def install(recorder: Recorder) -> Callable[[], None]:
    """Patch every layer; returns a function that undoes the patches."""
    undo: List[Tuple[Any, str, Any]] = []
    for module_name, class_name, attribute, layer, factory in PATCHES:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = owner.__dict__[attribute] if class_name else getattr(owner, attribute)
        undo.append((owner, attribute, original))
        setattr(owner, attribute, factory(recorder, layer, original))
    for owner, attribute, factory in _gain_patches():
        original = owner.__dict__[attribute]
        undo.append((owner, attribute, original))
        setattr(owner, attribute, factory(recorder, original))

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall
