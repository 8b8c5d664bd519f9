"""Span tracing from outside the program: wrappers patched over repro's layers.

Nothing under ``src/`` knows about this module.  :func:`install_engine_hooks`
replaces each hooked function with a wrapper at the name its caller looks up (for
example both ``repro.core.database.parse`` and ``repro.sql.parser.parse``),
so a refactor that moves a function keeps its span as long as one of the
names still resolves.  A name that no longer resolves is recorded as an
*absent* hook; the layer metrics built from it are then reported as absent
and the end-to-end run is unaffected.

Spans carry ``(op, id, parent, name, start, end)``.  Spans nested on one
thread form a stack: a child's duration is charged to its parent's covered
time, and a span's self time is its duration minus that covered time.
Aggregates cover every span; the raw span list is capped (``MAX_SPANS``)
so a long traced run cannot grow without bound, and is written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Raw spans kept for the trace file; aggregates are always complete.
MAX_SPANS = 100_000


class _Frame:
    __slots__ = ("span_id", "op", "parent", "name", "start", "covered", "tag")

    def __init__(self, span_id, op, parent, name, start, tag):
        self.span_id = span_id
        self.op = op
        self.parent = parent
        self.name = name
        self.start = start
        self.covered = 0.0
        self.tag = tag


class Tracer:
    """In-memory span recorder with per-phase aggregates.

    ``phase`` ("setup", "run", "verify") selects the aggregate bucket, so
    set-up layers (loaders, index builds, ``ANALYZE``) and timed-phase
    layers are reported apart.
    """

    def __init__(self):
        self.phase = "setup"
        self.spans: List[Tuple] = []
        self.dropped = 0
        self.total: Dict[Tuple[str, str], float] = defaultdict(float)
        self.self_time: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self.by_tag: Dict[Tuple[str, str], Tuple[float, int]] = {}
        self.absent: List[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._lock = threading.Lock()

    # -- span stack --------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, tag: Optional[str] = None, op=None) -> _Frame:
        """Open a span; nested under this thread's open span, or a root of
        operation ``op`` (a new one when None)."""
        stack = self._stack()
        top = stack[-1] if stack else None
        parent = None
        if top is not None:
            op, parent, tag = top.op, top.span_id, tag or top.tag
        elif op is None:
            op = next(self._ops)
        frame = _Frame(next(self._ids), op, parent, name, time.perf_counter(), tag)
        stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> float:
        finished = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = finished - frame.start
        if stack and stack[-1].span_id == frame.parent:
            stack[-1].covered += duration
        self._record(frame, finished, duration, duration - frame.covered)
        return duration

    def _record(self, frame: _Frame, finished: float, duration: float, self_s: float) -> None:
        key = (self.phase, frame.name)
        with self._lock:
            self.total[key] += duration
            self.self_time[key] += self_s
            self.calls[key] += 1
            if frame.tag is not None:
                tag_key = (self.phase, f"{frame.name}@{frame.tag}")
                spent, runs = self.by_tag.get(tag_key, (0.0, 0))
                self.by_tag[tag_key] = (spent + duration, runs + 1)
            if len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (frame.op, frame.span_id, frame.parent, frame.name, frame.start, finished)
                )
            else:
                self.dropped += 1

    def detached(self, name: str, start: float, finished: float, op=None) -> None:
        """Record a root span that did not nest on a thread's stack (async code)."""
        frame = _Frame(next(self._ids), op or next(self._ops), None, name, start, None)
        self._record(frame, finished, finished - start, finished - start)

    def new_op(self) -> int:
        return next(self._ops)

    def current(self) -> Optional[_Frame]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, tag: Optional[str] = None) -> Iterator[_Frame]:
        frame = self.begin(name, tag=tag)
        try:
            yield frame
        finally:
            self.end(frame)

    def op(self, tag: Optional[str] = None):
        """Root span around one benchmark operation (``with tracer.op("Q1")``)."""
        return self.span("op", tag)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[(self.phase, name)] += amount

    # -- read-out ----------------------------------------------------------

    def get_total(self, name: str, phase: str = "run") -> float:
        return self.total.get((phase, name), 0.0)

    def get_self(self, name: str, phase: str = "run") -> float:
        return self.self_time.get((phase, name), 0.0)

    def get_calls(self, name: str, phase: str = "run") -> int:
        return self.calls.get((phase, name), 0)

    def get_count(self, name: str, phase: str = "run") -> float:
        return self.counters.get((phase, name), 0.0)

    def unattributed_share(self, root: str, phase: str = "run") -> Optional[float]:
        """Share of root-span time that no instrumented layer covers."""
        total = self.get_total(root, phase)
        return self.get_self(root, phase) / total if total else None

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        payload = {
            "fields": ["op", "id", "parent", "name", "start", "end"],
            "spans": self.spans,
            "dropped_spans": self.dropped,
            "absent_hooks": self.absent,
            "aggregates": [
                {
                    "phase": phase,
                    "name": name,
                    "calls": self.calls[(phase, name)],
                    "total_s": self.total[(phase, name)],
                    "self_s": self.self_time[(phase, name)],
                }
                for phase, name in sorted(self.total)
            ],
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------


def _resolve(target: str):
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name) or None."""
    module_name, _, attr_path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def span_wrapper(tracer: Tracer, name: str, fn: Callable, materialize: bool = False) -> Callable:
    """Wrap ``fn`` in a span; ``materialize`` drains a returned iterator
    inside the span, so a generator's work is charged to it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
            if materialize:
                result = list(result)
                tracer.count(name + ".rows", len(result))
        finally:
            tracer.end(frame)
        return iter(result) if materialize else result

    wrapper.__perfbench_original__ = fn
    return wrapper


class Patcher:
    """Installs wrappers and restores every original on :meth:`restore`."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []
        self._wrapped: Dict[int, Callable] = {}

    def patch(self, targets, make: Callable[[Callable], Callable], label: str) -> bool:
        """Patch every resolvable name in ``targets`` with ``make(original)``.

        Names bound to the same function share one wrapper, so a call that
        passes through two patched names is counted once.  Returns False
        (and records ``label`` as absent) when no name resolves.
        """
        found = False
        for target in targets:
            resolved = _resolve(target)
            if resolved is None:
                continue
            owner, attr = resolved
            original = inspect.getattr_static(owner, attr)
            func = getattr(original, "__func__", original)
            func = getattr(func, "__perfbench_original__", func)
            wrapper = self._wrapped.get(id(func))
            if wrapper is None:
                wrapper = self._wrapped[id(func)] = make(func)
            if isinstance(original, staticmethod):
                wrapper = staticmethod(wrapper)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            found = True
        if not found:
            self.tracer.absent.append(label)
        return found

    def spans(self, name: str, *targets: str, materialize: bool = False) -> bool:
        return self.patch(
            targets, lambda fn: span_wrapper(self.tracer, name, fn, materialize), name
        )

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._wrapped.clear()


class TimedRLock:
    """Drop-in for ``Database._lock`` that charges acquire waits to a counter."""

    def __init__(self, tracer: Tracer):
        self._lock = threading.RLock()
        self._tracer = tracer

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        started = time.perf_counter()
        acquired = self._lock.acquire(blocking, timeout)
        self._tracer.count("core.lock_wait_s", time.perf_counter() - started)
        self._tracer.count("core.lock_acquires")
        return acquired

    def release(self) -> None:
        self._lock.release()

    __enter__ = acquire

    def __exit__(self, *exc) -> None:
        self._lock.release()


def install_engine_hooks(tracer: Tracer, patcher: Patcher) -> None:
    """Spans over the engine's layers (core, sql, plan, optimizer, exec,
    index, storage, catalog) and the TPC-H loader.  Used in-process by the
    embedded workloads and inside the server launcher for the wire one."""
    p = patcher
    p.spans("core.execute", "repro.core.database:Database.execute")
    p.spans("core.prepared_execute", "repro.core.database:Database._execute_prepared")
    p.spans("core.commit", "repro.core.database:Database._commit")
    for method in ("_execute_insert", "_execute_update", "_execute_delete"):
        p.spans("exec.dml", f"repro.core.database:Database.{method}")
    p.spans("storage.checkpoint", "repro.core.database:Database.checkpoint")
    p.spans("sql.parse", "repro.core.database:parse", "repro.sql.parser:parse")
    p.spans(
        "sql.params",
        "repro.core.database:normalize_params",
        "repro.sql.params:normalize_params",
    )
    p.spans(
        "sql.params",
        "repro.core.database:substitute_params",
        "repro.sql.params:substitute_params",
    )
    for method in ("bind_query", "bind_prepared", "bind_insert_rows", "bind_expr"):
        p.spans("plan.bind", f"repro.plan.binder:Binder.{method}")
    p.spans("optimizer.optimize", "repro.optimizer.optimizer:Optimizer.optimize")
    p.spans(
        "exec.run",
        "repro.core.database:execute_volcano",
        materialize=True,
    )
    p.spans(
        "exec.run",
        "repro.core.database:execute_vectorized",
        materialize=True,
    )
    p.spans("index.lookup", "repro.index.btree:BPlusTree.search")
    p.spans("index.lookup", "repro.index.btree:BPlusTree.range", materialize=True)
    p.spans("index.lookup", "repro.index.hashindex:HashIndex.search")
    p.spans("index.build", "repro.catalog.catalog:Catalog.create_index")
    p.spans("catalog.analyze", "repro.catalog.catalog:Catalog.analyze")
    p.spans("storage.wal.append", "repro.storage.wal:WriteAheadLog.append")
    p.spans("storage.wal.flush", "repro.storage.wal:WriteAheadLog.flush")
    p.spans("storage.wal.compact", "repro.storage.wal:WriteAheadLog.compact")

    def count_record_bytes(fn):
        @functools.wraps(fn)
        def wrapper(record):
            data = fn(record)
            top = tracer.current()
            if top is not None and top.name == "storage.wal.append":
                tracer.count("storage.wal.bytes", len(data))
            elif (
                top is not None
                and top.name == "storage.wal.compact"
                and record.type.name == "INSERT"
            ):
                tracer.count("storage.checkpoint.rows")
            return data

        return wrapper

    p.patch(["repro.storage.wal:encode_record"], count_record_bytes, "storage.wal.bytes")

    def swap_lock(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            self._lock = TimedRLock(tracer)

        return wrapper

    p.patch(["repro.core.database:Database.__init__"], swap_lock, "core.lock_wait")
    p.spans("workloads.load", "repro.workloads.tpch:load_tpch")
