"""Spans for the traced run, recorded from the benchmark's own files.

The program under test has no tracing of its own at layer boundaries, so
the traced run wraps public functions and methods *where their callers
look them up* (``repro.core.prompt_model.prompt_forward_encoded``, not the
definition in ``repro.infer.fastpath``) and records a span per call: name,
thread, start/end wall time, start/end thread CPU time, parent span and a
request id when the caller supplies one. Spans stay in memory and are
written as JSONL when the run ends.

A span's *self* time is its duration minus the time its child spans on the
same thread cover. The layer of a span is its name up to the first dot.

The wrappers are installed and removed at window boundaries, so one run
alternates traced and untraced windows and measures the tracing overhead
itself.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("name", "thread", "start", "end", "cpu_start", "cpu_end",
                 "parent", "req", "child_wall", "child_cpu", "extra")

    def __init__(self, name: str, parent: Optional[int],
                 req: Optional[int]) -> None:
        self.name = name
        self.thread = threading.get_ident()
        self.parent = parent
        self.req = req
        self.child_wall = 0.0
        self.child_cpu = 0.0
        self.extra: Optional[dict] = None
        self.cpu_start = time.thread_time()
        self.start = time.perf_counter()
        self.end = self.start
        self.cpu_end = self.cpu_start

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start

    @property
    def self_wall(self) -> float:
        return max(self.wall - self.child_wall, 0.0)

    @property
    def self_cpu(self) -> float:
        return max(self.cpu - self.child_cpu, 0.0)


#: ``measure(args, kwargs)`` runs before the call and returns a function of
#: the call's result that yields the span's extra numbers
Measure = Callable[[tuple, dict], Callable[[object], dict]]

#: (owner, attribute, span name, optional measure)
Patch = Tuple[object, str, str, Optional[Measure]]


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self, patches: Sequence[Patch]) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = list(patches)
        self._originals: List[Tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, req: Optional[int] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if req is None and parent is not None:
            req = self.spans[parent].req
        span = Span(name, parent, req)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def finish(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.cpu_end = time.thread_time()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            parent = self.spans[span.parent]
            parent.child_wall += span.wall
            parent.child_cpu += span.cpu
        return span

    def span(self, name: str, req: Optional[int] = None):
        """A span around the benchmark's own code; like the wrappers, it
        records only while they are installed."""
        if not self._originals:
            return _NULL_CONTEXT
        return _SpanContext(self, name, req)

    def wrap(self, fn, name: str, measure: Optional[Measure] = None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            done = measure(args, kwargs) if measure is not None else None
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.finish(index)
            if done is not None:
                span.extra = done(result)
            return result

        return traced

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        if self._originals:
            return
        for owner, attr, name, measure in self._patches:
            # remember the owner's own entry (None when a class inherits
            # the method), so uninstall restores exactly what was there
            self._originals.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, self.wrap(getattr(owner, attr), name,
                                           measure))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._originals.clear()

    # -- reporting -----------------------------------------------------
    def totals(self) -> Dict[str, dict]:
        """Per span name: calls, wall (outermost spans of that name only,
        so recursion through the same entry point counts once), self wall,
        self CPU and summed extras (seconds)."""
        out: Dict[str, dict] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {
                "calls": 0, "wall": 0.0, "self_wall": 0.0, "self_cpu": 0.0})
            entry["calls"] += 1
            parent = self.spans[span.parent] if span.parent is not None \
                else None
            if parent is None or parent.name != span.name:
                entry["wall"] += span.wall
            entry["self_wall"] += span.self_wall
            entry["self_cpu"] += span.self_cpu
            for key, value in (span.extra or {}).items():
                entry[key] = entry.get(key, 0.0) + value
        return out

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index, "name": span.name, "thread": span.thread,
                    "parent": span.parent, "req": span.req,
                    "start_ms": 1e3 * (span.start - self.t0),
                    "end_ms": 1e3 * (span.end - self.t0),
                    "self_ms": 1e3 * span.self_wall,
                    "cpu_ms": 1e3 * span.cpu,
                }
                if span.extra:
                    record.update(span.extra)
                handle.write(json.dumps(record) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "req", "index")

    def __init__(self, tracer: Tracer, name: str, req: Optional[int]) -> None:
        self.tracer = tracer
        self.name = name
        self.req = req

    def __enter__(self) -> "_SpanContext":
        self.index = self.tracer.begin(self.name, self.req)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.finish(self.index)


class NullTracer:
    """Stand-in when tracing is off: spans cost one call and record
    nothing."""

    def span(self, name: str, req: Optional[int] = None):
        return _NULL_CONTEXT

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


class _NullContext:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_CONTEXT = _NullContext()
