"""In-memory span recorder that wraps public calls from outside ``src/``.

A traced run installs wrappers around the public entry points of each
layer (``NCPUServer.submit``, ``BNNAccelerator.infer_batch``, an
engine's ``predict`` / ``run_program``, ``FastCPU.run``, ...), records one
span per call — name, start, end, parent, attributes — and restores every
wrapped attribute on :meth:`SpanRecorder.restore`.  Nothing under
``src/`` changes: the wrappers are installed on the classes and modules
at run time, so an untraced run executes exactly the shipped code.

Parents come from a per-thread stack, so synchronous nesting (an
``infer_batch`` calling ``predict`` in an executor thread) links up.
Coroutine spans never touch the stack: tasks interleave on one thread,
so they are recorded flat with their own attributes (the serve request
index) instead.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

_ABSENT = object()


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional[int], attrs: Dict[str, Any]):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; :meth:`write` dumps them as JSON lines."""

    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, start: float, parent: Optional[int],
             attrs: Dict[str, Any]) -> Span:
        with self._lock:
            span = Span(len(self.spans), name, start, parent, attrs)
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any):
        """Record a span around the ``with`` body, nested under the
        thread's innermost open span."""
        stack = self._stack()
        span = self._new(name, time.perf_counter(),
                         stack[-1].id if stack else None, attrs)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float,
            **attrs: Any) -> Span:
        """Record a finished span with no parent."""
        span = self._new(name, start, None, attrs)
        span.end = end
        return span

    def patch(self, owner: Any, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(current)``; undone by
        :meth:`restore` (an inherited attribute is deleted again)."""
        original = vars(owner).get(attr, _ABSENT)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._restore.append((owner, attr, original))

    def wrap(self, owner: Any, attr: str, name: str,
             attrs: Optional[Callable[..., Dict[str, Any]]] = None) -> None:
        """Record a span ``name`` around every ``owner.attr`` call;
        ``attrs(*args)`` may add span attributes from the call."""

        def make(function: Callable) -> Callable:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                extra = attrs(*args) if attrs is not None else {}
                with self.span(name, **extra):
                    return function(*args, **kwargs)
            return wrapper

        self.patch(owner, attr, make)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def named(self, name: str, since: int = 0) -> List[Span]:
        """Spans called ``name`` recorded at or after index ``since``."""
        return [span for span in self.spans[since:] if span.name == name]

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) \
                    + span.duration
        return {span.id: span.duration - covered.get(span.id, 0.0)
                for span in self.spans}

    def write(self, path) -> None:
        """One JSON list per line: ``[id, name, start, end, parent, attrs]``
        with times in seconds on the ``time.perf_counter`` clock."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps([span.id, span.name, span.start,
                                         span.end, span.parent,
                                         span.attrs]) + "\n")
