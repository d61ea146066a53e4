"""In-memory spans around calls into the program, and their self times.

A :class:`Tracer` wraps functions and methods of the program from the
outside: each wrapped call records one :class:`Span` (name, start, end,
parent span, thread and free-form attributes).  Spans stay in memory
until the run ends; nothing is written while the work is timed.

The self time of a span is its duration minus the part of its interval
that its child spans cover (children that overlap are counted once).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections.abc import Callable, Iterable


class Span:
    """One wrapped call: ``name`` is ``"<layer>:<function>"``."""

    __slots__ = ("name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, name: str, start: float, parent: "Span | None", thread: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.attrs: dict = {}

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped calls, per thread, in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        """Start a span as a child of the innermost open span of this thread."""
        stack = self._stack()
        span = Span(
            name,
            self.clock(),
            stack[-1] if stack else None,
            threading.current_thread().name,
        )
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def span(self, name: str) -> "_SpanContext":
        """``with tracer.span("op:front"):`` — a span around a block."""
        return _SpanContext(self, name)

    def wrap(
        self,
        func: Callable,
        name: str,
        before: Callable[..., dict] | None = None,
        after: Callable[[dict, object], None] | None = None,
    ) -> Callable:
        """*func* wrapped in a span.

        ``before(*args, **kwargs)`` may return attributes measured before
        the call; ``after(attrs, result)`` may add attributes from the
        result.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                if before is not None:
                    span.attrs.update(before(*args, **kwargs))
                result = func(*args, **kwargs)
                if after is not None:
                    after(span.attrs, result)
                return result
            finally:
                tracer.close(span)

        traced.__perfbench_original__ = func
        return traced


class _SpanContext:
    __slots__ = ("_tracer", "_name", "span")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> Span:
        self.span = self._tracer.open(self._name)
        return self.span

    def __exit__(self, *exc_info) -> None:
        self._tracer.close(self.span)


def patch_function(original: Callable, wrapper: Callable, prefix: str = "repro") -> int:
    """Replace *original* by *wrapper* wherever a module under *prefix*
    holds it as an attribute.

    Modules that import a function by name (``from m import f``) hold
    their own reference, which is what their callers resolve; patching
    only the defining module would miss those calls.  Returns how many
    attributes were replaced.
    """
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == prefix or module_name.startswith(prefix + ".")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)
                replaced += 1
    return replaced


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by *intervals*, overlaps counted once."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """``{id(span): self time}``: each span's duration minus the union of
    its children's intervals, clipped to the span."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = span.parent
            clipped = (max(span.start, parent.start), min(span.end, parent.end))
            if clipped[1] > clipped[0]:
                children.setdefault(id(parent), []).append(clipped)
    return {
        id(span): span.duration - union_length(children.get(id(span), ()))
        for span in spans
    }


def has_ancestor(span: Span, predicate: Callable[[Span], bool]) -> bool:
    """Whether any enclosing span satisfies *predicate*."""
    parent = span.parent
    while parent is not None:
        if predicate(parent):
            return True
        parent = parent.parent
    return False
