"""Self-time arithmetic of nested spans, and span bookkeeping."""

import sys
import threading
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tracing import Span, Tracer, patch_function, self_times, union_length  # noqa: E402


def span(name, start, end, parent=None):
    made = Span(name, start, parent, "main")
    made.end = end
    return made


def test_union_counts_overlaps_once():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(1, 2), (1, 2)]) == 1
    assert union_length([]) == 0


def test_self_time_subtracts_direct_children_only():
    root = span("op:a", 0.0, 10.0)
    child = span("x:b", 1.0, 5.0, root)
    grandchild = span("y:c", 2.0, 4.0, child)
    sibling = span("x:d", 6.0, 7.0, root)
    own = self_times([root, child, grandchild, sibling])
    assert own[id(root)] == 10.0 - 4.0 - 1.0
    assert own[id(child)] == 4.0 - 2.0
    assert own[id(grandchild)] == 2.0
    assert own[id(sibling)] == 1.0
    # Self times partition the root's interval.
    assert sum(own.values()) == root.duration


def test_overlapping_children_are_subtracted_once():
    # Children on other threads may overlap each other and outlast the parent.
    root = span("op:a", 0.0, 10.0)
    first = span("x:b", 1.0, 6.0, root)
    second = span("x:c", 4.0, 12.0, root)
    own = self_times([root, first, second])
    assert own[id(root)] == 10.0 - 9.0


def test_tracer_nests_spans_per_thread():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 7

    def outer():
        return traced_inner() + 1

    traced_inner = tracer.wrap(inner, "x:inner")
    traced_outer = tracer.wrap(outer, "x:outer")
    assert traced_outer() == 8
    outer_span, inner_span = tracer.spans
    assert inner_span.parent is outer_span and outer_span.parent is None

    worker = threading.Thread(target=traced_inner, name="other")
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert tracer.spans[-1].parent is None and tracer.spans[-1].thread == "other"


def test_wrap_records_attributes_and_closes_on_error():
    tracer = Tracer()

    def fails(value):
        raise ValueError(value)

    traced = tracer.wrap(fails, "x:fails", before=lambda value: {"value": value})
    try:
        traced(3)
    except ValueError:
        pass
    (recorded,) = tracer.spans
    assert recorded.attrs == {"value": 3} and recorded.end >= recorded.start
    # The failed call left no open span behind.
    with tracer.span("op:next") as opened:
        pass
    assert opened.parent is None


def test_patch_function_replaces_names_imported_elsewhere():
    def original():
        return 1

    defining = types.ModuleType("pbtest")
    defining.original = original
    importer = types.ModuleType("pbtest.user")
    importer.alias = original
    sys.modules.update({"pbtest": defining, "pbtest.user": importer})
    try:
        assert patch_function(original, lambda: 2, prefix="pbtest") == 2
        assert defining.original() == 2 and importer.alias() == 2
    finally:
        del sys.modules["pbtest"], sys.modules["pbtest.user"]
