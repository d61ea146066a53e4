"""Which calls of the program are wrapped in spans, and the per-layer
metrics computed from those spans.

Every wrapper is installed from here, from outside the program: public
functions and methods of each layer are replaced by traced versions
(:func:`install`).  :func:`layer_metrics` turns the recorded spans into
the ``per_layer`` metrics of ``BENCHMARK.json``; :func:`op_counts`
counts, per benchmark operation, what the program's own counters must
agree with.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

from tracing import Span, Tracer, has_ancestor, patch_function, self_times

#: Names and units of the per-layer metrics, in report order.
PER_LAYER = (
    ("import_s", "s"),
    ("analysis.self_s", "s"),
    ("analysis.calls", "count"),
    ("dependencies.self_s", "s"),
    ("search.self_s", "s"),
    ("search.sizes_probed", "count"),
    ("evalcache.self_s", "s"),
    ("evalcache.queries", "count"),
    ("evalcache.hit_ratio", "ratio"),
    ("oracle.self_s", "s"),
    ("oracle.queries", "count"),
    ("oracle.useful_ratio", "ratio"),
    ("probe.blocking_s", "s"),
    ("probe.blocking_calls", "count"),
    ("probe.plain_s", "s"),
    ("probe.plain_calls", "count"),
    ("probe.states_max", "count"),
    ("kernel.compile_s", "s"),
    ("kernel.compiles", "count"),
    ("csdf.self_s", "s"),
    ("csdf.probes", "count"),
    ("sadf.worst_case_s", "s"),
    ("sadf.makespan_s", "s"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("memo_bank.restore_s", "s"),
    ("memo_bank.absorb_s", "s"),
    ("memo_bank.records", "count"),
    ("jobs.interactive.wait_s", "s"),
    ("jobs.interactive.exec_s", "s"),
    ("jobs.batch.wait_s", "s"),
    ("jobs.batch.exec_s", "s"),
    ("http.self_s", "s"),
    ("http.requests", "count"),
    ("telemetry.emits", "count"),
    ("telemetry.emit_s", "s"),
    ("loadgen.late_max_s", "s"),
    ("tracing.overhead", "ratio"),
)

_ORACLE_QUERIES = ("floor_reaches", "ceil_covers", "interval", "upper_below")
_ORACLE_METHODS = _ORACLE_QUERIES + ("observe", "lower", "upper", "snapshot")


# -- hooks reading arguments and results --------------------------------------


def _memoised(service, distribution) -> bool:
    # The memo is read, not queried: a query through the public API
    # would count a cache hit of its own.
    from repro.exceptions import CapacityError

    if not service.cache_enabled:
        return False
    try:
        return service._vector(distribution) in service._memo
    except CapacityError:
        return False


def _one_query(service, distribution, *args, **kwargs) -> dict:
    return {"queries": 1, "hits": int(_memoised(service, distribution))}


def _many_queries(service, distributions, *args, **kwargs) -> dict:
    distributions = list(distributions)
    return {
        "queries": len(distributions),
        "hits": sum(_memoised(service, d) for d in distributions),
    }


def _interval_useful(attrs: dict, result) -> None:
    low, high = result
    attrs["useful"] = int(high is not None and low == high and low > 0)


def _cut_useful(attrs: dict, result) -> None:
    attrs["useful"] = int(result is True)


def _lanes(backend, graph, vectors, *args, **kwargs) -> dict:
    return {"lanes": len(vectors)}


def _states(attrs: dict, result) -> None:
    attrs["states_max"] = max((r.states_stored for r in result), default=0)


def _saved_bytes(attrs: dict, result) -> None:
    attrs["bytes"] = result.stat().st_size


def _snapshot_records(attrs: dict, result) -> None:
    attrs["records"] = len(result.get("memo", ()))


def _trace_id(api, method, path, body=b"", headers=None) -> dict:
    supplied = {k.lower(): v for k, v in (headers or {}).items()}.get("x-trace-id")
    return {"trace_id": supplied}


# -- installation ---------------------------------------------------------------


def _wrap_method(tracer: Tracer, cls, method: str, name: str, before=None, after=None) -> None:
    setattr(cls, method, tracer.wrap(getattr(cls, method), name, before, after))


def _wrap_function(tracer: Tracer, module_name: str, function: str, name: str, before=None, after=None) -> None:
    original = getattr(importlib.import_module(module_name), function)
    wrapper = tracer.wrap(original, name, before, after)
    if patch_function(original, wrapper) == 0:  # pragma: no cover - table out of date
        raise RuntimeError(f"{module_name}.{function} was not patched anywhere")


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer in spans of *tracer*."""
    for module in (
        "repro.buffers.explorer",
        "repro.csdf.explorer",
        "repro.sadf.explorer",
        "repro.service.api",
        "repro.service.jobs",
        "repro.service.cli",
    ):
        importlib.import_module(module)

    from repro.buffers.evalcache import EvaluationService
    from repro.buffers.oracle import ThroughputBoundsOracle
    from repro.buffers.search import SizeSearch
    from repro.csdf.executor import CSDFExecutor
    from repro.engine import backends, ccore
    from repro.engine.executor import Executor
    from repro.runtime.telemetry import TelemetryHub
    from repro.service.api import AnalysisApi
    from repro.service.registry import MemoBank

    _wrap_function(tracer, "repro.analysis.throughput", "max_throughput", "analysis:max_throughput")
    for function in ("lower_bound_distribution", "upper_bound_distribution"):
        _wrap_function(tracer, "repro.buffers.bounds", function, f"analysis:{function}")
    for function in ("dependency_sweep", "find_minimal_distribution"):
        _wrap_function(tracer, "repro.buffers.dependencies", function, f"dependencies:{function}")
    _wrap_function(tracer, "repro.buffers.search", "divide_and_conquer", "search:divide_and_conquer")
    for method in ("max_throughput_for_size", "ascending_probe"):
        _wrap_method(tracer, SizeSearch, method, "search:size")

    _wrap_method(tracer, EvaluationService, "__call__", "evalcache:__call__", _one_query)
    _wrap_method(tracer, EvaluationService, "cached_throughput", "evalcache:cached_throughput", _one_query)
    _wrap_method(tracer, EvaluationService, "evaluate_blocking", "evalcache:evaluate_blocking", _one_query)
    for method in ("evaluate_many", "evaluate_blocking_many"):
        _wrap_method(tracer, EvaluationService, method, f"evalcache:{method}", _many_queries)
    _wrap_method(tracer, EvaluationService, "cuts_below", "evalcache:cuts_below")

    for method in _ORACLE_METHODS:
        after = {"interval": _interval_useful, "upper_below": _cut_useful}.get(method)
        _wrap_method(tracer, ThroughputBoundsOracle, method, f"oracle:{method}", after=after)

    _wrap_method(tracer, Executor, "run", "probe:blocking")
    for backend in backends.backend_names():
        cls = type(backends.backend_for(backend))
        _wrap_method(tracer, cls, "evaluate_batch", "probe:plain", _lanes, _states)

    _wrap_function(tracer, "repro.engine.ccore", "kernel_for", "kernel:kernel_for")
    _wrap_method(tracer, ccore.KernelCache, "store", "kernel:compile")

    _wrap_function(tracer, "repro.csdf.explorer", "explore_csdf_design_space", "csdf:explore")
    _wrap_method(tracer, CSDFExecutor, "run", "csdf:probe")
    _wrap_function(tracer, "repro.sadf.throughput", "worst_case_throughput", "sadf:worst_case")
    _wrap_function(tracer, "repro.sadf.makespan", "iteration_makespan", "sadf:makespan")

    _wrap_function(tracer, "repro.runtime.checkpoint", "save_checkpoint", "checkpoint:save", after=_saved_bytes)
    _wrap_method(tracer, MemoBank, "snapshot", "memo_bank:restore", after=_snapshot_records)
    _wrap_method(tracer, EvaluationService, "restore_state", "memo_bank:restore")
    _wrap_method(tracer, MemoBank, "absorb", "memo_bank:absorb")
    _wrap_method(tracer, EvaluationService, "export_state", "memo_bank:absorb")

    _wrap_method(tracer, AnalysisApi, "handle", "http:handle", _trace_id)
    _wrap_method(tracer, TelemetryHub, "emit", "telemetry:emit")


# -- metrics from spans -----------------------------------------------------------


def _outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called *name* not nested in another span of that name."""
    return [
        span
        for span in spans
        if span.name == name and not has_ancestor(span, lambda p: p.name == name)
    ]


def _is_blocking_probe(span: Span) -> bool:
    # The reference backend runs the executor for plain probes too;
    # those belong to the enclosing plain probe.
    return span.name == "probe:blocking" and not (
        span.parent is not None and span.parent.name == "probe:plain"
    )


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics derivable from *spans* (see :data:`PER_LAYER`)."""
    own = self_times(spans)
    self_by_layer: dict[str, float] = defaultdict(float)
    count_by_name: dict[str, int] = defaultdict(int)
    for span in spans:
        self_by_layer[span.layer] += own[id(span)]
        count_by_name[span.name] += 1

    def total(name: str) -> float:
        return sum(span.duration for span in _outermost(spans, name))

    def attr_sum(prefix: str, key: str) -> int:
        return sum(
            span.attrs.get(key, 0) for span in spans if span.name.startswith(prefix)
        )

    evalcache_queries = attr_sum("evalcache:", "queries")
    oracle_queries = sum(count_by_name[f"oracle:{name}"] for name in _ORACLE_QUERIES)
    blocking = [span for span in spans if _is_blocking_probe(span)]
    plain = [span for span in spans if span.name == "probe:plain"]
    compiling = {
        id(span.parent)
        for span in spans
        if span.name == "kernel:compile" and span.parent is not None
    }
    emits = [span for span in spans if span.name == "telemetry:emit"]
    return {
        "analysis.self_s": self_by_layer["analysis"],
        "analysis.calls": sum(
            count for name, count in count_by_name.items() if name.startswith("analysis:")
        ),
        "dependencies.self_s": self_by_layer["dependencies"],
        "search.self_s": self_by_layer["search"],
        "search.sizes_probed": count_by_name["search:size"],
        "evalcache.self_s": self_by_layer["evalcache"],
        "evalcache.queries": evalcache_queries,
        "evalcache.hit_ratio": (
            attr_sum("evalcache:", "hits") / evalcache_queries if evalcache_queries else 0.0
        ),
        "oracle.self_s": self_by_layer["oracle"],
        "oracle.queries": oracle_queries,
        "oracle.useful_ratio": (
            attr_sum("oracle:", "useful") / oracle_queries if oracle_queries else 0.0
        ),
        "probe.blocking_s": sum(span.duration for span in blocking),
        "probe.blocking_calls": len(blocking),
        "probe.plain_s": sum(span.duration for span in plain),
        "probe.plain_calls": len(plain),
        "probe.states_max": max((span.attrs.get("states_max", 0) for span in plain), default=0),
        "kernel.compile_s": sum(
            span.duration for span in spans if id(span) in compiling
        ),
        "kernel.compiles": count_by_name["kernel:compile"],
        "csdf.self_s": self_by_layer["csdf"],
        "csdf.probes": count_by_name["csdf:probe"],
        "sadf.worst_case_s": total("sadf:worst_case"),
        "sadf.makespan_s": total("sadf:makespan"),
        "checkpoint.save_s": total("checkpoint:save"),
        "checkpoint.bytes": attr_sum("checkpoint:", "bytes"),
        "memo_bank.restore_s": total("memo_bank:restore"),
        "memo_bank.absorb_s": total("memo_bank:absorb"),
        "memo_bank.records": attr_sum("memo_bank:", "records"),
        "http.self_s": self_by_layer["http"],
        "http.requests": count_by_name["http:handle"],
        "telemetry.emits": len(emits),
        "telemetry.emit_s": total("telemetry:emit"),
    }


def self_by_thread(spans: list[Span]) -> dict[str, dict[str, float]]:
    """``{thread: {layer: self seconds}}`` — the service's job-execution
    spans grouped per worker thread (one worker per job class)."""
    own = self_times(spans)
    grouped: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        grouped[span.thread][span.layer] += own[id(span)]
    return {thread: dict(layers) for thread, layers in grouped.items()}


def op_counts(spans: list[Span]) -> dict[int, dict[str, int]]:
    """``{id(op span): counts}`` — what the traced run saw inside each
    benchmark operation (spans named ``op:...``): probes run, memo hits,
    useful oracle answers and sizes probed.  These are the values the
    program's own counters for that operation must equal."""
    enclosing: dict[int, Span] = {}
    counts: dict[int, dict[str, int]] = {}
    # A span is appended when it opens, so its parent precedes it.
    for span in spans:
        if span.name.startswith("op:"):
            enclosing[id(span)] = span
            counts[id(span)] = dict.fromkeys(
                ("evaluations", "cache_hits", "oracle_useful", "sizes_probed"), 0
            )
            continue
        op = enclosing.get(id(span.parent)) if span.parent is not None else None
        if op is None:
            continue
        enclosing[id(span)] = op
        tally = counts[id(op)]
        if _is_blocking_probe(span):
            tally["evaluations"] += 1
        elif span.name == "probe:plain":
            tally["evaluations"] += span.attrs["lanes"]
        elif span.name.startswith("evalcache:"):
            tally["cache_hits"] += span.attrs.get("hits", 0)
        elif span.name.startswith("oracle:"):
            tally["oracle_useful"] += span.attrs.get("useful", 0)
        elif span.name == "search:size":
            tally["sizes_probed"] += 1
    return counts
