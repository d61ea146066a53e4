"""EvaluationService backend selection: the selected backend for plain
queries, the blocking backend for blocking-aware ones, identical answers.

A compiled backend without the ``blocking`` capability (an application
may register one) has its blocking-aware queries run on the reference
backend."""

from fractions import Fraction

import pytest

from repro.buffers.bounds import lower_bound_distribution
from repro.buffers.distribution import StorageDistribution
from repro.buffers.evalcache import EvaluationService
from repro.buffers.explorer import explore_design_space
from repro.engine import backends
from repro.engine.backends import ReferenceBackend
from repro.runtime.config import ExplorationConfig


def distributions():
    return [
        StorageDistribution({"alpha": 4 + i, "beta": 2 + j})
        for i in range(3)
        for j in range(2)
    ]


def test_pooled_plain_records_carry_no_blocking_data(modem_graph):
    """A plain miss sent to the worker pool asks for no blocking data,
    as on the serial path: the memo records are identical."""
    lower = lower_bound_distribution(modem_graph)
    batch = [
        StorageDistribution({**lower, name: lower[name] + 1})
        for name in modem_graph.channel_names[:6]
    ]
    memos = {}
    for workers in (1, 2):
        service = EvaluationService(modem_graph, config=ExplorationConfig(workers=workers))
        try:
            service.evaluate_many(batch)
            assert service.stats.parallel_batches == (1 if workers == 2 else 0)
            memos[workers] = dict(service._memo)
        finally:
            service.close()
    assert len(memos[2]) == len(batch)
    assert all(record.space_blocked is None for record in memos[2].values())
    assert memos[2] == memos[1]


def test_plain_queries_use_fast_kernel_by_default(fig1):
    service = EvaluationService(fig1, "c")
    values = [service(d) for d in distributions()]
    assert service.stats.fast_runs == service.stats.evaluations > 0
    reference = EvaluationService(fig1, "c", config=ExplorationConfig(backend="reference"))
    assert values == [reference(d) for d in distributions()]
    assert reference.stats.fast_runs == 0


class _PlainCompiledBackend:
    """A stand-in for a compiled backend without the ``blocking`` capability."""

    name = "plain-compiled"
    capabilities = frozenset({"exact", "compiled"})

    def evaluate_batch(self, graph, vectors, observe=None, *, blocking=False):
        return backends.backend_for("fastcore").evaluate_batch(graph, vectors, observe)


@pytest.fixture()
def plain_backend(monkeypatch):
    backend = _PlainCompiledBackend()
    monkeypatch.setitem(backends._BACKENDS, backend.name, backend)
    return backend


def test_blocking_queries_always_run_on_reference(fig1, plain_backend):
    service = EvaluationService(fig1, "c", config=ExplorationConfig(backend=plain_backend.name))
    record = service.evaluate_blocking(StorageDistribution({"alpha": 4, "beta": 2}))
    assert record.has_blocking
    assert service.stats.fast_runs == 0


def test_compiled_backend_sends_blocking_queries_to_reference(fig1, plain_backend):
    service = EvaluationService(fig1, "c", config=ExplorationConfig(backend=plain_backend.name))
    assert service(StorageDistribution({"alpha": 4, "beta": 2})) == Fraction(1, 7)
    assert service.stats.fast_runs == 1
    record = service.evaluate_blocking(StorageDistribution({"alpha": 5, "beta": 3}))
    assert record.has_blocking and record.throughput == Fraction(1, 6)
    assert service.stats.fast_runs == 1  # the blocking probe ran on the reference backend


def test_fastcore_serves_blocking_queries_itself(fig1):
    service = EvaluationService(fig1, "c", config=ExplorationConfig(backend="fastcore"))
    reference = EvaluationService(fig1, "c", config=ExplorationConfig(backend="reference"))
    d = StorageDistribution({"alpha": 4, "beta": 2})
    record = service.evaluate_blocking(d)
    assert record == reference.evaluate_blocking(d)
    assert record.space_blocked  # the tight distribution blocks on space
    assert service.stats.fast_runs == service.stats.evaluations == 1
    assert reference.stats.fast_runs == 0


class _CountingBlockingBackend(ReferenceBackend):
    """A stand-in for a blocking-aware compiled kernel."""

    name = "counting-blocking"
    capabilities = frozenset({"exact", "blocking", "compiled"})

    def __init__(self):
        self.lanes = 0

    def evaluate_batch(self, graph, vectors, observe=None, *, blocking=False):
        self.lanes += len(vectors)
        return super().evaluate_batch(graph, vectors, observe, blocking=blocking)


@pytest.fixture()
def blocking_backend(monkeypatch):
    backend = _CountingBlockingBackend()
    monkeypatch.setitem(backends._BACKENDS, backend.name, backend)
    return backend


def test_blocking_capable_backend_serves_blocking_queries(fig1, blocking_backend):
    """Declaring the blocking capability is all a backend needs to run
    the dependency sweep's probes itself."""
    result = explore_design_space(
        fig1, "c", config=ExplorationConfig(backend=blocking_backend.name)
    )
    assert [(p.size, p.throughput) for p in result.front] == [
        (6, Fraction(1, 7)),
        (8, Fraction(1, 6)),
        (9, Fraction(1, 5)),
        (10, Fraction(1, 4)),
    ]
    assert blocking_backend.lanes == result.stats.evaluations > 0


def test_blocking_record_never_replaced_by_thin_one(fig1):
    service = EvaluationService(fig1, "c")
    d = StorageDistribution({"alpha": 4, "beta": 2})
    full = service.evaluate_blocking(d)
    assert service(d) == full.throughput  # served from cache
    assert service.evaluate_blocking(d) is full
    assert service.stats.evaluations == 1


def test_thin_record_upgraded_when_blocking_needed(fig1):
    service = EvaluationService(fig1, "c")
    d = StorageDistribution({"alpha": 4, "beta": 2})
    thin_throughput = service(d)
    assert service.stats.fast_runs == 1
    record = service.evaluate_blocking(d)
    assert record.has_blocking
    assert record.throughput == thin_throughput
    assert service.stats.evaluations == 2  # re-executed for blocking data
