"""Unit tests for the shared evaluation service (memo + bounds oracle)."""

from fractions import Fraction

import pytest

from repro.buffers.distribution import StorageDistribution
from repro.buffers.evalcache import EvaluationService
from repro.engine.executor import Executor
from repro.exceptions import CapacityError
from repro.gallery import fig1_example
from repro.runtime.config import ExplorationConfig


@pytest.fixture()
def graph():
    return fig1_example()


def dist(**capacities):
    return StorageDistribution(capacities)


def test_memo_answers_repeat_queries_without_rerunning(graph):
    service = EvaluationService(graph, "c")
    d = dist(alpha=4, beta=2)
    first = service(d)
    second = service(d)
    assert first == second == Executor(graph, d, "c").run().throughput
    assert service.stats.evaluations == 1
    assert service.stats.cache_hits == 1
    assert service.cache_size == 1


def test_records_max_states(graph):
    service = EvaluationService(graph, "c")
    service(dist(alpha=4, beta=2))
    assert service.stats.max_states_stored >= 2


def test_cache_disabled_reruns_everything(graph):
    service = EvaluationService(graph, "c", config=ExplorationConfig(cache=False))
    d = dist(alpha=4, beta=2)
    assert service(d) == service(d)
    assert service.stats.evaluations == 2
    assert service.stats.cache_hits == 0
    assert service.cache_size == 0


def test_evaluate_many_preserves_input_order(graph):
    service = EvaluationService(graph, "c")
    batch = [dist(alpha=2, beta=2), dist(alpha=4, beta=2), dist(alpha=4, beta=6)]
    values = service.evaluate_many(batch)
    assert values == [Executor(graph, d, "c").run().throughput for d in batch]


def test_blocking_query_reruns_pruned_records(graph):
    """A closed oracle interval synthesises a record without blocking
    data; a blocking caller that still needs to expand the distribution
    must trigger a real execution."""
    ceiling = Fraction(1, 4)
    service = EvaluationService(graph, "c", config=ExplorationConfig(bounds=True))
    service.set_ceiling(ceiling)
    service(dist(alpha=7, beta=3))  # ceiling witness
    superset = dist(alpha=7, beta=4)
    assert service(superset) == ceiling  # [1/4, 1/4]: answered exactly
    assert service.stats.bounds_exact == 1
    assert service.stats.evaluations == 1

    # The thin record will do when reaching the ceiling ends expansion.
    record = service.evaluate_blocking(superset, reached=lambda value: value >= ceiling)
    assert record.throughput == ceiling
    assert not record.has_blocking
    assert service.stats.evaluations == 1

    # Without a reached() that covers the ceiling, blocking info is
    # needed, so the query must execute.
    record = service.evaluate_blocking(superset, reached=lambda value: False)
    assert record.has_blocking
    assert service.stats.evaluations == 2
    assert record.throughput == ceiling


def test_blocking_record_not_replaced_by_thinner_one(graph):
    service = EvaluationService(graph, "c")
    d = dist(alpha=3, beta=3)
    full = service.evaluate_blocking(d, reached=lambda value: False)
    assert full.has_blocking
    again = service.evaluate_blocking(d, reached=lambda value: False)
    assert again is full
    assert service.stats.evaluations == 1


def test_missing_channel_raises_capacity_error(graph):
    service = EvaluationService(graph, "c")
    with pytest.raises(CapacityError):
        service(StorageDistribution({"alpha": 4}))


def test_evaluations_property_dumps_the_cache(graph):
    service = EvaluationService(graph, "c")
    d = dist(alpha=4, beta=2)
    value = service(d)
    assert service.evaluations == {d: value}


def test_context_manager_closes_pool(graph):
    with EvaluationService(graph, "c", config=ExplorationConfig(workers=2)) as service:
        batch = [dist(alpha=2, beta=2), dist(alpha=4, beta=2)]
        values = service.evaluate_many(batch)
        assert values == [Executor(graph, d, "c").run().throughput for d in batch]
    assert service._prober is None
