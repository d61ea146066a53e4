"""Unit tests for the process-pool prober."""

import pytest

from repro.buffers.bounds import lower_bound_distribution
from repro.engine.backends import backend_for
from repro.engine.executor import Executor
from repro.engine.parallel import ParallelProber
from repro.gallery import fig1_example

REFERENCE = backend_for("reference")


@pytest.fixture()
def graph():
    return fig1_example()


BATCH = [
    {"alpha": 2, "beta": 2},
    {"alpha": 4, "beta": 2},
    {"alpha": 3, "beta": 3},
    {"alpha": 4, "beta": 6},
]


def expected(graph):
    return REFERENCE.evaluate_batch(graph, BATCH, "c")


def test_serial_prober_runs_inline(graph):
    prober = ParallelProber(graph, "c", REFERENCE, workers=1)
    assert not prober.parallel
    assert prober.map(BATCH) == expected(graph)
    assert prober._pool is None  # no processes were ever spawned
    prober.close()


def test_parallel_prober_preserves_input_order(graph):
    with ParallelProber(graph, "c", REFERENCE, workers=2) as prober:
        assert prober.parallel
        results = prober.map(BATCH)
        assert results == expected(graph)
        assert prober.telemetry.stats().parallel_batches == 1
        assert prober.telemetry.stats().parallel_tasks == len(BATCH)
        # A second batch reuses the warm pool.
        assert prober.map(BATCH) == results
        assert prober.telemetry.stats().parallel_batches == 2


def test_single_item_batches_stay_inline(graph):
    with ParallelProber(graph, "c", REFERENCE, workers=2) as prober:
        assert prober.map(BATCH[:1]) == expected(graph)[:1]
        assert prober.telemetry.stats().parallel_batches == 0  # too small to be worth shipping out


def test_empty_batch(graph):
    prober = ParallelProber(graph, "c", REFERENCE, workers=2)
    assert prober.map([]) == []
    prober.close()


def test_close_is_idempotent(graph):
    prober = ParallelProber(graph, "c", REFERENCE, workers=2)
    prober.map(BATCH)
    prober.close()
    prober.close()
    # A closed prober still answers (inline or by respawning).
    assert prober.map(BATCH) == expected(graph)
    prober.close()


def test_broken_pool_falls_back_inline(graph):
    prober = ParallelProber(graph, "c", REFERENCE, workers=2)
    prober._pool_failed = True  # simulate an unspawnable pool
    assert not prober.parallel
    assert prober.map(BATCH) == expected(graph)
    assert prober.telemetry.stats().parallel_batches == 0
    prober.close()


def test_prober_on_lower_bound_distribution(graph):
    lower = lower_bound_distribution(graph)
    with ParallelProber(graph, "c", REFERENCE, workers=2) as prober:
        [result] = prober.map([dict(lower)])
        run = Executor(graph, lower, "c", track_blocking=True).run()
        assert result.throughput == run.throughput
        assert result.space_blocked == run.space_blocked
