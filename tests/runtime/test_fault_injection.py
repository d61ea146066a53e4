"""Fault-tolerant worker pool: injected worker death, timeouts, fallback.

The contract under test: evaluations are pure, so whatever happens to
the pool — a worker SIGKILLed mid-batch, a probe exceeding its
watchdog, a pool that cannot even start — the caller still receives
the exact results, with the degradation recorded in stats instead of
silently swallowed.
"""

import os
import signal
import time

import pytest

from repro.buffers.evalcache import EvaluationService
from repro.buffers.explorer import explore_design_space
from repro.engine import parallel
from repro.engine.backends import backend_for
from repro.engine.parallel import ParallelProber
from repro.gallery.registry import gallery_graph
from repro.runtime import ExplorationConfig, TelemetryHub

REFERENCE = backend_for("reference")


def reference(graph, batch):
    """The reference backend's results for *batch*, probed serially."""
    return REFERENCE.evaluate_batch(graph, batch, "c")


def make_batch(graph, count=6, base=None):
    """Distinct distributions around the lower bounds."""
    from repro.buffers.bounds import lower_bound_distribution

    seed = base or lower_bound_distribution(graph)
    names = list(graph.channel_names)
    batch = []
    for step in range(count):
        capacities = dict(seed)
        capacities[names[step % len(names)]] += step
        batch.append(capacities)
    return batch


def kill_one_worker(prober):
    """SIGKILL one live worker of an already-started pool."""
    pool = prober._ensure_pool()
    # Force worker spawn, then pick a victim.
    pool.submit(time.monotonic).result()
    victim = next(iter(pool._processes))
    os.kill(victim, signal.SIGKILL)
    # Give the executor a beat to notice on some kernels.
    time.sleep(0.05)


class TestWorkerDeath:
    def test_killed_worker_triggers_restart_and_exact_results(self):
        graph = gallery_graph("example")
        batch = make_batch(graph)
        expected = reference(graph, batch)
        with ParallelProber(graph, "c", REFERENCE, workers=2, max_restarts=2, retry_backoff=0.0) as prober:
            kill_one_worker(prober)
            results = prober.map(batch)
            assert results == expected
            assert prober.telemetry.stats().pool_restarts >= 1
            assert prober.telemetry.stats().pool_fallback_reason is None  # recovered, not degraded

    def test_restart_budget_exhaustion_falls_back_inline(self):
        graph = gallery_graph("example")
        batch = make_batch(graph)
        expected = reference(graph, batch)
        events = []
        with ParallelProber(
            graph,
            "c",
            REFERENCE,
            workers=2,
            max_restarts=0,
            retry_backoff=0.0,
            telemetry=TelemetryHub(on_event=events.append),
        ) as prober:
            kill_one_worker(prober)
            results = prober.map(batch)
            assert results == expected  # inline fallback is still exact
            assert prober.telemetry.stats().pool_fallback_reason is not None
            assert "worker died" in prober.telemetry.stats().pool_fallback_reason
            names = [event.name for event in events]
            assert "pool_fallback" in names
            # Once failed, later batches go straight inline.
            assert prober.map(batch[:3]) == expected[:3]
            assert not prober.parallel

    def test_restart_emits_telemetry_with_backoff(self):
        graph = gallery_graph("example")
        events = []
        with ParallelProber(
            graph,
            "c",
            REFERENCE,
            workers=2,
            max_restarts=1,
            retry_backoff=0.0,
            telemetry=TelemetryHub(on_event=events.append),
        ) as prober:
            kill_one_worker(prober)
            prober.map(make_batch(graph))
        restarts = [event.data for event in events if event.name == "pool_restart"]
        assert restarts and restarts[0]["reason"] == "worker died"
        assert restarts[0]["attempt"] == 1

    def test_service_reports_pool_health_in_stats(self, monkeypatch):
        graph = gallery_graph("example")
        monkeypatch.setattr(parallel, "MAX_POOL_RESTARTS", 2)
        monkeypatch.setattr(parallel, "RETRY_BACKOFF", 0.0)
        service = EvaluationService(graph, "c", config=ExplorationConfig(workers=2))
        try:
            from repro.buffers.distribution import StorageDistribution

            batch = [StorageDistribution(c) for c in make_batch(graph)]
            kill_one_worker(service._ensure_prober())
            values = service.evaluate_many(batch)
            serial = EvaluationService(graph, "c")
            assert values == [serial(d) for d in batch]
            serial.close()
            assert service.stats.pool_restarts >= 1
        finally:
            service.close()


def _slow_task(capacity_items, blocking):
    time.sleep(0.8)
    return REFERENCE.evaluate_batch(gallery_graph("example"), [dict(capacity_items)], "c")[0]


class TestProbeTimeout:
    def test_hung_probe_trips_watchdog_and_falls_back(self, monkeypatch):
        graph = gallery_graph("example")
        batch = make_batch(graph, count=4)
        expected = reference(graph, batch)
        # Workers are forked, so they inherit the patched module and hang.
        monkeypatch.setattr(parallel, "_run_task", _slow_task)
        with ParallelProber(
            graph, "c", REFERENCE, workers=2, probe_timeout=0.1, max_restarts=0, retry_backoff=0.0
        ) as prober:
            results = prober.map(batch)
            assert results == expected  # inline path bypasses _run_task
            assert prober.telemetry.stats().pool_fallback_reason is not None
            assert "probe timeout" in prober.telemetry.stats().pool_fallback_reason

    def test_timeout_restart_then_fallback_counts(self, monkeypatch):
        graph = gallery_graph("example")
        monkeypatch.setattr(parallel, "_run_task", _slow_task)
        with ParallelProber(
            graph, "c", REFERENCE, workers=2, probe_timeout=0.1, max_restarts=1, retry_backoff=0.0
        ) as prober:
            prober.map(make_batch(graph, count=4))
            assert prober.telemetry.stats().pool_restarts == 1
            assert prober.telemetry.stats().pool_fallback_reason is not None


class TestLifecycle:
    def test_close_is_idempotent(self):
        graph = gallery_graph("example")
        prober = ParallelProber(graph, "c", REFERENCE, workers=2)
        prober.map(make_batch(graph))
        prober.close()
        prober.close()  # second close must be a no-op, not an error
        assert not prober.parallel

    def test_closed_prober_still_answers_inline(self):
        graph = gallery_graph("example")
        prober = ParallelProber(graph, "c", REFERENCE, workers=2)
        prober.close()
        batch = make_batch(graph, count=3)
        assert prober.map(batch) == reference(graph, batch)

    def test_service_close_idempotent_and_syncs_stats(self):
        graph = gallery_graph("example")
        service = EvaluationService(graph, "c", config=ExplorationConfig(workers=2))
        from repro.buffers.distribution import StorageDistribution

        service.evaluate_many([StorageDistribution(c) for c in make_batch(graph)])
        service.close()
        batches_after_first_close = service.stats.parallel_batches
        service.close()
        assert service.stats.parallel_batches == batches_after_first_close
        assert service.stats.parallel_batches >= 1

    def test_exploration_with_injected_death_matches_serial(self, monkeypatch):
        """End-to-end: a worker dying mid-exploration never changes the front."""
        graph = gallery_graph("example")
        serial = explore_design_space(graph, "c")
        monkeypatch.setattr(parallel, "MAX_POOL_RESTARTS", 3)
        monkeypatch.setattr(parallel, "RETRY_BACKOFF", 0.0)
        service = EvaluationService(graph, "c", config=ExplorationConfig(workers=2))
        try:
            # Murder a worker before the first pooled batch: the batch
            # hits BrokenProcessPool, restarts and re-runs exactly.
            kill_one_worker(service._ensure_prober())
            result = explore_design_space(
                graph, "c", config=ExplorationConfig(evaluator=service)
            )
            assert service.stats.pool_restarts >= 1 or service.stats.parallel_batches == 0
        finally:
            service.close()
        assert result.front == serial.front


class TestPoolUnavailable:
    def test_pool_creation_failure_degrades_gracefully(self, monkeypatch):
        graph = gallery_graph("example")

        def refuse(*args, **kwargs):
            raise OSError("no more processes")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)
        batch = make_batch(graph)
        with ParallelProber(graph, "c", REFERENCE, workers=2) as prober:
            assert prober.map(batch) == reference(graph, batch)
            assert "pool unavailable" in prober.telemetry.stats().pool_fallback_reason
