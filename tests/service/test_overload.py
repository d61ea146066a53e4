"""Overload behaviour of the job manager and the HTTP service: breaker
trips and recovery, bulkhead isolation under a batch flood, queue caps,
idempotent replay.  Chaos injection (``params.chaos``) stands in for
wedged/killed workers — it raises from inside the worker plane exactly
like a crashed execution would."""

import time

import pytest

from repro.exceptions import RateLimited, ServiceError, ServiceUnavailable
from repro.io.jsonio import graph_to_dict
from repro.service.client import ServiceClient
from repro.service.jobs import JobManager, JobSpec
from repro.service.registry import GraphRegistry
from repro.service.resilience import JOB_CLASSES, Bulkhead, CircuitBreaker
from repro.service.server import AnalysisServer


def wait_for(predicate, timeout=20.0, step=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(step)
    raise AssertionError("condition not reached within timeout")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_manager(fig1, *, clock=None, breaker_kwargs=None, **kwargs):
    registry = GraphRegistry()
    fingerprint, _ = registry.add(fig1)
    if breaker_kwargs is not None:
        kwargs["breakers"] = {
            cls: CircuitBreaker(cls, clock=clock or time.monotonic, **breaker_kwargs)
            for cls in JOB_CLASSES
        }
    manager = JobManager(registry, allow_chaos=True, **kwargs)
    return manager, fingerprint


def spec(fingerprint, kind="throughput", **params):
    defaults = {"capacities": {"alpha": 4, "beta": 2}} if kind == "throughput" else {}
    defaults.update(params)
    return JobSpec(kind=kind, fingerprint=fingerprint, observe="c", params=defaults)


class TestBreakerOnTheManager:
    def test_chaos_failures_open_the_breaker_and_shed_load(self, fig1):
        clock = FakeClock()
        manager, fingerprint = make_manager(
            fig1, clock=clock, breaker_kwargs=dict(min_calls=2, cooldown_s=5.0)
        )
        try:
            jobs = [
                manager.submit(spec(fingerprint, chaos="fail")) for _ in range(2)
            ]
            wait_for(lambda: all(job.state == "failed" for job in jobs))
            assert all("chaos" in job.error for job in jobs)
            assert manager.breakers["interactive"].state == "open"

            with pytest.raises(ServiceUnavailable) as caught:
                manager.submit(spec(fingerprint))
            assert caught.value.status == 503
            assert caught.value.code == "breaker_open"
            assert caught.value.retry_after_s == pytest.approx(5.0)
            # the batch class is isolated: its breaker never saw a failure
            batch_job = manager.submit(spec(fingerprint, kind="dse"))
            wait_for(lambda: batch_job.state == "done")
        finally:
            manager.drain()

    def test_half_open_recovery_closes_after_a_success(self, fig1):
        clock = FakeClock()
        manager, fingerprint = make_manager(
            fig1, clock=clock, breaker_kwargs=dict(min_calls=2, cooldown_s=5.0)
        )
        try:
            jobs = [
                manager.submit(spec(fingerprint, chaos="fail")) for _ in range(2)
            ]
            wait_for(lambda: all(job.state == "failed" for job in jobs))
            assert manager.breakers["interactive"].state == "open"
            clock.advance(5.0)  # cooldown elapses -> half-open trials
            trial = manager.submit(spec(fingerprint))
            wait_for(lambda: trial.state == "done")
            assert manager.breakers["interactive"].state == "closed"
            assert manager.breakers["interactive"].counters["closed"] == 1
        finally:
            manager.drain()

    def test_client_errors_do_not_trip_the_breaker(self, fig1):
        manager, fingerprint = make_manager(
            fig1, breaker_kwargs=dict(min_calls=2, cooldown_s=5.0)
        )
        try:
            # unknown backend: a ReproError (client mistake), not an
            # internal failure — the worker plane is healthy.
            jobs = [
                manager.submit(spec(fingerprint, backend="warp")) for _ in range(4)
            ]
            wait_for(lambda: all(job.state == "failed" for job in jobs))
            assert manager.breakers["interactive"].state == "closed"
        finally:
            manager.drain()

    def test_cancelled_queued_job_releases_its_breaker_slot(self, fig1):
        clock = FakeClock()
        manager, fingerprint = make_manager(
            fig1,
            clock=clock,
            breaker_kwargs=dict(min_calls=2, cooldown_s=5.0, half_open_max=1),
        )
        try:
            jobs = [
                manager.submit(spec(fingerprint, chaos="fail")) for _ in range(2)
            ]
            wait_for(lambda: all(job.state == "failed" for job in jobs))
            clock.advance(5.0)
            # occupy the worker so the half-open trial stays queued
            blocker = manager.submit(spec(fingerprint, kind="dse", chaos="sleep:2"))
            trial = manager.submit(spec(fingerprint))
            assert manager.breakers["interactive"].state == "half-open"
            with pytest.raises(ServiceUnavailable):
                manager.submit(spec(fingerprint))  # the only trial slot is taken
            manager.cancel(trial.id)  # releases the slot
            retry = manager.submit(spec(fingerprint))
            wait_for(lambda: retry.state == "done")
            if blocker.state not in ("done", "failed", "cancelled"):
                manager.cancel(blocker.id)
        finally:
            manager.drain()


class TestBulkheadOnTheManager:
    def test_queue_cap_answers_429(self, fig1):
        manager, fingerprint = make_manager(
            fig1,
            workers=1,
            bulkhead=Bulkhead(1, queue_caps={"batch": 1}),
        )
        try:
            # wedge the single worker, then fill the one batch queue slot
            running = manager.submit(spec(fingerprint, kind="dse", chaos="sleep:5"))
            wait_for(lambda: running.state == "running")
            manager.submit(spec(fingerprint, kind="dse"))
            with pytest.raises(RateLimited) as caught:
                manager.submit(spec(fingerprint, kind="dse"))
            assert caught.value.status == 429
            # the interactive class is not capped
            interactive = manager.submit(spec(fingerprint))
            assert interactive.state == "queued"
            manager.cancel(running.id)
        finally:
            manager.drain()

    def test_batch_flood_does_not_starve_interactive(self, fig1):
        manager, fingerprint = make_manager(
            fig1,
            workers=2,
            bulkhead=Bulkhead(2, reserved={"interactive": 1}),
        )
        try:
            # flood: long batch jobs, more than the floating worker can take
            flood = [
                manager.submit(spec(fingerprint, kind="dse", chaos="sleep:4"))
                for _ in range(4)
            ]
            wait_for(lambda: any(job.state == "running" for job in flood))
            started = time.monotonic()
            point = manager.submit(spec(fingerprint))
            wait_for(lambda: point.state == "done", timeout=3.0)
            # served by the reserved worker long before any sleeper ends
            assert time.monotonic() - started < 3.0
            assert point.result["throughput"] == "1/7"
            for job in flood:
                if job.state not in ("done", "failed", "cancelled"):
                    manager.cancel(job.id)
        finally:
            manager.drain()


class TestIdempotency:
    def test_replay_returns_the_original_job(self, fig1):
        manager, fingerprint = make_manager(fig1)
        try:
            first = manager.submit(spec(fingerprint), idempotency_key="abc")
            again = manager.submit(spec(fingerprint), idempotency_key="abc")
            assert again is first
            other = manager.submit(spec(fingerprint), idempotency_key="xyz")
            assert other is not first
            assert manager.telemetry.counters.get("job_replayed", 0) == 1
        finally:
            manager.drain()

    def test_replay_survives_restart(self, fig1, tmp_path):
        registry = GraphRegistry(tmp_path)
        fingerprint, _ = registry.add(fig1)
        manager = JobManager(registry, tmp_path)
        job = manager.submit(spec(fingerprint), idempotency_key="abc")
        wait_for(lambda: job.state == "done")
        manager.drain()

        reborn = JobManager(GraphRegistry(tmp_path), tmp_path)
        try:
            replay = reborn.submit(spec(fingerprint), idempotency_key="abc")
            assert replay.id == job.id
        finally:
            reborn.drain()


class TestOverloadEndToEnd:
    """Acceptance: worker kills plus a batch flood, while interactive
    requests keep succeeding over HTTP."""

    def test_interactive_survives_worker_kills_and_batch_flood(self, fig1):
        breakers = {
            # batch trips under the kills even though the flood's sleeps
            # succeed (3 failures / 7 outcomes); interactive stays healthy
            cls: CircuitBreaker(
                cls, min_calls=3, failure_threshold=0.4, cooldown_s=30.0
            )
            for cls in JOB_CLASSES
        }
        with AnalysisServer(
            workers=2,
            bulkhead=Bulkhead(2, reserved={"interactive": 1}, queue_caps={"batch": 16}),
            breakers=breakers,
            allow_chaos=True,
        ) as server:
            client = ServiceClient(server.url)
            graph = graph_to_dict(fig1)
            fingerprint = client.submit_graph(graph)

            # batch flood: long jobs hogging the floating worker
            flood = [
                client.submit_job(
                    fingerprint, kind="dse", observe="c", params={"chaos": "sleep:1"}
                )
                for _ in range(4)
            ]
            # worker kills queued behind the flood: each chaos failure
            # hits the batch breaker the way a crashed worker would
            kills = [
                client.submit_job(
                    fingerprint, kind="dse", observe="c", params={"chaos": "fail"}
                )
                for _ in range(3)
            ]

            # interactive point queries keep succeeding throughout
            for _ in range(5):
                result = client.result(
                    client.submit_job(
                        fingerprint,
                        kind="throughput",
                        observe="c",
                        params={"capacities": {"alpha": 4, "beta": 2}},
                    )["id"],
                    timeout=10.0,
                )
                assert result["throughput"] == "1/7"

            for job in kills:
                assert client.wait(job["id"], timeout=30.0)["state"] == "failed"
            health = client.healthz()
            states = {b["name"]: b["state"] for b in health["breakers"]}
            assert states["batch"] == "open"  # the kills tripped it
            assert states["interactive"] == "closed"

            # an open batch breaker sheds batch load with Retry-After...
            with pytest.raises(ServiceUnavailable) as caught:
                client.submit_job(
                    fingerprint, kind="dse", observe="c", idempotency_key=""
                )
            assert caught.value.code == "breaker_open"
            # ...while interactive still flows
            probe = client.submit_job(
                fingerprint,
                kind="throughput",
                observe="c",
                params={"capacities": {"alpha": 4, "beta": 2}},
            )
            assert client.wait(probe["id"], timeout=10.0)["state"] == "done"

            for job in flood:
                state = client.job(job["id"])["state"]
                if state not in ("done", "failed", "cancelled"):
                    client.cancel(job["id"])

    def test_no_fault_mixed_traffic_succeeds_in_both_classes(self, fig1):
        """Batch DSE jobs and interactive point queries without faults:
        every job of both classes succeeds and no breaker opens."""
        breakers = {
            cls: CircuitBreaker(
                cls, window=16, min_calls=3, failure_threshold=0.4, cooldown_s=30.0
            )
            for cls in JOB_CLASSES
        }
        with AnalysisServer(
            workers=2,
            bulkhead=Bulkhead(2, reserved={"interactive": 1}),
            breakers=breakers,
        ) as server:
            client = ServiceClient(server.url)
            fingerprint = client.submit_graph(graph_to_dict(fig1))
            batch = [
                client.submit_job(fingerprint, kind="dse", observe="c") for _ in range(4)
            ]
            for _ in range(6):
                result = client.result(
                    client.submit_job(
                        fingerprint,
                        kind="throughput",
                        observe="c",
                        params={"capacities": {"alpha": 4, "beta": 2}},
                    )["id"],
                    timeout=10.0,
                )
                assert result["throughput"] == "1/7"
            fronts = []
            for job in batch:
                final = client.wait(job["id"], timeout=30.0)
                assert final["state"] == "done"
                fronts.append(final["result"]["pareto_front"])
            assert all(front == fronts[0] for front in fronts)
            states = {b["name"]: b["state"] for b in client.healthz()["breakers"]}
            assert states == {"interactive": "closed", "batch": "closed"}

    def test_http_idempotent_replay_is_200_with_the_original_id(self, fig1):
        with AnalysisServer(workers=1) as server:
            client = ServiceClient(server.url)
            graph = graph_to_dict(fig1)
            first = client.submit_job(
                graph, kind="dse", observe="c", idempotency_key="replay-me"
            )
            again = client.submit_job(
                graph, kind="dse", observe="c", idempotency_key="replay-me"
            )
            assert again["id"] == first["id"]

    def test_queue_full_is_still_503_with_queue_full_code(self, fig1):
        manager, fingerprint = make_manager(fig1, workers=1, queue_size=1)
        try:
            running = manager.submit(spec(fingerprint, kind="dse", chaos="sleep:5"))
            wait_for(lambda: running.state == "running")
            manager.submit(spec(fingerprint, kind="dse"))
            with pytest.raises(ServiceError) as caught:
                manager.submit(spec(fingerprint, kind="dse"))
            assert caught.value.status == 503
            assert caught.value.code == "queue_full"
            assert "queue is full" in str(caught.value)
            manager.cancel(running.id)
        finally:
            manager.drain()

    def test_chaos_requires_opt_in(self, fig1):
        registry = GraphRegistry()
        fingerprint, _ = registry.add(fig1)
        manager = JobManager(registry)  # allow_chaos defaults off
        try:
            job = manager.submit(spec(fingerprint, chaos="fail"))
            wait_for(lambda: job.state == "done")  # directive ignored
        finally:
            manager.drain()
