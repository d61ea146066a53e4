"""Restart/resume: interrupted jobs complete without re-paying probes.

The acceptance-criterion scenarios: a job parked ``partial`` by its
probe budget is re-enqueued by a restarted server and finishes with
the replayed probes answered from the checkpoint (cache hits, zero
cost); a graceful drain returns a running job to ``queued`` so the
next server run continues it.  fig1's full exploration costs exactly
9 evaluations, which makes the accounting assertions exact.
"""

import threading
import time

from repro.buffers.explorer import DesignSpaceResult, explore_design_space
from repro.service.api import AnalysisApi
from repro.service.jobs import JobManager, JobSpec
from repro.service.registry import GraphRegistry
from repro.service.server import AnalysisServer


def wait_for(predicate, timeout=30.0, step=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(step)
    raise AssertionError("condition not reached within timeout")


class TestBudgetPartialThenRestart:
    def test_partial_job_resumes_and_completes_for_free(self, tmp_path, fig1):
        registry = GraphRegistry(tmp_path)
        fingerprint, _ = registry.add(fig1)
        manager = JobManager(registry, tmp_path)
        job = manager.submit(
            JobSpec(kind="dse", fingerprint=fingerprint, observe="c", max_probes=5)
        )
        wait_for(lambda: job.state == "partial")
        assert job.exhausted == "probes"
        assert job.result["stats"]["evaluations"] == 5
        assert (tmp_path / "checkpoints" / f"{job.id}.ckpt.json").exists()
        manager.drain()

        reborn = JobManager(GraphRegistry(tmp_path), tmp_path)
        try:
            recovered = reborn.get(job.id)
            wait_for(lambda: recovered.state == "done")
            stats = recovered.result["stats"]
            # cumulative over both legs: exactly the direct cost, and the
            # 5 leg-1 probes came back as checkpoint cache hits
            direct = explore_design_space(fig1, "c")
            assert stats["evaluations"] == direct.stats.evaluations == 9
            assert stats["cache_hits"] >= 5
            assert recovered.legs == 2
            served = DesignSpaceResult.from_dict(recovered.result)
            assert served.front == direct.front
        finally:
            reborn.drain()


    def test_metrics_after_restart_count_only_the_new_process(self, tmp_path, fig1):
        registry = GraphRegistry(tmp_path)
        fingerprint, _ = registry.add(fig1)
        manager = JobManager(registry, tmp_path)
        job = manager.submit(
            JobSpec(kind="dse", fingerprint=fingerprint, observe="c", max_probes=5)
        )
        wait_for(lambda: job.state == "partial")
        assert manager.telemetry.counters["probe_start"] == 5
        manager.drain()

        reborn_registry = GraphRegistry(tmp_path)
        reborn = JobManager(reborn_registry, tmp_path)
        try:
            recovered = reborn.get(job.id)
            wait_for(lambda: recovered.state == "done")
            # The job reports both legs; the new process ran the last 4.
            assert recovered.result["stats"]["evaluations"] == 9
            metrics = AnalysisApi(reborn_registry, reborn).handle("GET", "/v1/metrics")
            assert 'repro_events_total{event="probe_start"} 4\n' in metrics.body.decode()
        finally:
            reborn.drain()


class TestParamsOfRemovedKnobs:
    def test_speculate_and_batch_params_are_ignored_after_restart(self, tmp_path, fig1):
        """Job records may carry the ``speculate`` / ``batch`` params of
        earlier releases; like any unknown param key they are ignored."""
        registry = GraphRegistry(tmp_path)
        fingerprint, _ = registry.add(fig1)
        manager = JobManager(registry, tmp_path)
        params = {"speculate": True, "batch": 128}
        job = manager.submit(
            JobSpec(kind="dse", fingerprint=fingerprint, observe="c", params=params, max_probes=5)
        )
        wait_for(lambda: job.state == "partial")
        manager.drain()

        reborn = JobManager(GraphRegistry(tmp_path), tmp_path)
        try:
            recovered = reborn.get(job.id)
            assert dict(recovered.spec.params) == params
            wait_for(lambda: recovered.state == "done")
            direct = explore_design_space(fig1, "c")
            assert recovered.result["stats"]["evaluations"] == direct.stats.evaluations
            assert DesignSpaceResult.from_dict(recovered.result).front == direct.front
        finally:
            reborn.drain()


class TestGracefulDrain:
    def test_drain_requeues_running_job_without_cancelling_it(self, tmp_path, fig1):
        registry = GraphRegistry(tmp_path)
        fingerprint, _ = registry.add(fig1)
        manager = JobManager(registry, tmp_path)
        entered = threading.Event()
        release = threading.Event()

        def hold(job, event):
            if event.name == "probe_finish":
                entered.set()
                release.wait(timeout=30.0)

        manager.probe_callback = hold
        job = manager.submit(JobSpec(kind="dse", fingerprint=fingerprint, observe="c"))
        entered.wait(timeout=30.0)

        drainer = threading.Thread(target=manager.drain)
        drainer.start()
        wait_for(lambda: job.cancel.cancelled)  # drain fired the token...
        release.set()  # ...now let the worker reach the probe boundary
        drainer.join(timeout=30.0)

        assert job.state == "queued"  # interrupted, NOT cancelled
        assert not job.cancel_requested

        reborn = JobManager(GraphRegistry(tmp_path), tmp_path)
        try:
            recovered = reborn.get(job.id)
            wait_for(lambda: recovered.state == "done")
            assert recovered.result["stats"]["evaluations"] == 9
            assert recovered.result["stats"]["cache_hits"] >= 1
        finally:
            reborn.drain()


class TestServerLevelRestart:
    def test_stopped_server_resumes_partial_job_on_same_data_dir(self, tmp_path, fig1):
        from repro.io.jsonio import graph_to_dict
        from repro.service.client import ServiceClient

        with AnalysisServer(tmp_path) as server:
            client = ServiceClient(server.url)
            job = client.submit_job(
                graph_to_dict(fig1), kind="dse", observe="c", max_probes=5
            )
            parked = client.wait(job["id"])
            assert parked["state"] == "partial"
            assert parked["result"]["stats"]["evaluations"] == 5

        with AnalysisServer(tmp_path) as server:
            client = ServiceClient(server.url)
            finished = client.wait(job["id"])
            assert finished["state"] == "done"
            assert finished["result"]["stats"]["evaluations"] == 9
            assert finished["result"]["stats"]["cache_hits"] >= 5
            assert finished["legs"] == 2
            direct = explore_design_space(fig1, "c")
            assert (
                DesignSpaceResult.from_dict(finished["result"]).front == direct.front
            )

    def test_stop_is_idempotent(self, tmp_path):
        server = AnalysisServer(tmp_path).start()
        server.stop()
        server.stop()  # second stop must be a no-op
