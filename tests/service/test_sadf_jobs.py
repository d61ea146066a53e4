"""The service plane runs all-scenario (SADF) explorations end to end.

Covers the ``dse-sadf`` job kind: registry round-trips for sadfjson
documents, the pinned h263-frames front served through the job
manager, kind/graph mismatch guards, per-scenario memo banks warming
identical re-submissions, budget-partial jobs converging over several
legs after restarts, and the /v1 HTTP surface.
"""

import json
import time

import pytest

from repro.exceptions import ServiceError
from repro.gallery import h263_frames, modem_modes
from repro.io.sadfjson import sadf_fingerprint, sadf_to_dict
from repro.sadf.graph import SADFGraph
from repro.service.jobs import JOB_KINDS, JobManager, JobSpec
from repro.service.registry import GraphRegistry
from repro.service.server import AnalysisServer

PINNED_FRONT = [(9, "1/13"), (10, "1/11")]


def wait_for(predicate, timeout=30.0, step=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(step)
    raise AssertionError("condition not reached within timeout")


def front_of(job):
    return [
        (point["size"], point["throughput"])
        for point in job.result["pareto_front"]
    ]


class TestRegistry:
    def test_instance_and_document_share_a_fingerprint(self):
        registry = GraphRegistry()
        from_instance, known = registry.add(h263_frames())
        assert not known
        from_document, known = registry.add(sadf_to_dict(h263_frames()))
        assert known
        assert from_instance == from_document == sadf_fingerprint(h263_frames())
        assert isinstance(registry.get(from_instance), SADFGraph)

    def test_sadf_documents_survive_a_restart(self, tmp_path):
        registry = GraphRegistry(tmp_path)
        fingerprint, _ = registry.add(modem_modes())
        reloaded = GraphRegistry(tmp_path).get(fingerprint)
        assert isinstance(reloaded, SADFGraph)
        assert reloaded.scenario_names == ["acquisition", "tracking"]
        assert sadf_fingerprint(reloaded) == fingerprint


class TestJobKind:
    def test_dse_sadf_is_a_registered_kind(self):
        assert "dse-sadf" in JOB_KINDS

    def test_job_serves_the_pinned_front(self):
        registry = GraphRegistry()
        fingerprint, _ = registry.add(h263_frames())
        manager = JobManager(registry)
        try:
            job = manager.submit(
                JobSpec(kind="dse-sadf", fingerprint=fingerprint, observe="mc")
            )
            wait_for(lambda: job.state == "done")
            assert front_of(job) == PINNED_FRONT
            assert job.result["max_throughput"] == "1/11"
            assert job.result["stats"]["evaluations"] == 12
            assert job.result["stats"]["strategy"] == "sadf-dependency"
        finally:
            manager.drain()

    def test_kind_graph_mismatch_is_rejected_both_ways(self, fig1):
        registry = GraphRegistry()
        sdf_fp, _ = registry.add(fig1)
        sadf_fp, _ = registry.add(h263_frames())
        manager = JobManager(registry)
        try:
            with pytest.raises(ServiceError, match="does not fit"):
                manager.submit(
                    JobSpec(kind="dse-sadf", fingerprint=sdf_fp, observe="c")
                )
            with pytest.raises(ServiceError, match="does not fit"):
                manager.submit(
                    JobSpec(kind="dse", fingerprint=sadf_fp, observe="mc")
                )
        finally:
            manager.drain()

    def test_identical_resubmission_is_answered_from_the_banks(self):
        registry = GraphRegistry()
        fingerprint, _ = registry.add(h263_frames())
        manager = JobManager(registry)
        try:
            first = manager.submit(
                JobSpec(kind="dse-sadf", fingerprint=fingerprint, observe="mc")
            )
            wait_for(lambda: first.state == "done")
            second = manager.submit(
                JobSpec(kind="dse-sadf", fingerprint=fingerprint, observe="mc")
            )
            wait_for(lambda: second.state == "done")
            assert front_of(second) == PINNED_FRONT
            assert second.result["stats"]["evaluations"] == 0
            assert second.result["stats"]["cache_hits"] >= 12
        finally:
            manager.drain()


class TestBudgetLegs:
    def test_partial_job_converges_across_restarts(self, tmp_path):
        registry = GraphRegistry(tmp_path)
        fingerprint, _ = registry.add(h263_frames())
        manager = JobManager(registry, tmp_path)
        job = manager.submit(
            JobSpec(
                kind="dse-sadf", fingerprint=fingerprint, observe="mc",
                max_probes=4,
            )
        )
        wait_for(lambda: job.state == "partial")
        assert job.exhausted == "probes"
        assert (tmp_path / "checkpoints" / f"{job.id}.ckpt.json").exists()
        manager.drain()

        job_id, legs = job.id, 1
        while True:
            reborn = JobManager(GraphRegistry(tmp_path), tmp_path)
            try:
                recovered = reborn.get(job_id)
                wait_for(lambda: recovered.state in ("done", "partial"))
                legs += 1
                if recovered.state == "done":
                    break
            finally:
                reborn.drain()
            assert legs < 10, "job failed to converge"
        assert front_of(recovered) == PINNED_FRONT
        assert recovered.result["complete"] is True


class TestHttpApi:
    def test_v1_end_to_end(self):
        with AnalysisServer(workers=1) as server:
            document = json.dumps(sadf_to_dict(h263_frames())).encode("utf-8")
            created = server.api.handle("POST", "/v1/graphs", document)
            assert created.status == 201
            fingerprint = json.loads(created.body)["fingerprint"]

            submitted = server.api.handle(
                "POST", "/v1/jobs",
                json.dumps(
                    {"kind": "dse-sadf", "graph": fingerprint, "observe": "mc"}
                ).encode("utf-8"),
            )
            assert submitted.status == 202
            job_id = json.loads(submitted.body)["id"]

            def state():
                response = server.api.handle("GET", f"/v1/jobs/{job_id}")
                return json.loads(response.body)

            wait_for(lambda: state()["state"] == "done")
            result = state()["result"]
            assert [
                (point["size"], point["throughput"])
                for point in result["pareto_front"]
            ] == PINNED_FRONT

    def test_inline_document_defaults_observe_to_the_last_actor(self):
        with AnalysisServer(workers=1) as server:
            submitted = server.api.handle(
                "POST", "/v1/jobs",
                json.dumps(
                    {"kind": "dse-sadf", "graph": sadf_to_dict(h263_frames())}
                ).encode("utf-8"),
            )
            assert submitted.status == 202
            payload = json.loads(submitted.body)
            assert payload["observe"] == "mc"

    def test_fsm_without_an_infinite_run_is_400(self):
        document = sadf_to_dict(h263_frames())
        document["fsm"]["transitions"] = [{"source": "i", "target": "p", "delay": 1}]
        with AnalysisServer(workers=1) as server:
            response = server.api.handle(
                "POST", "/v1/graphs", json.dumps(document).encode("utf-8")
            )
            assert response.status == 400
            error = json.loads(response.body)["error"]
            assert error["code"] == "bad_request"
            assert "no long-run throughput" in error["message"]
            assert error["trace_id"]
            assert len(server.registry) == 0
