"""The versioned surface: /v1 routes, the typed error envelope, trace
ids end to end; unversioned paths answer 404."""

import json
import time

import pytest

from repro.io.jsonio import graph_to_dict
from repro.service.api import AnalysisApi, mint_trace_id
from repro.service.server import AnalysisServer


@pytest.fixture()
def server():
    with AnalysisServer(workers=1) as running:
        yield running


def body(response) -> dict:
    return json.loads(response.body)


def wait_for(predicate, timeout=20.0, step=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(step)
    raise AssertionError("condition not reached within timeout")


class TestVersionedRoutes:
    def test_v1_routes_mirror_legacy_routes(self, server, fig1):
        document = json.dumps(graph_to_dict(fig1)).encode("utf-8")
        created = server.api.handle("POST", "/v1/graphs", document)
        assert created.status == 201
        fingerprint = body(created)["fingerprint"]
        assert body(server.api.handle("GET", "/v1/graphs"))["graphs"] == [fingerprint]
        assert body(server.api.handle("GET", "/v1/healthz"))["status"] == "ok"
        assert server.api.handle("GET", "/v1/metrics").status == 200
        assert body(server.api.handle("GET", "/v1/jobs"))["jobs"] == []

    def test_route_label_keeps_the_version_prefix(self):
        assert AnalysisApi.route_label("get", "/v1/jobs/abc") == "GET /v1/jobs/<id>"
        assert AnalysisApi.route_label("GET", "/v1/traces/t1") == "GET /v1/traces/<id>"
        assert AnalysisApi.route_label("GET", "/jobs/abc") == "GET /jobs/<id>"

    def test_unknown_v1_route_is_404(self, server):
        assert server.api.handle("GET", "/v1/nope").status == 404

    @pytest.mark.parametrize(
        "method, path",
        [("GET", "/healthz"), ("GET", "/graphs"), ("GET", "/metrics"), ("POST", "/jobs")],
    )
    def test_unversioned_paths_are_404_with_the_envelope(self, server, method, path):
        response = server.api.handle(method, path, b"{}")
        assert response.status == 404
        error = body(response)["error"]
        assert error["code"] == "not_found"
        assert error["trace_id"] == response.headers["X-Trace-Id"]
        assert "Deprecation" not in response.headers


class TestTraceIds:
    def test_every_response_carries_a_trace_header(self, server):
        response = server.api.handle("GET", "/v1/healthz")
        assert response.headers["X-Trace-Id"]
        failed = server.api.handle("GET", "/v1/nope")
        assert failed.headers["X-Trace-Id"]

    def test_v1_json_payloads_echo_the_trace_id(self, server):
        response = server.api.handle("GET", "/v1/healthz")
        assert body(response)["trace_id"] == response.headers["X-Trace-Id"]

    def test_wellformed_client_trace_id_is_adopted(self, server):
        response = server.api.handle(
            "GET", "/v1/healthz", headers={"X-Trace-Id": "my-trace_01"}
        )
        assert response.headers["X-Trace-Id"] == "my-trace_01"

    def test_malformed_client_trace_id_is_replaced(self, server):
        for bad in ("", "with space", "x" * 65, "bad\nheader"):
            response = server.api.handle(
                "GET", "/v1/healthz", headers={"X-Trace-Id": bad}
            )
            assert response.headers["X-Trace-Id"] != bad

    def test_trace_is_recorded_and_queryable(self, server, fig1):
        trace_id = mint_trace_id()
        document = json.dumps(graph_to_dict(fig1)).encode("utf-8")
        posted = server.api.handle(
            "POST", "/v1/graphs", document, headers={"X-Trace-Id": trace_id}
        )
        assert posted.headers["X-Trace-Id"] == trace_id
        span = body(server.api.handle("GET", f"/v1/traces/{trace_id}"))
        assert span["name"] == "POST /v1/graphs"
        assert span["status"] == 201
        assert span["versioned"] is True
        assert span["elapsed_s"] >= 0
        listed = body(server.api.handle("GET", "/v1/traces"))["traces"]
        assert any(entry["trace_id"] == trace_id for entry in listed)

    def test_unknown_trace_is_404(self, server):
        response = server.api.handle("GET", "/v1/traces/deadbeef")
        assert response.status == 404

    def test_submitted_job_carries_the_request_trace_id(self, server, fig1):
        trace_id = mint_trace_id()
        payload = json.dumps({"graph": graph_to_dict(fig1), "kind": "dse"}).encode()
        response = server.api.handle(
            "POST", "/v1/jobs", payload, headers={"X-Trace-Id": trace_id}
        )
        assert response.status == 202
        job = body(response)
        assert job["trace_id"] == trace_id
        # the id is also in the job table and the server-side span log
        fetched = body(server.api.handle("GET", f"/v1/jobs/{job['id']}"))
        assert fetched["trace_id"] == trace_id
        assert server.manager.telemetry.traces.get(trace_id) is not None


    def test_finished_jobs_land_under_their_request_traces(self, server, fig1):
        document = json.dumps(graph_to_dict(fig1)).encode("utf-8")
        fingerprint = body(server.api.handle("POST", "/v1/graphs", document))["fingerprint"]
        payload = json.dumps(
            {
                "graph": fingerprint,
                "kind": "throughput",
                "observe": "c",
                "params": {"capacities": {"alpha": 4, "beta": 2}},
            }
        ).encode("utf-8")
        spans = []
        for trace_id in ("first-job", "second-job"):
            posted = server.api.handle(
                "POST", "/v1/jobs", payload, headers={"X-Trace-Id": trace_id}
            )
            job_id = body(posted)["id"]
            traces = server.manager.telemetry.traces
            wait_for(lambda: "job" in (traces.get(trace_id) or {}))
            span = body(server.api.handle("GET", f"/v1/traces/{trace_id}"))
            assert span["name"] == "POST /v1/jobs"  # the job does not rename it
            assert span["job"]["id"] == job_id
            assert span["job"]["state"] == "done"
            assert span["job"]["wait_s"] >= 0 and span["job"]["exec_s"] >= 0
            spans.append(span["job"])
        # The second job is answered from the memo the first one filled.
        assert (spans[0]["evaluations"], spans[0]["cache_hits"]) == (1, 0)
        assert (spans[1]["evaluations"], spans[1]["cache_hits"]) == (0, 1)

    def test_failed_job_lands_under_its_request_trace(self, server, fig1):
        payload = json.dumps(
            {"graph": graph_to_dict(fig1), "kind": "throughput", "observe": "c"}
        ).encode("utf-8")  # no capacities: the job fails
        server.api.handle("POST", "/v1/jobs", payload, headers={"X-Trace-Id": "bad-job"})
        traces = server.manager.telemetry.traces
        wait_for(lambda: "job" in (traces.get("bad-job") or {}))
        job = traces.get("bad-job")["job"]
        assert job["state"] == "failed"
        assert (job["evaluations"], job["cache_hits"]) == (0, 0)


class TestErrorEnvelope:
    def test_v1_errors_use_the_typed_envelope(self, server):
        response = server.api.handle("GET", "/v1/jobs/nope")
        assert response.status == 404
        error = body(response)["error"]
        assert error["code"] == "not_found"
        assert "unknown job" in error["message"]
        assert error["trace_id"] == response.headers["X-Trace-Id"]

    def test_bad_json_maps_to_bad_request_code(self, server):
        response = server.api.handle("POST", "/v1/graphs", b"{nope")
        assert response.status == 400
        assert body(response)["error"]["code"] == "bad_request"

    def test_malformed_graph_document_maps_to_bad_request(self, server):
        document = {"actors": [{"name": "a", "execution_time": "x"}], "channels": []}
        response = server.api.handle("POST", "/v1/graphs", json.dumps(document).encode("utf-8"))
        assert response.status == 400
        error = body(response)["error"]
        assert error["code"] == "bad_request"
        assert "execution_time" in error["message"]
        assert error["trace_id"] == response.headers["X-Trace-Id"]
        assert server.api.handle("GET", "/v1/healthz").status == 200

    def test_breaker_rejection_carries_retry_after(self, server, fig1):
        breaker = server.manager.breakers["batch"]
        for _ in range(4):
            breaker.record_failure()
        payload = json.dumps({"graph": graph_to_dict(fig1), "kind": "dse"}).encode()
        response = server.api.handle("POST", "/v1/jobs", payload)
        assert response.status == 503
        assert body(response)["error"]["code"] == "breaker_open"
        assert float(response.headers["Retry-After"]) > 0


class TestResilienceObservability:
    def test_healthz_reports_the_resilience_plane(self, server):
        health = body(server.api.handle("GET", "/v1/healthz"))
        assert health["queue_depth_by_class"] == {"interactive": 0, "batch": 0}
        assert {b["name"] for b in health["breakers"]} == {"interactive", "batch"}
        assert all(b["state"] == "closed" for b in health["breakers"])
        assert health["bulkhead"]["workers"] == 1

    def test_metrics_expose_breaker_and_class_gauges(self, server):
        text = server.api.handle("GET", "/v1/metrics").body.decode("utf-8")
        assert 'repro_queue_depth_class{class="interactive"} 0.0' in text
        assert 'repro_queue_depth_class{class="batch"} 0.0' in text
        assert 'repro_breaker_state{class="interactive"} 0.0' in text
        assert 'repro_breaker_rejected{class="batch"} 0.0' in text

    def test_breaker_state_gauge_tracks_transitions(self, server):
        server.manager.breakers["batch"].record_failure()
        for _ in range(3):
            server.manager.breakers["batch"].record_failure()
        text = server.api.handle("GET", "/v1/metrics").body.decode("utf-8")
        assert 'repro_breaker_state{class="batch"} 2.0' in text  # open
