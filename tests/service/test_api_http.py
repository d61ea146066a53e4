"""End-to-end HTTP tests: AnalysisServer + ServiceClient over a socket.

Each test gets a fresh ephemeral-port server; the acceptance-criterion
test checks a DSE job served over HTTP is *identical* to the
in-process result — including stats and witnesses.
"""

import json
import time

import pytest

from repro.buffers.explorer import DesignSpaceResult, explore_design_space
from repro.exceptions import ServiceError
from repro.io.jsonio import graph_to_dict
from repro.service.api import AnalysisApi
from repro.service.client import ServiceClient
from repro.service.server import AnalysisServer


@pytest.fixture()
def server():
    with AnalysisServer(workers=1) as running:
        yield running


@pytest.fixture()
def client(server):
    return ServiceClient(server.url)


class TestJobIdentity:
    def test_http_dse_front_identical_to_direct(self, client, fig1):
        job = client.submit_job(graph_to_dict(fig1), kind="dse", observe="c")
        finished = client.wait(job["id"])
        assert finished["state"] == "done"

        direct = explore_design_space(fig1, "c")
        served = DesignSpaceResult.from_dict(finished["result"])
        assert served.front == direct.front
        assert served.max_throughput == direct.max_throughput
        assert served.lower_bounds == direct.lower_bounds
        assert finished["result"]["stats"]["evaluations"] == direct.stats.evaluations == 9
        # bit-identical payloads once the direct result is serialised too
        assert finished["result"]["pareto_front"] == direct.to_dict()["pareto_front"]

    def test_throughput_and_minimal_kinds_over_http(self, client, fig1):
        graph = graph_to_dict(fig1)
        probe = client.wait(
            client.submit_job(
                graph,
                kind="throughput",
                observe="c",
                params={"capacities": {"alpha": 4, "beta": 2}},
            )["id"]
        )
        assert probe["state"] == "done"
        assert probe["result"]["throughput"] == "1/7"

        minimal = client.wait(
            client.submit_job(
                graph, kind="minimal-distribution", observe="c", params={"throughput": "1/4"}
            )["id"]
        )
        assert minimal["result"] == {
            "found": True,
            "size": 10,
            "throughput": "1/4",
            "distribution": minimal["result"]["distribution"],
        }


class TestGraphEndpoints:
    def test_post_graph_then_submit_by_fingerprint(self, server, client, fig1):
        document = json.dumps(graph_to_dict(fig1)).encode("utf-8")
        first = server.api.handle("POST", "/v1/graphs", document)
        assert first.status == 201 and not json.loads(first.body)["known"]
        second = server.api.handle("POST", "/v1/graphs", document)
        assert second.status == 200 and json.loads(second.body)["known"]

        fingerprint = client.submit_graph(graph_to_dict(fig1))
        assert fingerprint == json.loads(first.body)["fingerprint"]
        assert fingerprint in client.graphs()

        job = client.submit_job(fingerprint, kind="dse", observe="c")
        assert client.wait(job["id"])["state"] == "done"

    def test_observe_defaults_to_last_actor(self, client, fig1):
        job = client.submit_job(graph_to_dict(fig1), kind="dse")
        assert job["observe"] == "c"


class TestErrorPaths:
    def test_bad_json_body_is_400(self, server, fig1):
        response = server.api.handle("POST", "/v1/graphs", b"{not json")
        assert response.status == 400
        assert "not valid JSON" in json.loads(response.body)["error"]["message"]

    def test_unknown_graph_fingerprint_is_404(self, client):
        with pytest.raises(ServiceError) as caught:
            client.submit_job("0" * 64, kind="dse", observe="c")
        assert caught.value.status == 404

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as caught:
            client.job("doesnotexist")
        assert caught.value.status == 404

    def test_unknown_route_is_404(self, server):
        assert server.api.handle("GET", "/v1/nope").status == 404
        assert server.api.handle("PATCH", "/v1/jobs").status == 404

    def test_unknown_observe_actor_is_400(self, client, fig1):
        with pytest.raises(ServiceError) as caught:
            client.submit_job(graph_to_dict(fig1), kind="dse", observe="ghost")
        assert caught.value.status == 400
        assert "no actor" in str(caught.value)

    def test_delete_terminal_job_is_409(self, client, fig1):
        job = client.submit_job(graph_to_dict(fig1), kind="dse", observe="c")
        client.wait(job["id"])
        with pytest.raises(ServiceError) as caught:
            client.cancel(job["id"])
        assert caught.value.status == 409


class TestCancellationOverHttp:
    def test_delete_running_dse_yields_cancelled_with_partial(self, server, client, fig1):
        entered = []

        def hold_first_probe(job, event):
            if event.name == "probe_finish" and not entered:
                entered.append(job.id)
                # in-flight DELETE from the HTTP side
                client.cancel(job.id)

        server.manager.probe_callback = hold_first_probe
        job = client.submit_job(graph_to_dict(fig1), kind="dse", observe="c")
        finished = client.wait(job["id"])
        assert finished["state"] == "cancelled"
        partial = DesignSpaceResult.from_dict(finished["result"])
        assert not partial.complete
        assert partial.exhausted == "cancelled"


class TestObservability:
    def test_healthz_shape(self, client, fig1):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["api_version"] == 1
        assert health["uptime_s"] >= 0
        assert set(health["jobs"]) == {
            "queued", "running", "done", "partial", "failed", "cancelled",
        }

    def test_metrics_exposition(self, client, fig1):
        job = client.submit_job(graph_to_dict(fig1), kind="dse", observe="c")
        client.wait(job["id"])
        text = client.metrics()
        assert "# TYPE repro_events_total counter" in text
        assert 'repro_events_total{event="probe_start"}' in text
        assert 'repro_jobs{state="done"} 1.0' in text
        assert "repro_queue_depth 0.0" in text
        assert "repro_graphs_registered 1.0" in text
        assert 'repro_timer_seconds_count{timer="http POST /v1/jobs"}' in text
        assert 'repro_timer_seconds_count{timer="http GET /v1/jobs/<id>"}' in text
        # a scrape's own timer closes after rendering: visible next scrape
        assert 'repro_timer_seconds_count{timer="http GET /v1/metrics"}' in client.metrics()

    def test_probe_avoidance_gauges_default_to_zero(self, client):
        text = client.metrics()
        assert "repro_bounds_exact 0.0" in text
        assert "repro_bounds_cut 0.0" in text

    def test_bounds_job_counts_exact_answers_and_keeps_the_front(self, client, fig1):
        plain = client.wait(
            client.submit_job(
                graph_to_dict(fig1),
                kind="dse",
                observe="c",
                params={"strategy": "divide"},
            )["id"]
        )
        boosted = client.wait(
            client.submit_job(
                graph_to_dict(fig1),
                kind="dse",
                observe="c",
                params={"strategy": "divide", "bounds": True},
            )["id"]
        )
        assert boosted["state"] == plain["state"] == "done"
        assert boosted["result"]["pareto_front"] == plain["result"]["pareto_front"]
        # The second job resumes from the first's shared record bank:
        # the oracle answers everything without new simulations.
        assert boosted["result"]["stats"]["evaluations"] == 0
        text = client.metrics()
        for gauge in ("repro_bounds_exact", "repro_bounds_cut"):
            value = next(
                line.split()[1] for line in text.splitlines()
                if line.startswith(gauge + " ")
            )
            assert float(value) >= 0.0

    def test_unknown_backend_fails_the_job_with_a_clear_error(self, client, fig1):
        # "batch-numpy" and "tiered" name backends that no longer exist.
        for name in ("warp", "batch-numpy", "tiered"):
            job = client.submit_job(
                graph_to_dict(fig1),
                kind="dse",
                observe="c",
                params={"backend": name},
            )
            failed = client.wait(job["id"])
            assert failed["state"] == "failed"
            assert f"unknown probe backend {name!r}" in failed["error"]
            assert failed["error"].endswith("registered backends: cc, fastcore, reference")

    def test_backends_endpoint_lists_the_registry(self, client):
        from repro.engine.backends import backend_names

        rows = client.backends()
        assert [row["name"] for row in rows] == list(backend_names())
        by_name = {row["name"]: row for row in rows}
        assert by_name["reference"]["available"] is True
        assert by_name["reference"]["reason"] is None
        assert by_name["cc"]["capabilities"] == ["blocking", "compiled", "exact", "lanes"]
        # cc's availability is host-dependent, but the row is coherent:
        # available XOR a human-readable reason.
        cc = by_name["cc"]
        assert cc["available"] == (cc["reason"] is None)

    def test_cc_gauges_are_exposed(self, client):
        text = client.metrics()
        for gauge in (
            "repro_cc_compiles",
            "repro_cc_cache_hits",
            "repro_cc_compile_failures",
            "repro_cc_cache_corrupt",
            "repro_cc_cache_evictions",
        ):
            assert f"{gauge} " in text
        assert "repro_cc_promotions" not in text

    def test_metrics_content_type_is_prometheus(self, server):
        response = server.api.handle("GET", "/v1/metrics")
        assert response.content_type == "text/plain; version=0.0.4; charset=utf-8"
        assert response.body.decode("utf-8").endswith("\n")

    def test_route_label_collapses_ids(self):
        assert AnalysisApi.route_label("delete", "/v1/jobs/abc123") == "DELETE /v1/jobs/<id>"
        assert AnalysisApi.route_label("GET", "/v1/healthz") == "GET /v1/healthz"


class TestClientWait:
    def test_wait_times_out_with_504(self, server, client, fig1):
        gate_released = []

        def stall(job, event):
            if not gate_released:
                time.sleep(0.2)

        server.manager.probe_callback = stall
        job = client.submit_job(graph_to_dict(fig1), kind="dse", observe="c")
        with pytest.raises(ServiceError) as caught:
            client.wait(job["id"], timeout=0.05)
        assert caught.value.status == 504
        gate_released.append(True)
        assert client.wait(job["id"], timeout=30)["state"] == "done"
