"""Client-side resilience: retry/backoff against a scripted stub server.

The stub answers each request from a per-(method, path) script of
status codes, so tests can stage 503-then-200 sequences and count the
attempts that actually hit the wire."""

import json
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.exceptions import (
    JobFailed,
    JobPartial,
    RateLimited,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.client import ServiceClient
from repro.service.resilience import RetryPolicy


class StubServer:
    """Minimal scripted HTTP server: per-route status sequences."""

    def __init__(self):
        self.scripts: dict[tuple[str, str], list[int]] = {}
        self.payloads: dict[tuple[str, str], dict] = {}
        self.requests: list[tuple[str, str]] = []
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, format, *args):  # noqa: A002
                pass

            def _serve(self, method: str) -> None:
                length = int(self.headers.get("Content-Length") or 0)
                if length:
                    self.rfile.read(length)
                key = (method, self.path)
                stub.requests.append(key)
                script = stub.scripts.get(key)
                status = script.pop(0) if script else 200
                payload = stub.payloads.get(key, {"ok": True})
                if status >= 400:
                    payload = {
                        "error": {
                            "code": "unavailable" if status == 503 else "error",
                            "message": f"scripted {status}",
                            "trace_id": "stub-trace",
                        }
                    }
                body = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.send_header("X-Trace-Id", "stub-trace")
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                self._serve("GET")

            def do_POST(self):
                self._serve("POST")

            def do_DELETE(self):
                self._serve("DELETE")

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def count(self, method: str, path: str) -> int:
        return self.requests.count((method, path))

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()


@pytest.fixture()
def stub():
    server = StubServer()
    yield server
    server.close()


def fast_client(stub, **kwargs) -> ServiceClient:
    kwargs.setdefault("retry", RetryPolicy(attempts=3, base_s=0.001, cap_s=0.002))
    kwargs.setdefault("retry_seed", 0)
    return ServiceClient(stub.url, **kwargs)


class TestRetrySchedule:
    def test_get_retries_through_503_to_success(self, stub):
        stub.scripts[("GET", "/v1/graphs")] = [503, 503, 200]
        stub.payloads[("GET", "/v1/graphs")] = {"graphs": []}
        assert fast_client(stub).graphs() == []
        assert stub.count("GET", "/v1/graphs") == 3

    def test_get_gives_up_after_the_attempt_budget(self, stub):
        stub.scripts[("GET", "/v1/graphs")] = [503, 503, 503, 503]
        with pytest.raises(ServiceUnavailable) as caught:
            fast_client(stub).graphs()
        assert stub.count("GET", "/v1/graphs") == 3  # attempts, not scripts
        assert caught.value.trace_id == "stub-trace"

    def test_non_retryable_status_fails_immediately(self, stub):
        stub.scripts[("GET", "/v1/jobs/x")] = [404]
        with pytest.raises(ServiceError) as caught:
            fast_client(stub).job("x")
        assert caught.value.status == 404
        assert stub.count("GET", "/v1/jobs/x") == 1

    def test_429_maps_to_rate_limited_and_retries(self, stub):
        stub.scripts[("GET", "/v1/graphs")] = [429, 429, 429]
        with pytest.raises(RateLimited):
            fast_client(stub).graphs()
        assert stub.count("GET", "/v1/graphs") == 3

    def test_connection_refused_retries_then_surfaces(self):
        # a dead port: URLError on every attempt
        client = ServiceClient(
            "http://127.0.0.1:9",
            timeout=0.2,
            retry=RetryPolicy(attempts=2, base_s=0.001, cap_s=0.002),
            retry_seed=0,
        )
        with pytest.raises(urllib.error.URLError):
            client.graphs()

    def test_retry_budget_caps_total_sleep(self, stub, monkeypatch):
        stub.scripts[("GET", "/v1/graphs")] = [503] * 10
        slept = []
        monkeypatch.setattr("repro.service.client.time.sleep", lambda s: slept.append(s))
        client = ServiceClient(
            stub.url,
            retry=RetryPolicy(attempts=10, base_s=1.0, cap_s=8.0, jitter=False, budget_s=3.0),
        )
        with pytest.raises(ServiceUnavailable):
            client.graphs()
        assert sum(slept) <= 3.0  # gave up once the next sleep would overrun


class TestPostIdempotency:
    def test_post_without_key_is_not_retried(self, stub):
        stub.scripts[("POST", "/v1/jobs")] = [503, 200]
        with pytest.raises(ServiceUnavailable):
            fast_client(stub).submit_job("f" * 64, kind="dse", idempotency_key="")
        assert stub.count("POST", "/v1/jobs") == 1

    def test_post_with_minted_key_is_retried(self, stub):
        stub.scripts[("POST", "/v1/jobs")] = [503, 200]
        stub.payloads[("POST", "/v1/jobs")] = {"id": "j1", "state": "queued"}
        job = fast_client(stub).submit_job("f" * 64, kind="dse")  # key auto-minted
        assert job["id"] == "j1"
        assert stub.count("POST", "/v1/jobs") == 2

    def test_graph_registration_is_always_retried(self, stub, fig1):
        from repro.io.jsonio import graph_to_dict

        stub.scripts[("POST", "/v1/graphs")] = [503, 200]
        stub.payloads[("POST", "/v1/graphs")] = {"fingerprint": "f" * 64, "known": False}
        assert fast_client(stub).submit_graph(graph_to_dict(fig1)) == "f" * 64
        assert stub.count("POST", "/v1/graphs") == 2


class TestDeterministicJitter:
    def test_seeded_clients_sleep_identical_schedules(self, stub, monkeypatch):
        policy = RetryPolicy(attempts=4, base_s=0.5, cap_s=4.0)
        schedules = []
        for _ in range(2):
            stub.scripts[("GET", "/v1/graphs")] = [503, 503, 503, 503]
            slept: list[float] = []
            monkeypatch.setattr(
                "repro.service.client.time.sleep", lambda s, slept=slept: slept.append(s)
            )
            client = ServiceClient(stub.url, retry=policy, retry_seed=1234)
            with pytest.raises(ServiceUnavailable):
                client.graphs()
            schedules.append(slept)
        assert schedules[0] == schedules[1]
        assert len(schedules[0]) == 3  # one sleep between each of 4 attempts
        import random

        rng = random.Random(1234)
        expected = [policy.delay(attempt, rng) for attempt in range(3)]
        assert schedules[0] == expected


class TestResultHelper:
    def test_result_raises_job_failed_with_the_job_attached(self, stub):
        stub.payloads[("GET", "/v1/jobs/j1")] = {
            "id": "j1", "state": "failed", "error": "boom",
        }
        with pytest.raises(JobFailed) as caught:
            fast_client(stub).result("j1", timeout=1.0)
        assert "boom" in str(caught.value)
        assert caught.value.job["id"] == "j1"

    def test_result_raises_job_partial_on_budget_exhaustion(self, stub):
        stub.payloads[("GET", "/v1/jobs/j1")] = {
            "id": "j1", "state": "partial", "exhausted": "max_probes",
        }
        with pytest.raises(JobPartial) as caught:
            fast_client(stub).result("j1", timeout=1.0)
        assert caught.value.status == 206
        assert "max_probes" in str(caught.value)

    def test_result_returns_the_payload_when_done(self, stub):
        stub.payloads[("GET", "/v1/jobs/j1")] = {
            "id": "j1", "state": "done", "result": {"throughput": "1/7"},
        }
        assert fast_client(stub).result("j1", timeout=1.0) == {"throughput": "1/7"}
