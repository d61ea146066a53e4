"""HTTP/JSON API of the analysis service (transport-independent).

The routing table lives here, decoupled from the socket layer
(:mod:`repro.service.server`) so every endpoint is unit-testable
without binding a port.  All endpoints speak JSON except
``GET /v1/metrics``, which serves the Prometheus text exposition format.

Versioning
----------
The surface lives under ``/v1/...``; any other path answers 404.
Errors use the typed envelope ``{"error": {"code", "message",
"trace_id"}}`` and JSON object responses carry a top-level
``"trace_id"``.

Every response carries an ``X-Trace-Id`` header.  The trace id is
minted per request (or adopted from a well-formed client
``X-Trace-Id`` header), threaded through the job table and the
telemetry span log, and queryable back via ``GET /v1/traces/<id>``.

Endpoints
---------
``POST /v1/graphs``
    Body: a :mod:`repro.io.jsonio` graph document or a
    :mod:`repro.io.sadfjson` scenario (SADF) document (recognised by
    its ``"model": "sadf"`` marker).  Registers the graph
    content-addressed; returns ``{"fingerprint", "known"}``.
``POST /v1/jobs``
    Body: ``{"graph": <fingerprint or inline graph document>,
    "kind": "throughput" | "dse" | "minimal-distribution" |
    "dse-sadf" (scenario-aware DSE on an SADF graph), "observe",
    "params", "priority", "deadline_s", "max_probes", "job_class",
    "idempotency_key"}``.  Inline graphs are registered on the fly.
    Returns 202 with the job rendering — or 200 with the *original*
    job when the idempotency key replays an earlier submission (an
    ``Idempotency-Key`` header is honoured too).  Overload answers:
    503 (circuit open / queue full, with ``Retry-After``) and 429
    (per-class queue cap).
``GET /v1/jobs`` / ``GET /v1/jobs/<id>``
    The job table / one job, including ``result`` once available.
``DELETE /v1/jobs/<id>``
    Cancels the job (HTTP 409 if already terminal); an in-flight DSE
    ends ``cancelled`` with its exact partial result.
``GET /v1/backends``
    The probe-backend registry as seen by *this* host.
``GET /v1/traces`` / ``GET /v1/traces/<trace_id>``
    The recent request-span ring / one span — the server-side half of
    the ``trace_id`` contract.
``GET /v1/healthz``
    Liveness: uptime, job counts, queue depth per class, breaker and
    bulkhead state.
``GET /v1/metrics``
    Prometheus text format: telemetry counters/timers plus queue-depth
    (global and per class), jobs-by-state and breaker-state gauges.
"""

from __future__ import annotations

import json
import re
import time
import uuid
from collections.abc import Mapping

from repro.exceptions import ReproError, ServiceError
from repro.runtime.telemetry import TraceLog, to_prometheus
from repro.service.jobs import JobManager, JobSpec
from repro.service.registry import GraphRegistry
from repro.service.resilience import BREAKER_STATES, JOB_CLASSES

API_VERSION = 1

#: Client-supplied trace ids must look like trace ids; anything else is
#: replaced by a freshly minted one (no header-content echoing).
_TRACE_ID = re.compile(r"^[0-9a-zA-Z_-]{1,64}$")


def mint_trace_id() -> str:
    return uuid.uuid4().hex[:16]


class ApiResponse:
    """Status, content type, headers and body of one handled request."""

    __slots__ = ("status", "content_type", "body", "headers", "payload")

    def __init__(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        headers: dict[str, str] | None = None,
        payload: object = None,
    ):
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = dict(headers or {})
        #: The pre-serialisation payload of JSON responses, kept so the
        #: dispatcher can inject the trace id without re-parsing.
        self.payload = payload

    @classmethod
    def json(cls, payload, status: int = 200, headers: dict[str, str] | None = None) -> "ApiResponse":
        return cls(
            status,
            (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
            headers=headers,
            payload=payload,
        )

    @classmethod
    def text(cls, text: str, status: int = 200) -> "ApiResponse":
        return cls(status, text.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8")


class AnalysisApi:
    """Routes requests onto a registry + job manager pair."""

    def __init__(self, registry: GraphRegistry, manager: JobManager):
        self.registry = registry
        self.manager = manager
        if manager.telemetry.traces is None:
            manager.telemetry.traces = TraceLog()
        self.traces: TraceLog = manager.telemetry.traces

    # -- entry point --------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Mapping[str, str] | None = None,
    ) -> ApiResponse:
        """Dispatch one request; every failure maps to a JSON error."""
        lowered = {key.lower(): value for key, value in (headers or {}).items()}
        supplied = lowered.get("x-trace-id", "")
        trace_id = supplied if _TRACE_ID.match(supplied) else mint_trace_id()
        clean = path.rstrip("/") or "/"
        versioned = clean == "/v1" or clean.startswith("/v1/")
        route = self.route_label(method, path)
        hub = self.manager.telemetry
        started = time.monotonic()
        try:
            with hub.timed(f"http {route}"):
                if not versioned:
                    raise ServiceError(f"no route for {method.upper()} {path}", status=404)
                response = self._dispatch(
                    method, clean[len("/v1"):] or "/", body, lowered, trace_id
                )
        except ServiceError as error:
            response = self._error_response(error, error.status, trace_id)
        except ReproError as error:
            response = self._error_response(error, 400, trace_id)
        hub.emit("http_request", route=route, status=response.status, trace_id=trace_id)
        self._decorate(response, trace_id)
        self.traces.record(
            trace_id,
            route,
            status=response.status,
            elapsed_s=time.monotonic() - started,
            versioned=versioned,
        )
        return response

    def _error_response(self, error: Exception, status: int, trace_id: str) -> ApiResponse:
        headers: dict[str, str] = {}
        retry_after = getattr(error, "retry_after_s", None)
        if retry_after:
            headers["Retry-After"] = f"{max(0.0, float(retry_after)):.3f}"
        code = getattr(error, "code", None) or ServiceError.STATUS_CODES.get(status, "error")
        payload = {"error": {"code": code, "message": str(error), "trace_id": trace_id}}
        return ApiResponse.json(payload, status=status, headers=headers)

    def _decorate(self, response: ApiResponse, trace_id: str) -> None:
        """Stamp the trace id: header always, body on JSON objects."""
        response.headers.setdefault("X-Trace-Id", trace_id)
        if (
            isinstance(response.payload, dict)
            and response.content_type.startswith("application/json")
            and "trace_id" not in response.payload
        ):
            payload = dict(response.payload)
            payload["trace_id"] = trace_id
            response.payload = payload
            response.body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")

    @staticmethod
    def route_label(method: str, path: str) -> str:
        """Collapse ids out of the path so request timers aggregate per
        endpoint (``DELETE /v1/jobs/<id>``), not per job."""
        parts = [part for part in path.split("/") if part]
        prefix: list[str] = []
        if parts and parts[0] == "v1":
            prefix = [parts[0]]
            parts = parts[1:]
        if len(parts) >= 2 and parts[0] in ("jobs", "graphs", "traces"):
            parts = [parts[0], "<id>"]
        return f"{method.upper()} /{'/'.join(prefix + parts)}"

    def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Mapping[str, str],
        trace_id: str,
    ) -> ApiResponse:
        method = method.upper()
        parts = [part for part in path.split("/") if part]
        if method == "GET" and path == "/healthz":
            return self._healthz()
        if method == "GET" and path == "/metrics":
            return self._metrics()
        if method == "GET" and path == "/backends":
            return self._backends()
        if method == "GET" and path == "/traces":
            return ApiResponse.json({"traces": self.traces.spans()})
        if method == "GET" and len(parts) == 2 and parts[0] == "traces":
            span = self.traces.get(parts[1])
            if span is None:
                raise ServiceError(f"unknown trace {parts[1]!r}", status=404)
            return ApiResponse.json(span)
        if method == "POST" and path == "/graphs":
            return self._post_graph(self._json_body(body))
        if method == "GET" and path == "/graphs":
            return ApiResponse.json({"graphs": self.registry.fingerprints()})
        if method == "POST" and path == "/jobs":
            return self._post_job(self._json_body(body), headers, trace_id)
        if method == "GET" and path == "/jobs":
            return ApiResponse.json({"jobs": [job.to_dict() for job in self.manager.jobs()]})
        if len(parts) == 2 and parts[0] == "jobs":
            if method == "GET":
                return ApiResponse.json(self.manager.get(parts[1]).to_dict())
            if method == "DELETE":
                return ApiResponse.json(self.manager.cancel(parts[1]).to_dict())
        raise ServiceError(f"no route for {method} {path}", status=404)

    # -- endpoint bodies ----------------------------------------------------
    @staticmethod
    def _json_body(body: bytes) -> Mapping:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ServiceError(f"request body is not valid JSON: {error}") from None
        if not isinstance(payload, Mapping):
            raise ServiceError("request body must be a JSON object")
        return payload

    def _post_graph(self, payload: Mapping) -> ApiResponse:
        fingerprint, known = self.registry.add(payload)
        return ApiResponse.json(
            {"fingerprint": fingerprint, "known": known},
            status=200 if known else 201,
        )

    def _post_job(
        self, payload: Mapping, headers: Mapping[str, str], trace_id: str
    ) -> ApiResponse:
        graph_ref = payload.get("graph")
        if isinstance(graph_ref, Mapping):
            fingerprint, _known = self.registry.add(graph_ref)
        elif isinstance(graph_ref, str):
            fingerprint = graph_ref
        else:
            raise ServiceError(
                'jobs need "graph": a fingerprint string or an inline graph object'
            )
        graph = self.registry.get(fingerprint)
        observe = payload.get("observe")
        if observe is None:
            observe = graph.actor_names[-1]
        elif observe not in graph.actors:
            raise ServiceError(f"graph has no actor {observe!r}")
        job_class = payload.get("job_class")
        spec = JobSpec(
            kind=str(payload.get("kind", "dse")),
            fingerprint=fingerprint,
            observe=str(observe),
            params=dict(payload.get("params", {})),
            priority=int(payload.get("priority", 0)),
            deadline_s=payload.get("deadline_s"),
            max_probes=payload.get("max_probes"),
            job_class=str(job_class) if job_class is not None else None,
        )
        idempotency_key = payload.get("idempotency_key") or headers.get(
            "idempotency-key"
        )
        job = self.manager.submit(
            spec,
            idempotency_key=str(idempotency_key) if idempotency_key else None,
            trace_id=trace_id,
        )
        replayed = job.trace_id is not None and job.trace_id != trace_id
        return ApiResponse.json(job.to_dict(), status=200 if replayed else 202)

    def _healthz(self) -> ApiResponse:
        return ApiResponse.json(
            {
                "status": "ok",
                "api_version": API_VERSION,
                "uptime_s": self.manager.telemetry.elapsed_s,
                "graphs": len(self.registry),
                "queue_depth": self.manager.queue_depth,
                "queue_depth_by_class": {
                    cls: self.manager.queue_depth_for(cls) for cls in JOB_CLASSES
                },
                "jobs": self.manager.states_count(),
                "breakers": self.manager.breaker_snapshots(),
                "bulkhead": self.manager.bulkhead.to_dict(),
            }
        )

    def _backends(self) -> ApiResponse:
        from repro.engine.backends import backend_descriptions

        return ApiResponse.json({"backends": backend_descriptions()})

    def _metrics(self) -> ApiResponse:
        gauges = [("queue_depth", {}, float(self.manager.queue_depth))]
        for cls in JOB_CLASSES:
            gauges.append(
                ("queue_depth_class", {"class": cls}, float(self.manager.queue_depth_for(cls)))
            )
        for state, count in sorted(self.manager.states_count().items()):
            gauges.append(("jobs", {"state": state}, float(count)))
        gauges.append(("graphs_registered", {}, float(len(self.registry))))
        # Resilience plane: breaker state (closed=0 / half-open=1 /
        # open=2) and its admission-rejection counter, per job class.
        for snapshot in self.manager.breaker_snapshots():
            labels = {"class": snapshot["name"]}
            gauges.append(
                ("breaker_state", labels, float(BREAKER_STATES.index(snapshot["state"])))
            )
            gauges.append(
                ("breaker_rejected", labels, float(snapshot["counters"]["rejected"]))
            )
        # Probe-avoidance counters, always present (0.0 before any job
        # enables the oracle) so dashboards can rate() them.
        counters = self.manager.telemetry.counters
        gauges.append(("bounds_exact", {}, float(counters.get("bounds_exact", 0))))
        gauges.append(("bounds_cut", {}, float(counters.get("bounds_cut", 0))))
        # Compiled-C probe plane: compile/cache activity is process-wide
        # (kernels are shared across jobs), so the gauges read the ccore
        # hub rather than the per-manager one.
        from repro.engine import ccore

        cc_counters = ccore.telemetry.counters
        for counter in (
            "cc_compiles",
            "cc_cache_hits",
            "cc_compile_failures",
            "cc_cache_corrupt",
            "cc_cache_evictions",
        ):
            gauges.append((counter, {}, float(cc_counters.get(counter, 0))))
        return ApiResponse.text(
            to_prometheus(self.manager.telemetry, gauges=gauges)
        )
