"""Blocking HTTP client for the analysis service (stdlib ``urllib``).

Used by the ``repro submit`` / ``repro jobs`` CLI verbs and the test
suite; application code can use it as a minimal SDK::

    client = ServiceClient("http://127.0.0.1:8000")
    fingerprint = client.submit_graph(graph)
    job = client.submit_job(fingerprint, kind="dse", observe="c")
    job = client.wait(job["id"])
    result = DesignSpaceResult.from_dict(job["result"])

The client speaks the versioned ``/v1`` surface and decodes its typed
error envelope into the exception hierarchy of :mod:`repro.exceptions`:

* :class:`~repro.exceptions.ServiceUnavailable` — HTTP 503 (full
  queue, open circuit breaker, draining server);
* :class:`~repro.exceptions.RateLimited` — HTTP 429 (per-class cap);
* :class:`~repro.exceptions.ServiceError` — every other failure,
  carrying ``status``, ``code`` and ``trace_id``;
* :class:`~repro.exceptions.JobFailed` / :class:`~repro.exceptions
  .JobPartial` — raised by :meth:`ServiceClient.result` when a job
  settles short of ``done``.

Transient failures (connection refused/reset, 429/502/503/504) are
retried with exponential backoff and full jitter under a
:class:`~repro.service.resilience.RetryPolicy`: idempotent GET/DELETE
requests always, POSTs only when they carry an idempotency key —
``submit_job`` mints one automatically, so a retried submission replays
the original job instead of double-submitting.  Transport failures that
outlive the retry budget surface as the underlying :class:`URLError`.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
import uuid
from collections.abc import Mapping

from repro.exceptions import (
    JobFailed,
    JobPartial,
    RateLimited,
    ServiceError,
    ServiceUnavailable,
)
from repro.graph.graph import SDFGraph
from repro.io.jsonio import graph_to_dict
from repro.service.resilience import RetryPolicy

#: Job states after which polling stops.  ``partial`` is included: the
#: budget is spent, so without a restart the state will not change.
SETTLED_STATES = frozenset({"done", "partial", "failed", "cancelled"})

#: HTTP statuses worth retrying: overload shedding and gateway hiccups.
RETRYABLE_STATUSES = frozenset({429, 502, 503, 504})


#: Prefix of every route the client requests.
_API_PREFIX = "/v1"


def _error_from_response(status: int, raw: bytes, fallback: str) -> ServiceError:
    """Decode an error body (the v1 envelope) into the matching
    exception class."""
    message, code, trace_id = fallback, None, None
    try:
        payload = json.loads(raw.decode("utf-8"))
        error = payload.get("error", payload)
        if isinstance(error, Mapping):
            message = str(error.get("message", fallback))
            code = error.get("code")
            trace_id = error.get("trace_id")
    except (json.JSONDecodeError, UnicodeDecodeError):
        message = raw.decode("utf-8", "replace") or fallback
    if status == 503:
        return ServiceUnavailable(message, code=code, trace_id=trace_id)
    if status == 429:
        return RateLimited(message, trace_id=trace_id)
    return ServiceError(message, status=status, code=code, trace_id=trace_id)


class ServiceClient:
    """Blocking wrapper over the service's versioned JSON API.

    Parameters
    ----------
    base_url / timeout:
        Where the server listens and the per-request socket timeout.
    retry:
        The :class:`~repro.service.resilience.RetryPolicy` for
        transient failures; ``RetryPolicy.none()`` restores the old
        single-shot behaviour.
    retry_seed:
        Seed for the jitter RNG — tests pin it for deterministic
        backoff schedules.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        *,
        retry: RetryPolicy | None = None,
        retry_seed: int | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self._rng = random.Random(retry_seed)
        #: Trace id of the most recent response (the ``X-Trace-Id``
        #: header) — thread it into logs or ``GET /v1/traces/<id>``.
        self.last_trace_id: str | None = None

    # -- transport ----------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Mapping | None = None,
        *,
        headers: Mapping[str, str] | None = None,
        idempotent: bool | None = None,
    ):
        body = None
        send_headers = {"Accept": "application/json"}
        if headers:
            send_headers.update(headers)
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            send_headers["Content-Type"] = "application/json"
        if idempotent is None:
            idempotent = method in ("GET", "DELETE") or "Idempotency-Key" in send_headers
        url = f"{self.base_url}{_API_PREFIX}{path}"
        slept = 0.0
        for attempt in range(self.retry.attempts):
            request = urllib.request.Request(
                url, data=body, headers=send_headers, method=method
            )
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    self.last_trace_id = response.headers.get("X-Trace-Id")
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as error:
                raw = error.read()
                self.last_trace_id = error.headers.get("X-Trace-Id")
                failure = _error_from_response(error.code, raw, str(error))
                if not (idempotent and error.code in RETRYABLE_STATUSES):
                    raise failure from None
            except urllib.error.URLError as error:
                if not idempotent:
                    raise
                failure = error
            if attempt + 1 >= self.retry.attempts:
                raise failure from None
            delay = self.retry.delay(attempt, self._rng)
            if self.retry.budget_s is not None and slept + delay > self.retry.budget_s:
                raise failure from None
            slept += delay
            time.sleep(delay)
        raise AssertionError("unreachable: retry loop exhausted without raising")

    # -- graphs -------------------------------------------------------------
    def submit_graph(self, graph: SDFGraph | Mapping) -> str:
        """Register *graph*; returns its content fingerprint.

        Registration is content-addressed and therefore naturally
        idempotent — retries are always safe.
        """
        document = graph_to_dict(graph) if isinstance(graph, SDFGraph) else dict(graph)
        return self._request("POST", "/graphs", document, idempotent=True)["fingerprint"]

    def graphs(self) -> list[str]:
        return self._request("GET", "/graphs")["graphs"]

    # -- jobs ---------------------------------------------------------------
    def submit_job(
        self,
        graph: str | SDFGraph | Mapping,
        *,
        kind: str = "dse",
        observe: str | None = None,
        params: Mapping | None = None,
        priority: int = 0,
        deadline_s: float | None = None,
        max_probes: int | None = None,
        job_class: str | None = None,
        idempotency_key: str | None = None,
    ) -> dict:
        """Submit a job; *graph* is a fingerprint, graph or document.

        An ``idempotency_key`` is minted automatically (making retried
        POSTs replay-safe); pass your own to deduplicate submissions
        across client restarts, or ``""`` to opt out entirely.
        """
        if isinstance(graph, SDFGraph):
            graph = graph_to_dict(graph)
        if idempotency_key is None:
            idempotency_key = uuid.uuid4().hex
        payload: dict = {"graph": graph, "kind": kind}
        if observe is not None:
            payload["observe"] = observe
        if params:
            payload["params"] = dict(params)
        if priority:
            payload["priority"] = priority
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        if max_probes is not None:
            payload["max_probes"] = max_probes
        if job_class is not None:
            payload["job_class"] = job_class
        if idempotency_key:
            payload["idempotency_key"] = idempotency_key
        return self._request(
            "POST", "/jobs", payload, idempotent=bool(idempotency_key)
        )

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 60.0, poll_s: float = 0.05) -> dict:
        """Poll until the job settles (done / partial / failed /
        cancelled); raises :class:`ServiceError` on timeout."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] in SETTLED_STATES:
                return job
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {job['state']} after {timeout}s", status=504
                )
            time.sleep(poll_s)

    def result(self, job_id: str, timeout: float = 60.0, poll_s: float = 0.05) -> dict:
        """Wait for *job_id* and return its ``result`` payload.

        Raises :class:`~repro.exceptions.JobFailed` when the job
        settles ``failed``, :class:`~repro.exceptions.JobPartial` when
        a budget tripped, and :class:`ServiceError` on cancellation —
        the typed alternative to inspecting ``job["state"]`` by hand.
        """
        job = self.wait(job_id, timeout=timeout, poll_s=poll_s)
        state = job["state"]
        if state == "done":
            return job["result"] or {}
        if state == "failed":
            raise JobFailed(
                f"job {job_id} failed: {job.get('error') or 'unknown error'}", job=job
            )
        if state == "partial":
            raise JobPartial(
                f"job {job_id} returned a partial result"
                f" (budget exhausted: {job.get('exhausted')})",
                job=job,
            )
        raise ServiceError(f"job {job_id} was cancelled", status=409, code="cancelled")

    # -- observability ------------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def backends(self) -> list[dict]:
        """The server's probe-backend registry (``GET /v1/backends``):
        per backend its name, capabilities and availability on the
        *server's* host — e.g. whether ``cc`` found a C compiler."""
        return self._request("GET", "/backends")["backends"]

    def trace(self, trace_id: str) -> dict:
        """The server-side span recorded for *trace_id*
        (``GET /v1/traces/<id>``)."""
        return self._request("GET", f"/traces/{trace_id}")

    def metrics(self) -> str:
        """The raw Prometheus text exposition of ``GET /v1/metrics``."""
        request = urllib.request.Request(f"{self.base_url}{_API_PREFIX}/metrics")
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            return response.read().decode("utf-8")
