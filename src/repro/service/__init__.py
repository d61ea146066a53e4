"""repro.service — the analysis library as a resident, multi-client server.

Turns one-shot explorations into *dimensioning as a service*:

* :mod:`repro.service.registry` — content-addressed graph store;
  identical graphs share one entry and one memo bank;
* :mod:`repro.service.jobs` — bounded priority queue, worker pool,
  JSONL-durable job table, resume-on-restart for interrupted DSE jobs;
* :mod:`repro.service.resilience` — the overload plane: per-class
  :class:`CircuitBreaker`, :class:`Bulkhead` worker partitioning and
  the client-side :class:`RetryPolicy`;
* :mod:`repro.service.server` / :mod:`repro.service.api` — stdlib
  HTTP/JSON endpoints (all under ``/v1``), per-request trace ids, a
  Prometheus ``/v1/metrics`` exposition;
* :mod:`repro.service.client` — blocking client SDK with
  retry/backoff and idempotent submission replay;
* :mod:`repro.service.cli` — the ``repro serve|submit|jobs|report|diff``
  verbs.

See ``docs/SERVICE.md`` for the operator's guide and ``docs/API.md``
for the wire contract.
"""

from repro.exceptions import (
    JobFailed,
    JobPartial,
    RateLimited,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.client import ServiceClient
from repro.service.jobs import JOB_KINDS, JOB_STATES, Job, JobManager, JobSpec
from repro.service.registry import GraphRegistry, MemoBank
from repro.service.resilience import (
    JOB_CLASSES,
    Bulkhead,
    CircuitBreaker,
    RetryPolicy,
    classify,
)
from repro.service.server import AnalysisServer

__all__ = [
    "AnalysisServer",
    "Bulkhead",
    "CircuitBreaker",
    "GraphRegistry",
    "JOB_CLASSES",
    "JOB_KINDS",
    "JOB_STATES",
    "Job",
    "JobFailed",
    "JobManager",
    "JobPartial",
    "JobSpec",
    "MemoBank",
    "RateLimited",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "classify",
]
