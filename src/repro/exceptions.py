"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError` so applications can catch library failures with a
single ``except`` clause while still distinguishing the common cases.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """A structural problem with an SDF graph definition.

    Raised for duplicate names, dangling channel endpoints, non-positive
    rates, negative execution times and similar construction mistakes.
    """


class ValidationError(GraphError):
    """A graph failed one of the structural validation checks."""


class InconsistentGraphError(ReproError):
    """The SDF graph has no non-trivial repetition vector.

    Inconsistent graphs cannot execute indefinitely within bounded
    memory (Lee, 1991); buffer sizing is undefined for them and every
    analysis entry point rejects them with this error.
    """


class DeadlockError(ReproError):
    """An execution deadlocked where progress was required.

    Carries the :attr:`time` at which the deadlock was detected, when
    known.
    """

    def __init__(self, message: str, time: int | None = None):
        super().__init__(message)
        self.time = time


class EngineError(ReproError):
    """The execution engine hit a guard limit.

    Raised for diverging zero-execution-time firing cascades within a
    single time instant and for runs exceeding a user-supplied step
    limit.
    """


class KernelLimitError(EngineError):
    """A compiled C probe kernel hit one of its fixed-width resource
    limits: memory, an ``int64`` completion time or cycle sum, or the
    ``int32`` index of its visited set.

    The probe itself is well defined; only the kernel cannot finish it
    exactly.  The Python kernels have no such limits, so where
    ``backend="auto"`` selected ``cc`` the evaluation service reruns the
    batch on ``fastcore``; explicit ``cc`` raises this error.
    """


class CapacityError(ReproError):
    """A storage distribution is malformed or violates channel bounds."""


class ExplorationError(ReproError):
    """The design-space exploration was given unusable parameters."""


class ConfigError(ExplorationError):
    """An :class:`~repro.runtime.config.ExplorationConfig` is unusable.

    Raised at *construction* time — an unknown probe backend name, a
    backend this host cannot run, a negative batch width.  Failing up front is deliberate: a run must
    never silently degrade to a different backend mid-flight, because
    the whole point of the backend seam is that results are
    bit-identical and the operator knows which kernel produced them.
    """


class BudgetExhausted(ReproError):
    """A run-controller budget tripped during an exploration.

    Raised cooperatively by the evaluation layer when a wall-clock
    deadline passes, a probe budget is spent or a cancel token fires.
    :func:`repro.buffers.explorer.explore_design_space` catches it and
    returns a partial result flagged ``complete=False``; it only
    escapes to callers driving an
    :class:`~repro.buffers.evalcache.EvaluationService` directly.
    Carries the :attr:`reason` (``"deadline"``, ``"probes"`` or
    ``"cancelled"``).
    """

    def __init__(self, message: str, reason: str = "budget"):
        super().__init__(message)
        self.reason = reason


class CheckpointError(ReproError):
    """A checkpoint / resume token is malformed or does not match.

    Raised when loading a checkpoint written for a different graph,
    channel set or format version, or when the payload is not valid
    checkpoint JSON.
    """


class ParseError(ReproError):
    """An input file (XML / JSON graph description) could not be parsed."""


class ServiceError(ReproError):
    """A request to the analysis service failed.

    Raised by the HTTP layer of :mod:`repro.service` for malformed
    requests, unknown graphs or jobs, and a full job queue; the
    blocking client re-raises the server's rendering of it.  Carries
    the HTTP :attr:`status` the failure maps to, a machine-readable
    :attr:`code` (the ``error.code`` field of the v1 error envelope)
    and, when known, the :attr:`trace_id` of the failing request.
    """

    #: Default ``error.code`` per HTTP status, used when no explicit
    #: code is given (and by the client when a legacy server omits it).
    STATUS_CODES = {
        400: "bad_request",
        404: "not_found",
        409: "conflict",
        429: "rate_limited",
        500: "internal",
        503: "unavailable",
        504: "timeout",
    }

    def __init__(
        self,
        message: str,
        status: int = 400,
        *,
        code: str | None = None,
        trace_id: str | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.code = code if code is not None else self.STATUS_CODES.get(status, "error")
        self.trace_id = trace_id


class ServiceUnavailable(ServiceError):
    """The service is shedding load (HTTP 503).

    Raised for a full job queue, an open circuit breaker or a draining
    server.  :attr:`retry_after_s` carries the server's backoff hint
    (the ``Retry-After`` header) when one was given.
    """

    def __init__(
        self,
        message: str,
        *,
        code: str | None = None,
        trace_id: str | None = None,
        retry_after_s: float | None = None,
    ):
        super().__init__(message, status=503, code=code or "unavailable", trace_id=trace_id)
        self.retry_after_s = retry_after_s


class RateLimited(ServiceError):
    """A per-class admission cap rejected the request (HTTP 429)."""

    def __init__(
        self,
        message: str,
        *,
        trace_id: str | None = None,
        retry_after_s: float | None = None,
    ):
        super().__init__(message, status=429, code="rate_limited", trace_id=trace_id)
        self.retry_after_s = retry_after_s


class JobFailed(ServiceError):
    """A job settled ``failed`` when the caller required success.

    Raised client-side by :meth:`~repro.service.client.ServiceClient
    .result`; :attr:`job` holds the full job rendering (including the
    server's ``error`` string).
    """

    def __init__(self, message: str, job: dict | None = None):
        super().__init__(message, status=500, code="job_failed")
        self.job = job


class JobPartial(ServiceError):
    """A job settled ``partial`` when the caller required completion.

    The budget (deadline / probe cap) tripped; :attr:`job` carries the
    exact partial result and the exhaustion reason, so callers can
    resubmit with a larger budget or consume the partial front.
    """

    def __init__(self, message: str, job: dict | None = None):
        super().__init__(message, status=206, code="job_partial")
        self.job = job


class AnalysisError(ReproError):
    """A graph analysis could not be completed.

    For example: requesting the maximum cycle mean of an acyclic
    homogeneous graph, or an HSDF expansion that exceeds a safety limit.
    """
