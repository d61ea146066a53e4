"""Overload-control primitives for the analysis service.

Three small, independently testable pieces give :mod:`repro.service`
its heavy-traffic story (the classic resilience patterns: circuit
breaker, bulkhead, retry-with-backoff):

:class:`CircuitBreaker`
    A failure-rate window over recent job executions.  While *closed*
    everything flows; when the windowed failure rate crosses the
    threshold the breaker *opens* and admission fast-fails (HTTP 503)
    instead of queueing work onto a wedged worker plane.  After a
    cooldown it goes *half-open* and admits a bounded number of trial
    executions: the first success closes it, the first failure re-opens
    it.  All transitions are counted and (optionally) emitted on a
    :class:`~repro.runtime.telemetry.TelemetryHub`.

:class:`Bulkhead`
    Partitions a worker pool between job classes so one class cannot
    starve another: ``reserved`` workers serve *only* their class,
    the rest float.  Also carries optional per-class queue caps for
    admission control (HTTP 429 when a class floods its own queue).

:class:`RetryPolicy`
    The client-side backoff schedule: exponential growth, a cap, full
    jitter from a *seeded* RNG (deterministic in tests), and an overall
    retry budget so a retrying client still honours its deadline.

Job classes
-----------
Every job belongs to exactly one class of :data:`JOB_CLASSES`:
``interactive`` (small point queries — ``throughput`` and
``minimal-distribution`` kinds) or ``batch`` (long ``dse``
explorations).  Clients may override the default with the spec's
``job_class`` field.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Mapping

from repro.exceptions import ServiceError

#: The service's job classes, in bulkhead-partition order.
JOB_CLASSES = ("interactive", "batch")

#: Default class per job kind (``job_class`` on the spec overrides).
KIND_CLASSES = {
    "throughput": "interactive",
    "minimal-distribution": "interactive",
    "dse": "batch",
    "dse-sadf": "batch",
}

#: Breaker states, also exported as a numeric gauge on ``/v1/metrics``
#: (closed=0, half-open=1, open=2).
BREAKER_STATES = ("closed", "half-open", "open")


def classify(kind: str, job_class: str | None = None) -> str:
    """The job class for a job of *kind*, honouring an explicit override."""
    if job_class is not None:
        if job_class not in JOB_CLASSES:
            raise ServiceError(
                f"unknown job class {job_class!r}; expected one of {JOB_CLASSES}"
            )
        return job_class
    return KIND_CLASSES.get(kind, "batch")


class CircuitBreaker:
    """Closed / open / half-open breaker over a sliding outcome window.

    Parameters
    ----------
    name:
        Label used in telemetry events and error messages (the job
        class, for the service's per-class breakers).
    window:
        Number of most-recent execution outcomes considered.
    min_calls:
        Minimum outcomes in the window before the failure rate can trip
        the breaker (avoids opening on the first failure of a quiet
        class).
    failure_threshold:
        Windowed failure rate (``0..1``) at or above which the breaker
        opens.
    cooldown_s:
        Seconds the breaker stays open before probing half-open.
    half_open_max:
        Maximum trial executions admitted while half-open.
    clock / telemetry:
        Injectable monotonic clock (tests freeze it) and optional
        :class:`~repro.runtime.telemetry.TelemetryHub` receiving
        ``breaker_open`` / ``breaker_half_open`` / ``breaker_close`` /
        ``breaker_rejected`` events.
    """

    def __init__(
        self,
        name: str = "default",
        *,
        window: int = 32,
        min_calls: int = 4,
        failure_threshold: float = 0.5,
        cooldown_s: float = 5.0,
        half_open_max: int = 2,
        clock=time.monotonic,
        telemetry=None,
    ):
        if window < 1:
            raise ServiceError("breaker window must be >= 1")
        if not 0.0 < failure_threshold <= 1.0:
            raise ServiceError("breaker failure_threshold must be in (0, 1]")
        if cooldown_s <= 0:
            raise ServiceError("breaker cooldown_s must be positive")
        if half_open_max < 1:
            raise ServiceError("breaker half_open_max must be >= 1")
        self.name = name
        self.min_calls = max(1, int(min_calls))
        self.failure_threshold = float(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self.half_open_max = int(half_open_max)
        self._clock = clock
        self._telemetry = telemetry
        self._lock = threading.Lock()
        self._outcomes: deque[bool] = deque(maxlen=int(window))
        self._state = "closed"
        self._opened_at: float | None = None
        self._trials = 0  # half-open admissions not yet resolved
        self.counters: dict[str, int] = {
            "rejected": 0, "opened": 0, "half_opened": 0, "closed": 0,
        }

    # -- observation --------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, advancing open → half-open when cooled down."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    @property
    def failure_rate(self) -> float:
        with self._lock:
            if not self._outcomes:
                return 0.0
            return 1.0 - sum(self._outcomes) / len(self._outcomes)

    def snapshot(self) -> dict:
        """JSON-friendly state for ``/v1/healthz`` and debugging."""
        return {
            "name": self.name,
            "state": self.state,
            "failure_rate": self.failure_rate,
            "counters": dict(self.counters),
        }

    # -- admission ----------------------------------------------------------
    def allow(self) -> bool:
        """May one more execution be admitted right now?

        Half-open admissions are counted as trials; callers must report
        the outcome (:meth:`record_success` / :meth:`record_failure`)
        or give the slot back (:meth:`release`) if the work never ran.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == "open":
                self.counters["rejected"] += 1
                self._emit("breaker_rejected")
                return False
            if self._state == "half-open":
                if self._trials >= self.half_open_max:
                    self.counters["rejected"] += 1
                    self._emit("breaker_rejected")
                    return False
                self._trials += 1
            return True

    @property
    def retry_after_s(self) -> float:
        """Seconds until an open breaker will probe half-open (0 when
        not open) — the ``Retry-After`` hint for rejected requests."""
        with self._lock:
            if self._state != "open" or self._opened_at is None:
                return 0.0
            return max(0.0, self.cooldown_s - (self._clock() - self._opened_at))

    # -- outcomes -----------------------------------------------------------
    def record_success(self) -> None:
        with self._lock:
            self._outcomes.append(True)
            if self._state == "half-open":
                self._release_trial()
                self._close()

    def record_failure(self) -> None:
        with self._lock:
            self._outcomes.append(False)
            if self._state == "half-open":
                self._release_trial()
                self._open()
            elif self._state == "closed":
                if (
                    len(self._outcomes) >= self.min_calls
                    and 1.0 - sum(self._outcomes) / len(self._outcomes)
                    >= self.failure_threshold
                ):
                    self._open()

    def release(self) -> None:
        """Give back an admission whose work never executed (e.g. a
        queued job cancelled before a worker picked it up)."""
        with self._lock:
            self._release_trial()

    # -- transitions (caller holds the lock) --------------------------------
    def _maybe_half_open(self) -> None:
        if (
            self._state == "open"
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._state = "half-open"
            self._trials = 0
            self.counters["half_opened"] += 1
            self._emit("breaker_half_open")

    def _open(self) -> None:
        self._state = "open"
        self._opened_at = self._clock()
        self._trials = 0
        self.counters["opened"] += 1
        self._emit("breaker_open")

    def _close(self) -> None:
        self._state = "closed"
        self._opened_at = None
        self._trials = 0
        self._outcomes.clear()
        self.counters["closed"] += 1
        self._emit("breaker_close")

    def _release_trial(self) -> None:
        if self._trials > 0:
            self._trials -= 1

    def _emit(self, event: str) -> None:
        if self._telemetry is not None:
            self._telemetry.emit(event, breaker=self.name)


class Bulkhead:
    """Worker-slot partition plan between job classes.

    ``reserved[cls]`` workers serve *only* class ``cls``; workers beyond
    the reservations float over every class.  A reservation for a class
    guarantees it forward progress no matter how deep the other class's
    backlog is — the bulkhead property the overload tests assert.

    ``queue_caps[cls]`` optionally bounds how many jobs of a class may
    *wait* (admission control, HTTP 429); ``None`` leaves a class
    uncapped, subject only to the manager's global ``queue_size``.
    """

    def __init__(
        self,
        workers: int,
        reserved: Mapping[str, int] | None = None,
        queue_caps: Mapping[str, int | None] | None = None,
    ):
        if workers < 1:
            raise ServiceError("bulkhead needs at least one worker")
        reserved = dict(reserved or {})
        for cls, count in reserved.items():
            if cls not in JOB_CLASSES:
                raise ServiceError(
                    f"unknown bulkhead class {cls!r}; expected one of {JOB_CLASSES}"
                )
            if count < 0:
                raise ServiceError(f"bulkhead reservation for {cls!r} must be >= 0")
        if sum(reserved.values()) > workers:
            raise ServiceError(
                f"bulkhead reservations ({sum(reserved.values())}) exceed the"
                f" worker pool ({workers})"
            )
        self.workers = int(workers)
        self.reserved = {cls: int(reserved.get(cls, 0)) for cls in JOB_CLASSES}
        self.queue_caps: dict[str, int | None] = {
            cls: None for cls in JOB_CLASSES
        }
        for cls, cap in (queue_caps or {}).items():
            if cls not in JOB_CLASSES:
                raise ServiceError(
                    f"unknown bulkhead class {cls!r}; expected one of {JOB_CLASSES}"
                )
            self.queue_caps[cls] = None if cap is None else int(cap)

    def allowed_classes(self, worker_index: int) -> tuple[str, ...]:
        """The classes worker *worker_index* may execute.

        The first ``reserved["interactive"]`` workers are pinned to
        interactive jobs, the next ``reserved["batch"]`` to batch jobs,
        and the rest float (interactive first on ties, so point queries
        win the race for a freed floater).
        """
        offset = 0
        for cls in JOB_CLASSES:
            count = self.reserved[cls]
            if offset <= worker_index < offset + count:
                return (cls,)
            offset += count
        return JOB_CLASSES

    def admits(self, job_class: str, queued: int) -> bool:
        """Is another *job_class* submission admissible with *queued*
        jobs of that class already waiting?"""
        cap = self.queue_caps.get(job_class)
        return cap is None or queued < cap

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "reserved": dict(self.reserved),
            "queue_caps": dict(self.queue_caps),
        }


class RetryPolicy:
    """Client-side retry schedule: exponential backoff with full jitter.

    ``delay(attempt, rng)`` is ``uniform(0, min(cap_s, base_s *
    multiplier**attempt))`` — the classic full-jitter curve that spreads
    a thundering herd.  With ``jitter=False`` the delay is the
    deterministic upper envelope (useful for exact assertions).

    ``budget_s`` bounds the *total* sleep across all retries of one
    logical request, so retries respect an overall deadline;
    ``attempts`` is the maximum number of tries (the first call
    included).
    """

    def __init__(
        self,
        attempts: int = 4,
        *,
        base_s: float = 0.1,
        cap_s: float = 2.0,
        multiplier: float = 2.0,
        jitter: bool = True,
        budget_s: float | None = None,
    ):
        if attempts < 1:
            raise ServiceError("retry attempts must be >= 1")
        if base_s < 0 or cap_s < 0:
            raise ServiceError("retry delays must be >= 0")
        if multiplier < 1.0:
            raise ServiceError("retry multiplier must be >= 1")
        self.attempts = int(attempts)
        self.base_s = float(base_s)
        self.cap_s = float(cap_s)
        self.multiplier = float(multiplier)
        self.jitter = bool(jitter)
        self.budget_s = budget_s

    def delay(self, attempt: int, rng) -> float:
        """Sleep before retry number *attempt* (0-based), drawn from *rng*."""
        envelope = min(self.cap_s, self.base_s * self.multiplier**attempt)
        if not self.jitter:
            return envelope
        return rng.uniform(0.0, envelope)

    #: A policy that never retries (drop-in for the old single-shot client).
    @classmethod
    def none(cls) -> "RetryPolicy":
        return cls(attempts=1)
