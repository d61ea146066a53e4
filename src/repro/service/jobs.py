"""Job manager: bounded priority queue, worker threads, durable store.

One :class:`JobManager` owns every analysis the server runs.  Clients
submit a :class:`JobSpec` (what to analyse); the manager queues it,
executes it on a worker thread through a per-job
:class:`~repro.buffers.evalcache.EvaluationService` carrying the job's
budget and cancel token, and keeps the full job table observable over
HTTP.

**States.**  ``queued → running →`` one of

* ``done`` — the analysis completed; ``result`` holds its payload
  (for DSE jobs: exactly ``DesignSpaceResult.to_dict()``);
* ``partial`` — a per-job budget (deadline / max probes) tripped;
  ``result`` holds the exact partial front and a checkpoint file holds
  the paid-for evaluations.  Partial jobs are *resumable*: a restarted
  server re-enqueues them and the next leg replays the checkpoint for
  free (deterministic-replay guarantee of :mod:`repro.runtime
  .checkpoint`);
* ``cancelled`` — a client issued ``DELETE /jobs/<id>``; an in-flight
  DSE stops at the next probe boundary and keeps its exact partial
  result;
* ``failed`` — the analysis raised; ``error`` holds the message.

A graceful shutdown (SIGTERM) cancels running jobs *without* marking
them cancelled: they checkpoint and return to ``queued``, so the next
server start continues them where the probes stopped.

**Durability.**  Every state transition appends one JSON line to
``<data_dir>/jobs.jsonl`` (last line per id wins).  Replaying the file
at startup rebuilds the job table; non-terminal jobs are re-enqueued.

**Memo sharing.**  A job's evaluation service is built on the graph's
live :class:`~repro.service.registry.MemoBank` for the observed actor
(one per scenario for ``dse-sadf`` jobs): it reads the bank's records
and adds its own under the bank's lock, which it never holds across a
probe, so jobs on one graph interleave and nothing is copied per job.
Identical graphs submitted by different clients therefore share every
evaluation ever paid for, and the graph's maximal throughput once
computed.

**Traces.**  When a job ends ``done``, ``partial``, ``failed`` or
``cancelled``, its id, state, queue wait, execution time, evaluations
and cache hits are recorded under ``"job"`` in the trace-log span of
the request that created it (``GET /v1/traces/<trace_id>``).
"""

from __future__ import annotations

import heapq
import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from collections.abc import Mapping

from repro.buffers.distribution import StorageDistribution
from repro.buffers.evalcache import EvaluationService
from repro.buffers.explorer import (
    ExplorationStats,
    explore_design_space,
    minimal_distribution_for_throughput,
)
from repro.exceptions import (
    BudgetExhausted,
    RateLimited,
    ReproError,
    ServiceError,
    ServiceUnavailable,
)
from repro.runtime.budget import Budget, CancelToken
from repro.runtime.config import ExplorationConfig
from repro.runtime.telemetry import RunStats, TelemetryEvent, TelemetryHub
from collections.abc import Callable
from repro.sadf.explorer import explore_design_space as explore_sadf_design_space
from repro.sadf.graph import SADFGraph
from repro.service.registry import GraphRegistry
from repro.service.resilience import JOB_CLASSES, Bulkhead, CircuitBreaker, classify

JOB_KINDS = ("throughput", "dse", "minimal-distribution", "dse-sadf")
JOB_STATES = ("queued", "running", "done", "partial", "failed", "cancelled")
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


@dataclass(frozen=True)
class JobSpec:
    """What one job analyses — immutable, client-provided.

    ``params`` carries the kind-specific inputs: ``capacities`` for
    ``throughput`` jobs, ``throughput`` (a ``"p/q"`` string) for
    ``minimal-distribution`` jobs, and optional ``strategy`` /
    ``max_size`` for ``dse`` jobs.  ``dse-sadf`` jobs run the
    scenario-aware exploration (:mod:`repro.sadf`) against a registered
    SADF graph and take the same optional ``max_size``.  ``priority`` orders the queue —
    lower numbers run first, ties in submission order.  ``job_class``
    optionally overrides the bulkhead class derived from ``kind``
    (``"interactive"`` for point queries, ``"batch"`` for DSE).
    """

    kind: str
    fingerprint: str
    observe: str
    params: Mapping[str, object] = field(default_factory=dict)
    priority: int = 0
    deadline_s: float | None = None
    max_probes: int | None = None
    job_class: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ServiceError(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}"
            )
        classify(self.kind, self.job_class)  # unknown class -> ServiceError

    @property
    def resolved_class(self) -> str:
        """The bulkhead class this job runs in."""
        return classify(self.kind, self.job_class)


class Job:
    """One queued/running/finished analysis (mutable server-side state)."""

    def __init__(self, spec: JobSpec, job_id: str | None = None):
        self.id = job_id if job_id is not None else uuid.uuid4().hex[:12]
        self.spec = spec
        self.state = "queued"
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.result: dict | None = None
        self.error: str | None = None
        self.exhausted: str | None = None
        self.legs = 0
        self.cancel = CancelToken()
        self.cancel_requested = False
        self.trace_id: str | None = None
        self.idempotency_key: str | None = None

    @property
    def job_class(self) -> str:
        """The bulkhead class this job is queued and executed in."""
        return self.spec.resolved_class

    def to_dict(self) -> dict:
        """The job as served by ``GET /v1/jobs/<id>`` and stored as JSONL."""
        return {
            "id": self.id,
            "kind": self.spec.kind,
            "class": self.job_class,
            "graph": self.spec.fingerprint,
            "observe": self.spec.observe,
            "params": dict(self.spec.params),
            "priority": self.spec.priority,
            "deadline_s": self.spec.deadline_s,
            "max_probes": self.spec.max_probes,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "legs": self.legs,
            "exhausted": self.exhausted,
            "error": self.error,
            "result": self.result,
            "trace_id": self.trace_id,
            "idempotency_key": self.idempotency_key,
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "Job":
        """Rebuild a job from its last JSONL record (server restart)."""
        spec = JobSpec(
            kind=record["kind"],
            fingerprint=record["graph"],
            observe=record["observe"],
            params=dict(record.get("params", {})),
            priority=int(record.get("priority", 0)),
            deadline_s=record.get("deadline_s"),
            max_probes=record.get("max_probes"),
            job_class=record.get("class"),
        )
        job = cls(spec, job_id=record["id"])
        job.trace_id = record.get("trace_id")
        job.idempotency_key = record.get("idempotency_key")
        job.state = record.get("state", "queued")
        job.submitted_at = record.get("submitted_at", job.submitted_at)
        job.started_at = record.get("started_at")
        job.finished_at = record.get("finished_at")
        job.legs = int(record.get("legs", 0))
        job.exhausted = record.get("exhausted")
        job.error = record.get("error")
        job.result = record.get("result")
        return job


def _job_config(params: Mapping, **run) -> ExplorationConfig:
    """The exploration config a job's ``params`` select, plus the *run*
    fields (budget, telemetry, checkpoint) the manager owns."""
    return ExplorationConfig(
        bounds=bool(params.get("bounds", False)),
        backend=params.get("backend") or "auto",
        **run,
    )


class JobManager:
    """Bounded queue + worker pool + durable JSONL job store.

    Parameters
    ----------
    registry:
        The server's :class:`~repro.service.registry.GraphRegistry`.
    data_dir:
        Durable state directory (``jobs.jsonl`` + per-job checkpoint
        files).  ``None`` keeps everything in memory.
    workers:
        Number of worker *threads*.  Analyses are CPU-bound Python, so
        this bounds concurrency fairness, not raw speed; per-probe
        process fan-out stays available through the evaluation layer.
    queue_size:
        Maximum number of *queued* jobs; submissions beyond it are
        rejected with HTTP 503 so clients back off instead of queueing
        unbounded work.
    telemetry:
        Server-wide :class:`~repro.runtime.telemetry.TelemetryHub`;
        every finished job's hub is merged into it (``/v1/metrics``).
    bulkhead:
        Worker-slot partition between job classes
        (:class:`~repro.service.resilience.Bulkhead`).  ``None`` lets
        every worker float over both classes (the pre-bulkhead
        behaviour) with no per-class queue caps.
    breakers:
        Per-class :class:`~repro.service.resilience.CircuitBreaker`
        map.  ``None`` builds a default breaker per job class;
        ``{}`` disables breaking entirely.  Only *internal* failures
        (a worker dying mid-job) count against a breaker — client
        mistakes (bad params, unknown channels) do not.
    allow_chaos:
        Honour the ``params.chaos`` fault-injection directives
        (``"fail"``, ``"sleep:<seconds>"``).  Off by default; the load
        harness and the overload tests switch it on to script
        worker-kill scenarios through the public API.
    """

    def __init__(
        self,
        registry: GraphRegistry,
        data_dir: str | Path | None = None,
        *,
        workers: int = 1,
        queue_size: int = 64,
        telemetry: TelemetryHub | None = None,
        bulkhead: Bulkhead | None = None,
        breakers: Mapping[str, CircuitBreaker] | None = None,
        allow_chaos: bool = False,
    ):
        if workers < 1:
            raise ServiceError("workers must be >= 1")
        if queue_size < 1:
            raise ServiceError("queue_size must be >= 1")
        self.registry = registry
        self.telemetry = telemetry if telemetry is not None else TelemetryHub()
        #: Optional ``(job, event)`` observer of every telemetry event of
        #: every running job — live dashboards, deterministic tests.
        self.probe_callback: Callable[[Job, TelemetryEvent], None] | None = None
        self.queue_size = queue_size
        self.bulkhead = bulkhead if bulkhead is not None else Bulkhead(workers)
        if self.bulkhead.workers != workers:
            raise ServiceError(
                f"bulkhead sized for {self.bulkhead.workers} workers but the"
                f" manager runs {workers}"
            )
        if breakers is None:
            breakers = {
                cls: CircuitBreaker(cls, telemetry=self.telemetry)
                for cls in JOB_CLASSES
            }
        self.breakers: dict[str, CircuitBreaker] = dict(breakers)
        for breaker in self.breakers.values():
            if breaker._telemetry is None:
                breaker._telemetry = self.telemetry
        self.allow_chaos = bool(allow_chaos)
        self._cond = threading.Condition()
        self._heaps: dict[str, list[tuple[int, int, str]]] = {
            cls: [] for cls in JOB_CLASSES
        }
        self._seq = 0
        self._jobs: dict[str, Job] = {}
        self._idempotency: dict[str, str] = {}
        self._closing = False
        self._store_path: Path | None = None
        self._checkpoint_dir: Path | None = None
        if data_dir is not None:
            base = Path(data_dir)
            base.mkdir(parents=True, exist_ok=True)
            self._store_path = base / "jobs.jsonl"
            self._checkpoint_dir = base / "checkpoints"
            self._checkpoint_dir.mkdir(exist_ok=True)
            self._recover()
        self._threads = [
            threading.Thread(
                target=self._worker,
                args=(self.bulkhead.allowed_classes(i),),
                name=f"repro-job-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission / lookup ------------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        *,
        idempotency_key: str | None = None,
        trace_id: str | None = None,
    ) -> Job:
        """Queue a new job.

        Admission control, in order: an *idempotency-key replay*
        returns the original job without consuming any capacity; an
        open circuit breaker for the job's class raises
        :class:`~repro.exceptions.ServiceUnavailable` (503) with a
        ``Retry-After`` hint; a per-class queue cap raises
        :class:`~repro.exceptions.RateLimited` (429); a full global
        queue raises :class:`~repro.exceptions.ServiceUnavailable`
        (503).
        """
        graph = self.registry.get(spec.fingerprint)  # 404 on unknown graphs
        if (spec.kind == "dse-sadf") != isinstance(graph, SADFGraph):
            raise ServiceError(
                f"job kind {spec.kind!r} does not fit the registered graph:"
                " scenario (SADF) graphs take kind 'dse-sadf', plain SDF"
                " graphs take the other kinds"
            )
        job_class = spec.resolved_class
        with self._cond:
            if idempotency_key is not None:
                known = self._idempotency.get(idempotency_key)
                if known is not None:
                    self.telemetry.emit("job_replayed", kind=spec.kind)
                    return self._jobs[known]
            if self._closing:
                raise ServiceUnavailable("server is shutting down")
            breaker = self.breakers.get(job_class)
            if breaker is not None and not breaker.allow():
                raise ServiceUnavailable(
                    f"job class {job_class!r} is shedding load (circuit"
                    f" {breaker.state}); retry later",
                    code="breaker_open",
                    retry_after_s=breaker.retry_after_s or None,
                )
            admitted = False
            try:
                if not self.bulkhead.admits(
                    job_class, len(self._heaps[job_class])
                ):
                    raise RateLimited(
                        f"{job_class} queue cap"
                        f" ({self.bulkhead.queue_caps[job_class]}) reached;"
                        " retry later"
                    )
                if self.queue_depth >= self.queue_size:
                    raise ServiceError(
                        f"job queue is full ({self.queue_size} queued); retry later",
                        status=503,
                        code="queue_full",
                    )
                admitted = True
            finally:
                if not admitted and breaker is not None:
                    breaker.release()  # give the (half-open) trial slot back
            job = Job(spec)
            job.trace_id = trace_id
            job.idempotency_key = idempotency_key
            if idempotency_key is not None:
                self._idempotency[idempotency_key] = job.id
            self._jobs[job.id] = job
            self._push(job)
            self._persist(job)
            self.telemetry.emit("job_submitted", kind=spec.kind, job_class=job_class)
            self._cond.notify_all()
        return job

    def get(self, job_id: str) -> Job:
        with self._cond:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ServiceError(f"unknown job {job_id!r}", status=404) from None

    def jobs(self) -> list[Job]:
        """All known jobs, newest submission first."""
        with self._cond:
            return sorted(
                self._jobs.values(), key=lambda job: job.submitted_at, reverse=True
            )

    @property
    def queue_depth(self) -> int:
        """Jobs waiting for a worker (running jobs excluded)."""
        return sum(len(heap) for heap in self._heaps.values())

    def queue_depth_for(self, job_class: str) -> int:
        """Waiting jobs of one bulkhead class."""
        return len(self._heaps[job_class])

    def states_count(self) -> dict[str, int]:
        """``{state: number of jobs}`` over every known state."""
        counts = {state: 0 for state in JOB_STATES}
        with self._cond:
            for job in self._jobs.values():
                counts[job.state] += 1
        return counts

    def cancel(self, job_id: str) -> Job:
        """Cancel *job_id*: queued jobs finish immediately, running jobs
        stop at the next probe boundary keeping their partial result."""
        with self._cond:
            job = self.get(job_id)
            if job.state in TERMINAL_STATES:
                raise ServiceError(
                    f"job {job_id} is already {job.state}", status=409
                )
            job.cancel_requested = True
            job.cancel.cancel()
            if job.state in ("queued", "partial"):
                heap = self._heaps[job.job_class]
                if any(entry[2] == job.id for entry in heap):
                    heap[:] = [entry for entry in heap if entry[2] != job.id]
                    heapq.heapify(heap)
                    breaker = self.breakers.get(job.job_class)
                    if breaker is not None:
                        breaker.release()  # admitted but never executed
                self._finalize(job, "cancelled")
            # a running job transitions when its worker observes the token
        return job

    # -- shutdown -----------------------------------------------------------
    def drain(self, timeout: float = 30.0) -> None:
        """Graceful stop: interrupt running jobs so they checkpoint and
        return to ``queued``, then join the workers (idempotent)."""
        with self._cond:
            if self._closing:
                return
            self._closing = True
            for job in self._jobs.values():
                if job.state == "running" and not job.cancel_requested:
                    job.cancel.cancel()
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)

    # -- worker loop --------------------------------------------------------
    def _worker(self, allowed: tuple[str, ...] = JOB_CLASSES) -> None:
        while True:
            with self._cond:
                while not self._closing and not any(
                    self._heaps[cls] for cls in allowed
                ):
                    self._cond.wait()
                if self._closing:
                    return
                entry_class = min(
                    (cls for cls in allowed if self._heaps[cls]),
                    key=lambda cls: self._heaps[cls][0][:2],
                )
                _, _, job_id = heapq.heappop(self._heaps[entry_class])
                job = self._jobs[job_id]
                if job.cancel_requested:
                    self._finalize(job, "cancelled")
                    continue
                job.state = "running"
                job.started_at = time.time()
                job.legs += 1
                self._persist(job)
            self._run(job)

    def _run(self, job: Job) -> None:
        breaker = self.breakers.get(job.job_class)
        internal_failure = False
        stats: RunStats | None = None  # what the job's service ran, once it ran
        try:
            self._maybe_chaos(job)
            graph = self.registry.get(job.spec.fingerprint)
            budget = Budget(
                deadline_s=job.spec.deadline_s,
                max_probes=job.spec.max_probes,
                cancel=job.cancel,
            )
            def forward(event: TelemetryEvent, _job: Job = job) -> None:
                callback = self.probe_callback
                if callback is not None:
                    callback(_job, event)

            if job.spec.kind == "dse-sadf":
                self._run_dse_sadf(job, graph, budget, forward)
                return
            service = EvaluationService(
                graph,
                job.spec.observe,
                config=_job_config(job.spec.params, budget=budget, on_event=forward),
                memo=self.registry.bank(job.spec.fingerprint, job.spec.observe),
            )
            try:
                runner = {
                    "dse": self._run_dse,
                    "throughput": self._run_throughput,
                    "minimal-distribution": self._run_minimal,
                }[job.spec.kind]
                runner(job, graph, service)
            finally:
                stats = service.stats
                self.telemetry.merge(service.telemetry)
                service.close()
        except BudgetExhausted as stop:
            # Escapes only from non-DSE kinds (the explorer converts it
            # into a partial result itself).
            with self._cond:
                job.exhausted = stop.reason
                if job.cancel_requested:
                    self._finalize(job, "cancelled", stats)
                elif stop.reason == "cancelled":
                    self._requeue_interrupted(job)
                else:
                    self._finalize(job, "partial", stats)
        except ReproError as error:
            # A client mistake (bad params, unknown channel): the worker
            # plane is healthy, so this does not count against the breaker.
            with self._cond:
                job.error = str(error)
                self._finalize(job, "failed", stats)
        except Exception as error:  # noqa: BLE001 - a worker must never die
            internal_failure = True
            with self._cond:
                job.error = f"internal error: {error!r}"
                self._finalize(job, "failed", stats)
        finally:
            if breaker is not None:
                if internal_failure:
                    breaker.record_failure()
                else:
                    breaker.record_success()

    def _maybe_chaos(self, job: Job) -> None:
        """Honour ``params.chaos`` fault injection (opt-in via
        ``allow_chaos``): ``"fail"`` kills the execution the way a
        wedged worker would; ``"sleep:<seconds>"`` stretches it, so load
        tests can script long batches without burning CPU."""
        directive = job.spec.params.get("chaos") if self.allow_chaos else None
        if not directive:
            return
        directive = str(directive)
        if directive == "fail":
            raise RuntimeError("chaos: injected worker failure")
        if directive.startswith("sleep:"):
            deadline = time.monotonic() + float(directive.split(":", 1)[1])
            while time.monotonic() < deadline:
                if job.cancel.cancelled or self._closing:
                    return  # the run notices the token at its first probe
                time.sleep(min(0.02, max(0.0, deadline - time.monotonic())))
            return
        raise ServiceError(f"unknown chaos directive {directive!r}")

    def breaker_snapshots(self) -> list[dict]:
        """Per-class breaker state for ``/v1/healthz`` and ``/v1/metrics``."""
        return [self.breakers[cls].snapshot() for cls in JOB_CLASSES if cls in self.breakers]

    def _run_dse(self, job: Job, graph, service: EvaluationService) -> None:
        params = job.spec.params
        checkpoint, resume = self._checkpoint(job)
        result = explore_design_space(
            graph,
            job.spec.observe,
            strategy=str(params.get("strategy", "dependency")),
            max_size=params.get("max_size"),
            config=ExplorationConfig(
                evaluator=service,
                checkpoint=checkpoint,
            ),
            resume=resume,
        )
        self._settle(job, result)

    def _settle(self, job: Job, result) -> None:
        """Record a DSE result (complete or partial) and move the job on."""
        with self._cond:
            job.result = result.to_dict()
            job.exhausted = result.exhausted
            if result.complete:
                self._finalize(job, "done", result.stats)
            elif job.cancel_requested:
                self._finalize(job, "cancelled", result.stats)
            elif result.exhausted == "cancelled":
                self._requeue_interrupted(job)  # server-driven (shutdown)
            else:
                self._finalize(job, "partial", result.stats)

    def _run_dse_sadf(
        self, job: Job, sadf: SADFGraph, budget: Budget, forward
    ) -> None:
        """Scenario-aware DSE: same lifecycle as :meth:`_run_dse`, but
        the exploration spans every scenario of an SADF graph, so the
        memo sharing is per scenario — the explorer's scenario services
        run on one live bank per ``observe@scenario`` key."""
        params = job.spec.params
        checkpoint, resume = self._checkpoint(job)
        fingerprint = job.spec.fingerprint
        observe = job.spec.observe
        result = explore_sadf_design_space(
            sadf,
            observe,
            strategy=str(params.get("strategy", "dependency")),
            max_size=params.get("max_size"),
            config=_job_config(
                params, budget=budget, on_event=forward, checkpoint=checkpoint
            ),
            resume=resume,
            memos={
                name: self.registry.bank(fingerprint, f"{observe}@{name}")
                for name in sadf.scenario_names
            },
        )
        if result.telemetry is not None:
            self.telemetry.merge(result.telemetry)
        self._settle(job, result)

    def _run_throughput(self, job: Job, graph, service: EvaluationService) -> None:
        capacities = job.spec.params.get("capacities")
        if not isinstance(capacities, Mapping):
            raise ServiceError(
                "throughput jobs need params.capacities: {channel: int}"
            )
        distribution = StorageDistribution(
            {name: int(cap) for name, cap in capacities.items()}
        )
        value = service(distribution)
        with self._cond:
            job.result = {
                "throughput": str(value),
                "throughput_float": float(value),
                "deadlocked": value == 0,
                "capacities": dict(distribution),
            }
            self._finalize(job, "done", service.stats)

    def _run_minimal(self, job: Job, graph, service: EvaluationService) -> None:
        constraint = job.spec.params.get("throughput")
        if constraint is None:
            raise ServiceError(
                'minimal-distribution jobs need params.throughput: "p/q"'
            )
        point = minimal_distribution_for_throughput(
            graph,
            Fraction(str(constraint)),
            job.spec.observe,
            config=ExplorationConfig(evaluator=service),
        )
        with self._cond:
            if point is None:
                job.result = {"found": False}
            else:
                job.result = {
                    "found": True,
                    "size": point.size,
                    "throughput": str(point.throughput),
                    "distribution": dict(point.distribution),
                }
            self._finalize(job, "done", service.stats)

    # -- state transitions (caller holds the lock) --------------------------
    def _push(self, job: Job) -> None:
        self._seq += 1
        heapq.heappush(
            self._heaps[job.job_class], (job.spec.priority, self._seq, job.id)
        )

    def _finalize(
        self, job: Job, state: str, stats: RunStats | ExplorationStats | None = None
    ) -> None:
        """Move *job* to a final *state*; *stats* (its ``evaluations``
        and ``cache_hits``, if it ran) go into its request's trace."""
        job.state = state
        job.finished_at = time.time()
        self._persist(job)
        self.telemetry.emit("job_finished", kind=job.spec.kind, state=state)
        traces = self.telemetry.traces
        if traces is not None and job.trace_id:
            started = job.started_at if job.started_at is not None else job.finished_at
            traces.annotate(
                job.trace_id,
                job={
                    "id": job.id,
                    "state": state,
                    "wait_s": started - job.submitted_at,
                    "exec_s": job.finished_at - started,
                    "evaluations": stats.evaluations if stats is not None else 0,
                    "cache_hits": stats.cache_hits if stats is not None else 0,
                },
            )

    def _requeue_interrupted(self, job: Job) -> None:
        """A shutdown interrupted the job: back to ``queued`` with its
        checkpoint on disk, so the next server run resumes it."""
        job.state = "queued"
        self._persist(job)
        self.telemetry.emit("job_requeued", kind=job.spec.kind)

    # -- durability ---------------------------------------------------------
    def _checkpoint(self, job: Job) -> tuple[Path | None, str | None]:
        """The checkpoint file a DSE job writes, and the one it resumes:
        the same file, once an earlier leg of the job has left it."""
        if self._checkpoint_dir is None:
            return None, None
        path = self._checkpoint_dir / f"{job.id}.ckpt.json"
        return path, str(path) if path.exists() else None

    def _persist(self, job: Job) -> None:
        if self._store_path is None:
            return
        with self._store_path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(job.to_dict(), sort_keys=True) + "\n")

    def _recover(self) -> None:
        """Replay ``jobs.jsonl``; re-enqueue every non-terminal job."""
        if self._store_path is None or not self._store_path.exists():
            return
        records: dict[str, dict] = {}
        for line in self._store_path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            records[record["id"]] = record
        for record in records.values():
            job = Job.from_dict(record)
            self._jobs[job.id] = job
            if job.idempotency_key:
                self._idempotency[job.idempotency_key] = job.id
            if job.state in TERMINAL_STATES:
                continue
            # queued, running and partial jobs all get another leg; DSE
            # jobs find their checkpoint and replay it for free.
            job.state = "queued"
            self._push(job)
            self._persist(job)
            self.telemetry.emit("job_recovered", kind=job.spec.kind)
