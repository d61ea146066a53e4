"""Process-pool fan-out for independent throughput evaluations.

The design-space searches repeatedly ask "what is the throughput of
this graph under this storage distribution?" for *independent*
distributions — all members of one size slice, all frontier entries of
one size in the dependency-guided sweep.  Each answer is a cold-start
state-space execution that shares nothing with its neighbours, so the
batch parallelises perfectly.

:class:`ParallelProber` wraps a :class:`concurrent.futures.\
ProcessPoolExecutor` around this pattern:

* the (picklable) graph, observed actor and probe backend are shipped
  **once** per worker through the pool initializer — tasks then carry
  only the capacity vector and whether the caller reads blocking data,
  and every task is one :func:`~repro.engine.backends.probe_batch`
  call, the same as an inline probe's;
* ``workers=1`` (the default everywhere) never creates a pool and runs
  every task inline through the same backend, byte-for-byte the serial
  path;
* the pool is **fault tolerant**: a worker killed mid-batch (OOM
  killer, container limits) or a probe exceeding ``probe_timeout``
  triggers a bounded number of pool restarts with exponential backoff;
  the failed batch is re-run in full — evaluations are pure, so the
  retry is exact.  Only when the restart budget is spent does the
  prober degrade to the inline path, and then it notes *why* in its
  telemetry hub (``pool_fallback_reason``) instead of silently eating
  the failure.

Results are :class:`~repro.engine.backends.EvalResult`\\ s returned in
task order, so callers observe the same deterministic sequence as a
serial scan.  The module-level worker functions must stay importable
at top level for ``spawn``-based platforms.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.engine.backends import EvalResult, ProbeBackend, probe_batch
from repro.graph.graph import SDFGraph
from repro.runtime.telemetry import TelemetryHub

#: Times a broken or timed-out pool is rebuilt before a prober degrades
#: to inline evaluation for good.
MAX_POOL_RESTARTS = 1
#: Base sleep in seconds before a pool restart; doubles per consecutive
#: restart of one batch.
RETRY_BACKOFF = 0.05

_worker_graph: SDFGraph | None = None
_worker_observe: str | None = None
_worker_backend: ProbeBackend | None = None
_worker_fallbacks: tuple[ProbeBackend, ...] = ()


def _init_worker(
    graph: SDFGraph,
    observe: str | None,
    backend: ProbeBackend,
    fallbacks: tuple[ProbeBackend, ...],
) -> None:
    """Pool initializer: pin the graph, observed actor and backends in the worker."""
    global _worker_graph, _worker_observe, _worker_backend, _worker_fallbacks
    _worker_graph = graph
    _worker_observe = observe
    _worker_backend = backend
    _worker_fallbacks = fallbacks


def _run_task(capacity_items: tuple[tuple[str, int], ...], blocking: bool) -> EvalResult:
    """Worker entry point: one backend probe of one distribution."""
    assert _worker_backend is not None, "worker pool used before initialisation"
    return probe_batch(
        _worker_backend,
        _worker_graph,
        [dict(capacity_items)],
        _worker_observe,
        blocking=blocking,
        fallbacks=_worker_fallbacks,
    )[0]


class ParallelProber:
    """Maps distributions to :class:`~repro.engine.backends.EvalResult`\\ s,
    possibly in parallel.

    Parameters
    ----------
    graph / observe / backend:
        Fixed for the prober's lifetime; shipped to workers once.  Every
        probe, pooled or inline, is a
        :func:`~repro.engine.backends.probe_batch` call of *backend*.
    workers:
        Pool size.  ``1`` (or less) never spawns processes.
    probe_timeout:
        Optional per-probe wall-clock limit in seconds.  A probe
        exceeding it is treated as a pool failure (the pool is torn
        down — a hung worker cannot be cancelled — and the batch
        retried on a fresh pool or inline).
    max_restarts / retry_backoff:
        Override :data:`MAX_POOL_RESTARTS` / :data:`RETRY_BACKOFF`,
        which are read when the prober is built.
    fallbacks:
        The backends a batch reruns on, in turn, while it hits a
        kernel's resource limit; empty to let the limit raise.
    telemetry:
        The :class:`~repro.runtime.telemetry.TelemetryHub` the prober
        counts batches, tasks, restarts and its fallback into (a private
        one by default).
    """

    def __init__(
        self,
        graph: SDFGraph,
        observe: str | None,
        backend: ProbeBackend,
        workers: int = 1,
        *,
        probe_timeout: float | None = None,
        max_restarts: int | None = None,
        retry_backoff: float | None = None,
        fallbacks: tuple[ProbeBackend, ...] = (),
        telemetry: TelemetryHub | None = None,
    ):
        self.graph = graph
        self.observe = observe
        self.backend = backend
        self.fallbacks = fallbacks
        self.workers = max(1, int(workers))
        self.probe_timeout = probe_timeout
        self.max_restarts = max(0, MAX_POOL_RESTARTS if max_restarts is None else max_restarts)
        self.retry_backoff = RETRY_BACKOFF if retry_backoff is None else retry_backoff
        self.telemetry = telemetry if telemetry is not None else TelemetryHub()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_failed = False
        self._closed = False

    @property
    def parallel(self) -> bool:
        """Whether tasks may actually fan out to worker processes."""
        return self.workers > 1 and not self._pool_failed and not self._closed

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self._pool is None and not self._pool_failed and not self._closed:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_worker,
                    initargs=(self.graph, self.observe, self.backend, self.fallbacks),
                )
            except (OSError, ValueError) as error:
                self._fail(f"pool unavailable: {type(error).__name__}: {error}")
        return self._pool

    def _discard_pool(self) -> None:
        """Tear the current pool down without waiting on its workers."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _fail(self, reason: str) -> None:
        # Called at most once: a failed pool is never rebuilt.
        self._pool_failed = True
        self._discard_pool()
        self.telemetry.note("pool_fallback_reason", reason)
        self.telemetry.emit("pool_fallback", reason=reason)

    def _map_on_pool(
        self, pool: ProcessPoolExecutor, items: Sequence[tuple], blocking: bool
    ) -> list[EvalResult]:
        if self.probe_timeout is None:
            chunksize = max(1, len(items) // (self.workers * 4))
            return list(
                pool.map(_run_task, items, [blocking] * len(items), chunksize=chunksize)
            )
        # With a per-probe watchdog, submit individually so each future
        # carries its own deadline; order is preserved by construction.
        futures = [pool.submit(_run_task, item, blocking) for item in items]
        try:
            return [future.result(timeout=self.probe_timeout) for future in futures]
        finally:
            for future in futures:
                future.cancel()

    def map(
        self, capacities: Sequence[dict[str, int]], *, blocking: bool = False
    ) -> list[EvalResult]:
        """Evaluate every distribution; results in input order.  With
        *blocking*, the results carry space-blocking data.

        Pure evaluations make the retry loop exact: a batch that failed
        on a dying pool is simply re-run in full, and the caller sees
        results indistinguishable from a first-try success.
        """
        items = [tuple(sorted(c.items())) for c in capacities]
        if not items:
            return []
        restarts_this_batch = 0
        while self.workers > 1 and len(items) > 1 and not self._pool_failed:
            pool = self._ensure_pool()
            if pool is None:
                break
            try:
                results = self._map_on_pool(pool, items, blocking)
                self.telemetry.count("parallel_batches")
                self.telemetry.count("parallel_tasks", len(items))
                return results
            except (BrokenProcessPool, TimeoutError) as failure:
                kind = (
                    "probe timeout"
                    if isinstance(failure, TimeoutError)
                    else "worker died"
                )
                self._discard_pool()
                if restarts_this_batch < self.max_restarts:
                    delay = self.retry_backoff * (2**restarts_this_batch)
                    restarts_this_batch += 1
                    self.telemetry.emit(
                        "pool_restart",
                        reason=kind,
                        attempt=restarts_this_batch,
                        backoff_s=delay,
                    )
                    if delay > 0:
                        time.sleep(delay)
                    continue
                self._fail(
                    f"{kind}; gave up after {restarts_this_batch} pool restart(s)"
                )
        return probe_batch(
            self.backend,
            self.graph,
            [dict(item) for item in items],
            self.observe,
            blocking=blocking,
            fallbacks=self.fallbacks,
        )

    def close(self) -> None:
        """Shut the worker pool down (idempotent, safe after failures)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ParallelProber":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
