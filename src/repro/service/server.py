"""The resident analysis server (stdlib ``ThreadingHTTPServer``).

:class:`AnalysisServer` assembles the serving stack — a
:class:`~repro.service.registry.GraphRegistry`, a
:class:`~repro.service.jobs.JobManager` worker pool and the
:class:`~repro.service.api.AnalysisApi` routing table — behind one
HTTP socket.  HTTP handling threads only enqueue and observe; the
analyses themselves run on the manager's workers, so a slow DSE never
blocks ``/v1/healthz`` or ``/v1/metrics``.

Lifecycle::

    server = AnalysisServer(data_dir="state", port=0)
                                    # resolves backend="auto": a cold
                                    # kernel cache builds the C kernel
    server.start()                  # background thread; .url is bound
    ...
    server.stop()                   # graceful: running jobs checkpoint
                                    # and return to "queued"

``stop()`` (also wired to SIGTERM by ``repro serve``) drains
gracefully: running jobs are interrupted at a probe boundary, write
their checkpoint, and are persisted as ``queued`` — a server restarted
on the same ``data_dir`` picks them up and completes them without
re-paying any probe (see ``docs/SERVICE.md``).
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.engine.backends import resolve_backend
from repro.runtime.telemetry import TelemetryHub, TraceLog
from repro.service.api import AnalysisApi
from repro.service.jobs import JobManager
from repro.service.registry import GraphRegistry


class _Handler(BaseHTTPRequestHandler):
    """Thin adapter from http.server onto :class:`AnalysisApi`."""

    api: AnalysisApi  # installed by AnalysisServer on the subclass
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request accounting goes through telemetry, not stderr

    def _serve(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        response = self.api.handle(method, self.path, body, dict(self.headers))
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(response.body)

    def do_GET(self) -> None:
        self._serve("GET")

    def do_POST(self) -> None:
        self._serve("POST")

    def do_DELETE(self) -> None:
        self._serve("DELETE")


class AnalysisServer:
    """Registry + job manager + HTTP front, owned as one unit.

    Parameters
    ----------
    data_dir:
        Durable state directory (graphs, job store, checkpoints).
        ``None`` runs fully in-memory — jobs do not survive restarts.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` / :attr:`url`).
    workers / queue_size:
        Passed through to :class:`~repro.service.jobs.JobManager`.
    bulkhead / breakers / allow_chaos:
        The resilience plane, passed through to the manager: a
        :class:`~repro.service.resilience.Bulkhead` worker partition,
        per-class :class:`~repro.service.resilience.CircuitBreaker`
        overrides, and the fault-injection opt-in (load tests only).
    """

    def __init__(
        self,
        data_dir: str | Path | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        queue_size: int = 64,
        bulkhead=None,
        breakers=None,
        allow_chaos: bool = False,
    ):
        # Resolve the default backend before any job can run (the job
        # manager resumes persisted jobs as it starts): where the C
        # kernel is not cached yet, the host's one build lands here,
        # not in a job.
        resolve_backend("auto")
        self.telemetry = TelemetryHub(traces=TraceLog())
        self.registry = GraphRegistry(data_dir)
        self.manager = JobManager(
            self.registry,
            data_dir,
            workers=workers,
            queue_size=queue_size,
            telemetry=self.telemetry,
            bulkhead=bulkhead,
            breakers=breakers,
            allow_chaos=allow_chaos,
        )
        self.api = AnalysisApi(self.registry, self.manager)
        handler = type("BoundHandler", (_Handler,), {"api": self.api})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None
        self._stopped = False

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AnalysisServer":
        """Serve in a background thread; returns self (tests/embedding)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-analysis-server",
                daemon=True,
            )
            self._thread.start()
            self.telemetry.emit("server_started", url=self.url)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` is called."""
        self.telemetry.emit("server_started", url=self.url)
        self._httpd.serve_forever()

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown (idempotent): stop accepting requests,
        interrupt running jobs so they checkpoint and requeue, join the
        worker pool."""
        if self._stopped:
            return
        self._stopped = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        self.manager.drain(timeout=timeout)
        self.telemetry.emit("server_stopped")

    def __enter__(self) -> "AnalysisServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
