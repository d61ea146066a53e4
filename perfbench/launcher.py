"""Run ``repro serve`` in this process, optionally traced, and report.

Usage::

    python3 perfbench/launcher.py REPORT.json TRACE(0|1) serve [serve options]

With ``TRACE`` 1 the layer wrappers of :mod:`layers` are installed
before the ``repro serve`` entry point starts.  When the server stops
(SIGTERM drains it), the launcher writes REPORT.json: the time of
``import repro``, the peak RSS of this process and, when traced, the
per-layer metrics, the per-thread self times and the trace ids of the
requests the server handled.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    report_path, trace, serve_argv = Path(argv[0]), argv[1] == "1", argv[2:]
    import_started = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - import_started
    import layers
    from tracing import Tracer

    tracer = None
    if trace:
        tracer = Tracer()
        layers.install(tracer)
    from repro.service.cli import main as repro_main

    status = repro_main(serve_argv)
    report = {
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        spans = tracer.spans
        report["layers"] = layers.layer_metrics(spans)
        report["threads"] = layers.self_by_thread(spans)
        report["trace_ids"] = [
            span.attrs["trace_id"]
            for span in spans
            if span.name == "http:handle" and span.attrs.get("trace_id")
        ]
    report_path.write_text(json.dumps(report), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
