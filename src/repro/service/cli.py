"""``repro`` — serve and query the resident analysis service.

Three verbs:

``repro serve``
    Run an :class:`~repro.service.server.AnalysisServer` in the
    foreground.  SIGTERM/SIGINT drain gracefully: running jobs
    checkpoint and return to ``queued``, so ``repro serve`` on the same
    ``--data-dir`` resumes them.

``repro submit``
    Submit a graph (a file or ``gallery:<name>``) and a job in one
    call; ``--wait`` polls to completion and prints the result.

``repro jobs``
    List jobs, show one job, or cancel one (``--cancel``).

``repro backends``
    Show the probe-backend registry: capabilities and availability on
    this host (or, with ``--url``, on a running server's host) — the
    quickest way to see whether the compiled ``cc`` backend found a C
    compiler.

``repro report``
    Render a saved exploration result (``--output-json``) or telemetry
    snapshot (``--stats-json``) as tables: the Pareto front, the cost
    stats, the counters and per-backend timers.

``repro diff``
    Compare two such documents: Pareto deltas (points gained, lost,
    moved), probe-count deltas, timing deltas.  Exits 0 when the
    payloads match, 4 when they differ — usable as a regression gate.

Examples
--------
::

    repro serve --port 8000 --data-dir state --workers 4 \
        --bulkhead-interactive 1 --batch-queue-cap 32 &
    repro submit gallery:example --observe c --wait
    repro submit gallery:modem --kind minimal-distribution --throughput 1/20
    repro jobs --url http://127.0.0.1:8000
    repro backends
    repro report front.json
    repro diff front_before.json front_after.json
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import urllib.error

from repro.exceptions import ReproError
from repro.io.jsonio import graph_to_dict

DEFAULT_URL = "http://127.0.0.1:8000"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Long-lived SDF buffer/throughput analysis service.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run the analysis server in the foreground")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8000, help="bind port; 0 picks one (default: 8000)")
    serve.add_argument("--data-dir", metavar="DIR", help="durable state: graphs, job store, checkpoints")
    serve.add_argument("--workers", type=int, default=1, metavar="N", help="job worker threads (default: 1)")
    serve.add_argument("--queue-size", type=int, default=64, metavar="N", help="max queued jobs (default: 64)")
    serve.add_argument(
        "--bulkhead-interactive",
        type=int,
        default=0,
        metavar="N",
        help="workers reserved for interactive jobs (default: 0 = all float)",
    )
    serve.add_argument(
        "--bulkhead-batch",
        type=int,
        default=0,
        metavar="N",
        help="workers reserved for batch (DSE) jobs (default: 0 = all float)",
    )
    serve.add_argument(
        "--interactive-queue-cap",
        type=int,
        metavar="N",
        help="max queued interactive jobs before 429 (default: uncapped)",
    )
    serve.add_argument(
        "--batch-queue-cap",
        type=int,
        metavar="N",
        help="max queued batch jobs before 429 (default: uncapped)",
    )
    serve.add_argument(
        "--breaker-window",
        type=int,
        default=32,
        metavar="N",
        help="circuit breaker: outcomes in the sliding window (default: 32)",
    )
    serve.add_argument(
        "--breaker-min-calls",
        type=int,
        default=4,
        metavar="N",
        help="circuit breaker: outcomes required before it can trip (default: 4)",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=float,
        default=0.5,
        metavar="RATE",
        help="circuit breaker: windowed failure rate that opens it (default: 0.5)",
    )
    serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="circuit breaker: open time before half-open probing (default: 5)",
    )
    serve.add_argument(
        "--allow-chaos",
        action="store_true",
        help=argparse.SUPPRESS,  # fault injection for load tests only
    )

    submit = commands.add_parser("submit", help="submit a graph + job to a running server")
    submit.add_argument("graph", help="input graph: an .xml or .json file, or gallery:<name>")
    submit.add_argument("--url", default=DEFAULT_URL, help=f"server base URL (default: {DEFAULT_URL})")
    submit.add_argument(
        "--kind",
        choices=("dse", "throughput", "minimal-distribution", "dse-sadf"),
        default="dse",
        help="analysis to run; dse-sadf takes an SADF input (default: dse)",
    )
    submit.add_argument("--observe", metavar="ACTOR", help="actor whose throughput is analysed")
    submit.add_argument("--strategy", choices=("dependency", "divide", "exhaustive"), default="dependency")
    submit.add_argument("--max-size", type=int, metavar="N", help="dse: explore only sizes up to N")
    submit.add_argument("--throughput", metavar="P/Q", help="minimal-distribution: the constraint")
    submit.add_argument("--capacities", metavar="CH=N,...", help="throughput: the distribution to evaluate")
    submit.add_argument("--priority", type=int, default=0, help="queue priority; lower runs first")
    submit.add_argument(
        "--job-class",
        choices=("interactive", "batch"),
        help="bulkhead class (default: by kind — dse is batch, probes interactive)",
    )
    submit.add_argument(
        "--idempotency-key",
        metavar="KEY",
        help="replay-safe submission key (default: minted per call)",
    )
    submit.add_argument("--deadline", type=float, metavar="SECONDS", help="per-job wall-clock budget")
    submit.add_argument("--max-probes", type=int, metavar="N", help="per-job probe budget")
    submit.add_argument("--wait", action="store_true", help="poll until the job settles and print the result")
    submit.add_argument("--timeout", type=float, default=300.0, help="--wait timeout in seconds (default: 300)")
    submit.add_argument("--json", action="store_true", help="print the raw job JSON instead of a summary")

    jobs = commands.add_parser("jobs", help="list, inspect or cancel jobs")
    jobs.add_argument("job_id", nargs="?", help="show this job instead of the whole table")
    jobs.add_argument("--url", default=DEFAULT_URL, help=f"server base URL (default: {DEFAULT_URL})")
    jobs.add_argument("--cancel", action="store_true", help="cancel the given job")
    jobs.add_argument("--json", action="store_true", help="print raw JSON")

    backends = commands.add_parser(
        "backends", help="show probe backends: capabilities and availability"
    )
    backends.add_argument(
        "--url",
        metavar="URL",
        help="query a running server instead of this host's registry",
    )
    backends.add_argument("--json", action="store_true", help="print raw JSON")

    report = commands.add_parser(
        "report", help="render a saved result or telemetry snapshot as tables"
    )
    report.add_argument("document", help="a --output-json result or --stats-json snapshot")
    report.add_argument("--label", help="heading label (default: the file name)")

    diff = commands.add_parser(
        "diff", help="compare two saved results or snapshots (exit 4 on differences)"
    )
    diff.add_argument("document_a", help="baseline document")
    diff.add_argument("document_b", help="candidate document")
    diff.add_argument("--label-a", default=None, help="name for the baseline (default: file name)")
    diff.add_argument("--label-b", default=None, help="name for the candidate (default: file name)")
    return parser


def main(argv: list[str] | None = None) -> int:
    arguments = build_parser().parse_args(argv)
    try:
        if arguments.command == "serve":
            return _serve(arguments)
        if arguments.command == "submit":
            return _submit(arguments)
        if arguments.command == "backends":
            return _backends(arguments)
        if arguments.command == "report":
            return _report(arguments)
        if arguments.command == "diff":
            return _diff(arguments)
        return _jobs(arguments)
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 1
    except urllib.error.URLError as error:
        print(f"repro: error: cannot reach the server ({error.reason})", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 1


def _serve(arguments: argparse.Namespace) -> int:
    from repro.service.resilience import JOB_CLASSES, Bulkhead, CircuitBreaker
    from repro.service.server import AnalysisServer

    queue_caps = {}
    if arguments.interactive_queue_cap is not None:
        queue_caps["interactive"] = arguments.interactive_queue_cap
    if arguments.batch_queue_cap is not None:
        queue_caps["batch"] = arguments.batch_queue_cap
    bulkhead = Bulkhead(
        arguments.workers,
        reserved={
            "interactive": arguments.bulkhead_interactive,
            "batch": arguments.bulkhead_batch,
        },
        queue_caps=queue_caps,
    )
    breakers = {
        job_class: CircuitBreaker(
            job_class,
            window=arguments.breaker_window,
            min_calls=arguments.breaker_min_calls,
            failure_threshold=arguments.breaker_threshold,
            cooldown_s=arguments.breaker_cooldown,
        )
        for job_class in JOB_CLASSES
    }
    server = AnalysisServer(
        arguments.data_dir,
        host=arguments.host,
        port=arguments.port,
        workers=arguments.workers,
        queue_size=arguments.queue_size,
        bulkhead=bulkhead,
        breakers=breakers,
        allow_chaos=arguments.allow_chaos,
    )

    # The handler only sets an event: calling stop() from inside the
    # signal handler would deadlock (the main thread is the serve loop
    # that httpd.shutdown() waits on).
    stop_requested = threading.Event()

    def shut_down(signum, frame):  # noqa: ARG001
        stop_requested.set()

    signal.signal(signal.SIGTERM, shut_down)
    signal.signal(signal.SIGINT, shut_down)
    server.start()
    print(f"repro serve: listening on {server.url}", flush=True)
    stop_requested.wait()
    print("repro serve: draining (jobs checkpoint and requeue)", flush=True)
    server.stop()
    print("repro serve: stopped", flush=True)
    return 0


def _submit(arguments: argparse.Namespace) -> int:
    from repro.cli import load_graph, parse_capacities
    from repro.service.client import ServiceClient

    params: dict = {}
    if arguments.kind in ("dse", "dse-sadf"):
        params["strategy"] = arguments.strategy
        if arguments.max_size is not None:
            params["max_size"] = arguments.max_size
    elif arguments.kind == "minimal-distribution":
        if not arguments.throughput:
            print("repro: error: --throughput is required for minimal-distribution", file=sys.stderr)
            return 2
        params["throughput"] = arguments.throughput
    elif arguments.kind == "throughput":
        if not arguments.capacities:
            print("repro: error: --capacities is required for throughput jobs", file=sys.stderr)
            return 2
        params["capacities"] = dict(parse_capacities(arguments.capacities))

    client = ServiceClient(arguments.url)
    if arguments.kind == "dse-sadf":
        from repro.cli import load_sadf
        from repro.io.sadfjson import sadf_to_dict

        document = sadf_to_dict(load_sadf(arguments.graph))
    else:
        document = graph_to_dict(load_graph(arguments.graph))
    job = client.submit_job(
        document,
        kind=arguments.kind,
        observe=arguments.observe,
        params=params,
        priority=arguments.priority,
        deadline_s=arguments.deadline,
        max_probes=arguments.max_probes,
        job_class=arguments.job_class,
        idempotency_key=arguments.idempotency_key,
    )
    if arguments.wait:
        job = client.wait(job["id"], timeout=arguments.timeout)
    if arguments.json:
        print(json.dumps(job, indent=2, sort_keys=True))
    else:
        _print_job(job)
    if job["state"] in ("failed",):
        return 1
    if job["state"] in ("partial", "cancelled"):
        return 3
    return 0


def _jobs(arguments: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(arguments.url)
    if arguments.cancel:
        if not arguments.job_id:
            print("repro: error: --cancel needs a job id", file=sys.stderr)
            return 2
        job = client.cancel(arguments.job_id)
        print(f"job {job['id']} -> {job['state']}")
        return 0
    if arguments.job_id:
        job = client.job(arguments.job_id)
        if arguments.json:
            print(json.dumps(job, indent=2, sort_keys=True))
        else:
            _print_job(job)
        return 0
    jobs = client.jobs()
    if arguments.json:
        print(json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        print(
            f"{job['id']}  {job['state']:<9}  {job['kind']:<20}"
            f"  graph {job['graph'][:12]}  observe {job['observe']}"
        )
    return 0


def _backends(arguments: argparse.Namespace) -> int:
    if arguments.url:
        from repro.service.client import ServiceClient

        rows = ServiceClient(arguments.url).backends()
    else:
        from repro.engine.backends import backend_descriptions

        rows = backend_descriptions()
    if arguments.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    for row in rows:
        status = "available" if row["available"] else f"unavailable — {row['reason']}"
        print(f"{row['name']}: {status}  [{', '.join(row['capabilities'])}]")
    return 0


def _report(arguments: argparse.Namespace) -> int:
    from repro.reporting.diffs import load_document, report_text

    kind, document = load_document(arguments.document)
    print(report_text(kind, document, label=arguments.label or arguments.document))
    return 0


def _diff(arguments: argparse.Namespace) -> int:
    from repro.reporting.diffs import diff_text, load_document

    kind_a, document_a = load_document(arguments.document_a)
    kind_b, document_b = load_document(arguments.document_b)
    text, identical = diff_text(
        kind_a,
        document_a,
        kind_b,
        document_b,
        label_a=arguments.label_a or arguments.document_a,
        label_b=arguments.label_b or arguments.document_b,
    )
    print(text)
    return 0 if identical else 4


def _print_job(job: dict) -> None:
    print(f"job {job['id']}: {job['kind']} on graph {job['graph'][:12]} -> {job['state']}")
    if job.get("error"):
        print(f"  error: {job['error']}")
    result = job.get("result")
    if not result:
        return
    if job["kind"] in ("dse", "dse-sadf"):
        front = result.get("pareto_front", [])
        flag = "" if result.get("complete", True) else f"  (partial: {result.get('exhausted')})"
        print(f"  Pareto points: {len(front)}{flag}")
        for point in front:
            print(f"    size={point['size']} throughput={point['throughput']}")
        stats = result.get("stats", {})
        print(
            f"  cost: {stats.get('evaluations')} evaluations,"
            f" {stats.get('cache_hits')} cache hits"
        )
    elif job["kind"] == "throughput":
        print(f"  throughput: {result['throughput']} (deadlocked: {result['deadlocked']})")
    elif job["kind"] == "minimal-distribution":
        if result.get("found"):
            print(
                f"  minimal size {result['size']} at throughput {result['throughput']}:"
                f" {result['distribution']}"
            )
        else:
            print("  constraint not achievable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
