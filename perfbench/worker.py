"""One benchmark process: set up a workload, run its work list, report.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/worker.py WORKLOAD SEED SECONDS PHASE TRACE WORKDIR

``PHASE`` is ``setup`` (set up, report ``setup_s``, stop) or ``run``.
``TRACE`` 1 installs the layer wrappers before set-up.  The last line
of standard output is one JSON object.
"""

import time

_STARTED = time.perf_counter()  # setup_s runs from here

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def host_facts() -> dict:
    from repro.engine import ccore

    compiler, reason = ccore.compiler_probe()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "compiler": compiler or f"none ({reason})",
    }


def run_explore(workload: str, seed: int, seconds: int, phase: str, tracer) -> dict:
    import layers
    from explore import ExploreWorkload

    bench = ExploreWorkload(workload, seed, seconds)
    if bench.divide:
        bench.compile_kernels()
    plans = [bench.plan() for _ in range(bench.reps)]
    setup_s = time.perf_counter() - _STARTED
    if phase == "setup":
        return {"setup_s": setup_s}

    outcomes, rep_walls = [], []
    for plan in plans:
        started = time.perf_counter()
        for op in plan:
            try:
                outcomes.append(bench.run_op(op, tracer))
            except Exception as error:  # noqa: BLE001 - one failed op must not end the run
                outcomes.append(_failed(op, error))
        rep_walls.append(time.perf_counter() - started)
    report = {
        "setup_s": setup_s,
        "rep_walls": rep_walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": [
            {"kind": o.kind, "graph": o.graph, "latency_s": o.latency_s, "error": o.error}
            for o in outcomes
        ],
        "backends": sorted({o.stats["backend"] for o in outcomes if o.stats}),
    }
    if tracer is not None:
        spans = tracer.spans
        report["layers"] = layers.layer_metrics(spans)
        counted = layers.op_counts(spans)
        report["span_errors"] = [
            f"{o.kind} {o.graph}: traced {key} {counted[id(o.stats['span'])][key]}"
            f" != program {o.stats[key]}"
            for o in outcomes
            if o.stats
            for key in ("evaluations", "cache_hits", "oracle_useful", "sizes_probed")
            if o.stats[key] is not None and counted[id(o.stats["span"])][key] != o.stats[key]
        ]
    return report


def _failed(op, error: Exception):
    from explore import Outcome

    return Outcome(op.kind, op.graph, 0.0, f"{op.kind} {op.graph}: {error!r}")


def run_service(seed: int, seconds: int, phase: str, trace: bool, work: Path) -> dict:
    import service_mix

    bench = service_mix.ServiceMix(seed, seconds)
    server = service_mix.Server(work, trace)
    client = service_mix.Client(server.host, server.port)
    try:
        fingerprints = bench.register(client)
        setup_s = time.perf_counter() - _STARTED
        if phase == "setup":
            return {"setup_s": setup_s}
        window = bench.send_all(client, fingerprints)
        sent = window["sent"]
        bench.settle(client, len(sent))
        bench.collect(client, sent)
    finally:
        client.close()
        server_report = server.stop()
    bench.check(sent)
    measured = service_mix.latency_metrics(sent)
    failures = [entry for entry in sent + window["refused"] if entry.get("error")]
    report = {
        "setup_s": setup_s,
        "wall_s": measured["last_finished"] - window["first_due"],
        "interactive_exec_s": measured["interactive_exec_s"],
        "interactive_p50_s": measured["interactive_p50_s"],
        "interactive_p90_s": measured["interactive_p90_s"],
        "batch_p50_s": measured["batch_p50_s"],
        "peak_rss_mb": server_report["peak_rss_mb"],
        "import_s": server_report["import_s"],
        "late": window["late"],
        "attempted": len(bench.schedule),
        "errors": [entry["error"] for entry in failures],
        "counts": measured["counts"],
        "jobs": measured["totals"],
        "backends": sorted(
            {
                entry["job"]["result"]["stats"]["backend"]
                for entry in sent
                if entry["kind"] == "dse" and entry.get("job") and entry["job"].get("result")
            }
        ),
    }
    if trace:
        report["layers"] = server_report["layers"]
        report["threads"] = server_report["threads"]
        missing = set(client.trace_ids) - set(server_report["trace_ids"])
        report["span_errors"] = (
            [f"{len(missing)} of {len(client.trace_ids)} client requests have no server span"]
            if missing
            else []
        )
    return report


def main(argv: list[str]) -> int:
    workload, seed, seconds, phase, trace, work = argv
    seed, seconds, trace, work = int(seed), int(seconds), trace == "1", Path(work)
    import_started = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - import_started
    tracer = None
    if trace and workload != "service-mix":
        import layers
        from tracing import Tracer

        tracer = Tracer()
        layers.install(tracer)
    if workload == "service-mix":
        report = run_service(seed, seconds, phase, trace, work)
    else:
        report = run_explore(workload, seed, seconds, phase, tracer)
        report.setdefault("import_s", import_s)
    if phase == "run":
        report["host"] = host_facts()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
