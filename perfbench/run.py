"""The repository's end-to-end benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload explore-default --seed 1 --seconds 20 --trace 0

Workloads: ``explore-default``, ``explore-divide-cc`` and
``service-mix`` (see perfbench/README.md).  ``--seed`` draws every
generated input.  ``--seconds`` sizes the fixed work list (repetitions,
or the length of the service schedule); no run is cut short by time.

``--trace 0`` measures the end-to-end metrics: set-up is done
:data:`SETUP_SAMPLES` times, each in a fresh process, and ``setup_s`` is
their median.  ``--trace 1`` runs the workload once untraced and once
with every layer wrapped in spans, and reports the per-layer metrics
and the tracing overhead.  Every output is checked; the last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median

from layers import PER_LAYER
from measure import InsufficientSamples, mean, percentile
from service_mix import INTERACTIVE_P90_LIMIT_S, LATE_P90_LIMIT_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("explore-default", "explore-divide-cc", "service-mix")

#: Set-ups per untraced run; ``setup_s`` is their median.  The first
#: runs before the timed run, one inside it, the rest after it, so
#: that they fall in different phases of a shared host's speed, which
#: swings for seconds at a time.
SETUP_SAMPLES = 3

#: Name and unit of each end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("query_mean_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer job totals, reported as 0 where no service runs.
JOB_TOTALS = [name for name, _unit in PER_LAYER if name.startswith("jobs.")]

#: A worker that takes longer than this has hung.
WORKER_TIMEOUT_S = 170


def run_worker(workload: str, seed: int, seconds: int, phase: str, trace: bool, work: Path) -> dict:
    """One fresh worker process; returns its JSON report."""
    work.mkdir(parents=True)
    env_work = {"REPRO_CACHE_DIR": str(work / "cache"), "TMPDIR": str(work / "tmp")}
    (work / "tmp").mkdir()
    command = [
        sys.executable, str(HERE / "worker.py"),
        workload, str(seed), str(seconds), phase, "1" if trace else "0", str(work),
    ]
    # A session of its own, so that a hung or abandoned worker is killed
    # together with the server it may have started.
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, **env_work),
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_worker(process)
        raise RuntimeError(f"{workload} {phase} worker hung for {WORKER_TIMEOUT_S} s") from None
    except BaseException:
        kill_worker(process)
        raise
    if process.returncode != 0:
        raise RuntimeError(f"{workload} {phase} worker exited {process.returncode}:\n{stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def wall_of(workload: str, report: dict) -> float:
    return report["wall_s"] if workload == "service-mix" else sum(report["rep_walls"])


def kill_worker(process: subprocess.Popen) -> None:
    os.killpg(process.pid, signal.SIGKILL)
    process.communicate()


def end_to_end(workload: str, report: dict, setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one untraced run."""
    return {
        "setup_s": median(setups),
        "wall_s": wall_of(workload, report),
        "query_mean_s": mean(query_latencies(workload, report)),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def query_latencies(workload: str, report: dict) -> list[float]:
    """The latencies of a run's point queries: constraint or window
    queries, or the execution (``started_at`` to ``finished_at``) of
    interactive jobs.  Their queue wait is left out: at a seeded Poisson
    schedule it varies with the seed by more than the bound."""
    if workload == "service-mix":
        return report["interactive_exec_s"]
    return [op["latency_s"] for op in report["ops"] if op["kind"] in ("query", "window")]


def outcome(workload: str, report: dict) -> tuple[int, list[str]]:
    """``(operations attempted, one message per failed operation)``."""
    if workload == "service-mix":
        return report["attempted"], list(report["errors"])
    return len(report["ops"]), [op["error"] for op in report["ops"] if op["error"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopped from outside: unwind, so the running worker is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    source = ROOT / "src" / "repro"
    if not (source / "__init__.py").is_file():
        print(f"perfbench: no program source at {source}", file=sys.stderr)
        return 2
    # Byte-compile once, so no set-up sample pays for it.
    compileall.compile_dir(str(source), quiet=2)

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, work)
    except (RuntimeError, InsufficientSamples) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, work: Path) -> int:
    workload, seed, seconds = args.workload, args.seed, args.seconds
    if args.trace:
        untraced = run_worker(workload, seed, seconds, "run", False, work / "untraced")
        report = run_worker(workload, seed, seconds, "run", True, work / "traced")
        problems = list(report["span_errors"])
        metrics = dict(report["layers"])
        metrics.update(report.get("jobs", dict.fromkeys(JOB_TOTALS, 0.0)))
        metrics["import_s"] = report["import_s"]
        metrics["loadgen.late_max_s"] = max(report.get("late", [0.0]))
        metrics["tracing.overhead"] = wall_of(workload, report) / wall_of(workload, untraced)
        units = dict(PER_LAYER)
        print_threads(report)
    else:
        def setup(i: int) -> float:
            return run_worker(workload, seed, seconds, "setup", False, work / f"setup{i}")["setup_s"]

        first = setup(0)
        report = run_worker(workload, seed, seconds, "run", False, work / "run")
        setups = [first, report["setup_s"]] + [setup(i) for i in range(1, SETUP_SAMPLES - 1)]
        problems = []
        metrics = end_to_end(workload, report, setups)
        units = dict(END_TO_END)
        if workload == "service-mix":
            print_service(report)
        else:
            queries = query_latencies(workload, report)
            print(f"query_p50_s: {percentile(queries, 0.5):.6g} s (n={len(queries)})")
    attempted, errors = outcome(workload, report)
    if workload == "service-mix":
        late_p90 = percentile(report["late"], 0.9)
        if late_p90 > LATE_P90_LIMIT_S:
            problems.append(
                f"INVALID run: the load generator ran late (p90 {late_p90:.3f} s"
                f" > {LATE_P90_LIMIT_S} s)"
            )
    host = report["host"]
    print(
        f"host: nproc={host['nproc']} python={host['python']} compiler={host['compiler']}"
        f" backends={','.join(report['backends']) or '-'}"
    )
    for error in errors + problems:
        print(f"FAILED: {error}")
    print(f"failed_share: {len(errors) / attempted:.4f} ({len(errors)} of {attempted})")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not errors and not problems,
                "attempted": attempted,
                "failed": len(errors),
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def print_service(report: dict) -> None:
    """The service-mix latencies beyond the gated metrics."""
    counts = report["counts"]
    print(
        f"service-mix: interactive_p50_s {report['interactive_p50_s']:.4f} s,"
        f" interactive_p90_s {report['interactive_p90_s']:.4f} s"
        f" (n={counts['interactive']}, limit {INTERACTIVE_P90_LIMIT_S} s), batch_p50_s {report['batch_p50_s']:.4f} s"
        f" (n={counts['batch']}), loadgen.late_p90_s"
        f" {percentile(report['late'], 0.9):.4f} s"
    )


def print_threads(report: dict) -> None:
    """Self time per layer on each server thread (service-mix)."""
    for thread, layers in sorted(report.get("threads", {}).items()):
        if not thread.startswith("repro-job-worker"):
            continue
        top = sorted(layers.items(), key=lambda item: -item[1])[:6]
        print(f"{thread}: " + ", ".join(f"{layer} {seconds:.3f}s" for layer, seconds in top))


if __name__ == "__main__":
    sys.exit(main())
