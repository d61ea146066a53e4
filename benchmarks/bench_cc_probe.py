"""Compiled C probe backend: probe-throughput benchmark (PR 7).

Feeds the ``reference`` and compiled ``cc`` backends the same 128-lane
waves of capacity vectors — the enumeration slices a
divide-and-conquer exploration of each case study actually scans — and
measures probe throughput, asserting all backends return bit-identical
``EvalResult``s lane for lane.  The acceptance target is a >= 20x
speedup of the ``cc`` backend over the instrumented ``reference``
executor on *both* heavyweight BML99 case studies (modem and satellite
receiver); ``fig1`` and ``samplerate`` ride along for context.

Compile time is kept out of the timed region on purpose (the wave is
warmed first): one kernel serves every graph and is built once per
host into the kernel cache, while probe waves recur thousands of times
per exploration.  The report still records the one-off build
separately (``compile_seconds``, the first kernel lookup of the run:
a build in an empty cache, a load in a warm one) and the per-graph
cost of binding a graph's tables (``bind_seconds``), so the trade is
visible.

Run standalone, with an empty kernel cache, to emit ``BENCH_cc.json``::

    REPRO_CACHE_DIR=$(mktemp -d) PYTHONPATH=src \
        python benchmarks/bench_cc_probe.py --repeats 3

or through pytest for a one-repeat correctness smoke::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_cc_probe.py

The EvalResults are deterministic; only the wall-clock figures move
between runs, so the CI gate (``benchmarks/check_cc_baseline.py``)
re-measures the speedup ratio instead of comparing recorded times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from itertools import islice
from pathlib import Path

from repro.buffers.bounds import lower_bound_distribution, upper_bound_distribution
from repro.buffers.enumerate import distributions_of_size
from repro.engine import ccore
from repro.engine.backends import backend_for
from repro.gallery import (
    fig1_example,
    modem,
    sample_rate_converter,
    satellite_receiver,
)

GALLERY = {
    "fig1": fig1_example,
    "modem": modem,
    "samplerate": sample_rate_converter,
    "satellite": satellite_receiver,
}

#: Backends timed against each other (registration names).
BACKENDS = ("reference", "cc")

#: Lanes per workload: wide enough to amortise the kernel's per-call
#: setup, small enough to keep the reference loop tolerable.
_WAVE_LANES = 128

#: The graphs the >= 20x cc speedup target applies to (both must hit).
TARGET_GRAPHS = ("modem", "satellite")

_SPEEDUP_TARGET = 20.0


def workload_wave(name: str, lanes: int = _WAVE_LANES) -> list[dict]:
    """The capacity vectors an exploration of *name* scans.

    Walks the enumeration slices from the lower-bound corner upward —
    exactly the candidates ``divide_and_conquer`` feeds the service —
    until *lanes* vectors are collected.
    """
    graph = GALLERY[name]()
    lower = lower_bound_distribution(graph)
    upper = upper_bound_distribution(graph)
    vectors: list[dict] = []
    size = lower.size
    while len(vectors) < lanes and size <= upper.size:
        slice_ = distributions_of_size(graph.channel_names, size, lower, upper)
        vectors.extend(dict(d) for d in islice(slice_, lanes - len(vectors)))
        size += 1
    return vectors


def thin(results):
    return [(str(r.throughput), r.states_stored, r.deadlocked) for r in results]


def bench_graph(name: str, repeats: int) -> dict:
    graph = GALLERY[name]()
    wave = workload_wave(name)
    entry: dict = {"lanes": len(wave), "backends": {}}

    # Binding the graph's tables to the kernel, measured separately so
    # the timed region below sees the steady state every real
    # exploration runs in.
    started = time.perf_counter()
    ccore.kernel_for(graph, None)
    entry["bind_seconds"] = time.perf_counter() - started

    expected = None
    for backend_name in BACKENDS:
        backend = backend_for(backend_name)
        backend.evaluate_batch(graph, wave[:2], None)  # warm per-graph caches
        times = []
        for _ in range(max(1, repeats)):
            started = time.perf_counter()
            results = backend.evaluate_batch(graph, wave, None)
            times.append(time.perf_counter() - started)
            fingerprint = thin(results)
            if expected is None:
                expected = fingerprint
            # correctness gate on every run, not just the first
            assert fingerprint == expected, (name, backend_name)
        seconds = statistics.median(times)
        entry["backends"][backend_name] = {
            "seconds": seconds,
            "probes_per_second": len(wave) / seconds if seconds else 0.0,
        }

    reference = entry["backends"]["reference"]["seconds"]
    for stats in entry["backends"].values():
        stats["speedup_vs_reference"] = (
            reference / stats["seconds"] if stats["seconds"] else 0.0
        )
    entry["cc_speedup"] = entry["backends"]["cc"]["speedup_vs_reference"]
    return entry


def run_benchmark(repeats: int, compile_seconds: float) -> dict:
    graphs = {name: bench_graph(name, repeats) for name in GALLERY}
    return {
        "repeats": repeats,
        "compile_seconds": compile_seconds,
        "speedup_target": _SPEEDUP_TARGET,
        "target_graphs": list(TARGET_GRAPHS),
        "graphs": graphs,
        "cc_speedups": {name: graphs[name]["cc_speedup"] for name in TARGET_GRAPHS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (median)")
    parser.add_argument(
        "--output", default="BENCH_cc.json", help="where to write the JSON report"
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="skip the >= 20x speedup gate (smoke runs)",
    )
    arguments = parser.parse_args(argv)

    started = time.perf_counter()
    reason = ccore.availability()  # builds or loads the one kernel
    compile_seconds = time.perf_counter() - started
    if reason is not None:
        print(f"SKIP: cc backend unavailable — {reason}", file=sys.stderr)
        return 0

    report = run_benchmark(arguments.repeats, compile_seconds)
    Path(arguments.output).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    for name, entry in report["graphs"].items():
        row = [f"{name:12s} {entry['lanes']:4d} lanes"]
        for backend_name, stats in entry["backends"].items():
            row.append(
                f"{backend_name} {stats['probes_per_second']:10.1f}/s"
                f" ({stats['speedup_vs_reference']:6.1f}x)"
            )
        row.append(f"bind {entry['bind_seconds'] * 1000:.2f}ms")
        print("  ".join(row))
    print(f"kernel build or load: {report['compile_seconds']:.2f}s")
    failed = [
        name
        for name, speedup in report["cc_speedups"].items()
        if speedup < _SPEEDUP_TARGET
    ]
    for name, speedup in report["cc_speedups"].items():
        print(f"cc speedup on {name}: {speedup:.1f}x (target {_SPEEDUP_TARGET:.0f}x)")
    print(f"report written to {arguments.output}")
    if not arguments.no_check and failed:
        print(
            f"FAIL: cc speedup below target on {', '.join(failed)}", file=sys.stderr
        )
        return 1
    return 0


# -- pytest smoke entry points (collected only when named explicitly) ----

import pytest

pytestmark = pytest.mark.bench


@pytest.fixture
def cc_kernel():
    """Skip without the cc kernel.  A fixture, not an import-time check,
    so a standalone run times the kernel's build in ``main``."""
    reason = ccore.availability()
    if reason is not None:
        pytest.skip(f"cc unavailable: {reason}")


def test_cc_agrees_on_modem_wave(cc_kernel):
    entry = bench_graph("modem", repeats=1)
    # bench_graph asserts lane-for-lane agreement internally; the smoke
    # additionally checks every timed backend actually ran the wave.
    assert set(entry["backends"]) == set(BACKENDS)
    assert entry["lanes"] > 0


def test_cc_beats_reference_smoke(cc_kernel):
    entry = bench_graph("modem", repeats=1)
    # The full 20x gate runs standalone / in CI where timing is stable;
    # the smoke only requires a decisive win so it stays noise-proof.
    assert entry["cc_speedup"] > 5.0


if __name__ == "__main__":
    sys.exit(main())
