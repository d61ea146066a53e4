"""The ``tiered`` probe backend: ``fastcore`` until a graph's C kernel
pays for its compile, then ``cc``.

Both tiers are exact and record the same blocking data, so where the
switch falls must change nothing a run reports: fronts, witnesses,
``ExplorationStats`` (all but ``backend``) and checkpoints are the same
whether a graph is promoted at its first probe, after it, or never.
Each test runs against its own kernel cache, so "never" really never
finds a kernel on disk.
"""

from __future__ import annotations

import math
import sys
import threading
from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro.buffers.bounds import lower_bound_distribution, upper_bound_distribution
from repro.buffers.explorer import explore_design_space, minimal_distribution_for_throughput
from repro.csdf.graph import from_sdf
from repro.engine import backends, ccore
from repro.engine.backends import backend_for
from repro.exceptions import EngineError, KernelLimitError
from repro.gallery import modem_modes
from repro.gallery.registry import gallery_graph
from repro.runtime.config import ExplorationConfig
from repro.sadf import explore_design_space as explore_sadf

CC_UNAVAILABLE = ccore.availability()
pytestmark = pytest.mark.skipif(CC_UNAVAILABLE is not None, reason=str(CC_UNAVAILABLE))

#: ``_COMPILE_COST_S`` per promotion point: 0 promotes a pair at its
#: first batch, any positive cost after it (the first batch runs on
#: ``fastcore`` and charges its time), infinity never.
PROMOTION = {"first": 0.0, "second": 1e-12, "never": math.inf}


@pytest.fixture(autouse=True)
def kernel_cache(tmp_path):
    """A kernel cache of this test, and zeroed ``ccore`` counters."""
    ccore.configure(cache_dir=tmp_path / "kernels")
    ccore.reset(counters=True)
    yield tmp_path / "kernels"
    ccore.configure(cache_dir=None)
    ccore.reset(counters=True)


class TierLog:
    """Lanes each tier evaluated."""

    def __init__(self):
        self.fastcore = 0
        self.cc = 0


@pytest.fixture
def tiers(monkeypatch):
    log = TierLog()
    fastcore_batch, cc_batch = backends._fastcore_batch, backends._cc_batch

    def counted_fastcore(graph, vectors, observe, blocking):
        log.fastcore += len(vectors)
        return fastcore_batch(graph, vectors, observe, blocking)

    def counted_cc(kernel, vectors, blocking):
        log.cc += len(vectors)
        return cc_batch(kernel, vectors, blocking)

    monkeypatch.setattr(backends, "_fastcore_batch", counted_fastcore)
    monkeypatch.setattr(backends, "_cc_batch", counted_cc)
    return log


def _promote(monkeypatch, mode: str, cache_dir) -> None:
    """Promote at *mode*, starting from an empty cache of its own."""
    monkeypatch.setattr(backends, "_COMPILE_COST_S", PROMOTION[mode])
    ccore.configure(cache_dir=cache_dir / mode)
    ccore.reset(counters=True)


#: Default explorations, each of fresh graph objects (a pair's tier is
#: kept per graph object).
EXPLORATIONS = {
    "fig1": lambda config: explore_design_space(gallery_graph("example"), "c", config=config),
    "modem": lambda config: explore_design_space(gallery_graph("modem"), config=config),
    "samplerate": lambda config: explore_design_space(gallery_graph("samplerate"), config=config),
    "satellite": lambda config: explore_design_space(gallery_graph("satellite"), config=config),
    "modem-csdf-lift": lambda config: explore_design_space(
        from_sdf(gallery_graph("modem")), config=config
    ),
    "sadf-modem-modes": lambda config: explore_sadf(modem_modes(), config=config),
}


def _document(result) -> dict:
    """*result* as a document, without wall time and backend."""
    document = result.to_dict()
    document["stats"].pop("wall_time_s")
    document["stats"].pop("backend")
    return document


def _explore(case: str, checkpoint) -> tuple[dict, str, str]:
    """``(result document without wall time and backend, checkpoint
    text, backend)`` of one default exploration of *case*."""
    result = EXPLORATIONS[case](ExplorationConfig(checkpoint=checkpoint))
    assert result.complete
    document = result.to_dict()
    backend = document["stats"].pop("backend")
    document["stats"].pop("wall_time_s")
    return document, checkpoint.read_text(encoding="utf-8"), backend


@pytest.mark.parametrize("case", EXPLORATIONS)
def test_where_the_switch_falls_changes_no_result(monkeypatch, tmp_path, tiers, case):
    outcomes = {}
    for mode in ("never", "second", "first"):
        _promote(monkeypatch, mode, tmp_path)
        tiers.fastcore = tiers.cc = 0
        document, checkpoint, backend = _explore(case, tmp_path / f"{mode}.json")
        counters = dict(ccore.telemetry.counters)
        outcomes[mode] = (document, checkpoint)

        assert backend == ("reference" if case == "modem-csdf-lift" else "tiered")
        promotions = counters.get("cc_promotions", 0)
        assert counters.get("cc_compiles", 0) == promotions
        assert "cc_compile_failures" not in counters
        if case == "modem-csdf-lift":  # no compiled kernel runs CSDF
            assert (promotions, tiers.fastcore, tiers.cc) == (0, 0, 0)
        elif mode == "never":
            assert (promotions, tiers.cc) == (0, 0)
            assert tiers.fastcore == document["stats"]["evaluations"]
        elif mode == "first":
            assert promotions >= 1
            assert tiers.fastcore == 0
            assert tiers.cc == document["stats"]["evaluations"]
        else:
            # One single-probe batch per pair before its promotion.
            assert promotions >= 1
            assert tiers.fastcore == promotions
            assert tiers.fastcore + tiers.cc == document["stats"]["evaluations"]
    assert outcomes["first"] == outcomes["never"]
    assert outcomes["second"] == outcomes["never"]


def test_constraint_query_does_not_depend_on_the_switch(monkeypatch, tmp_path, tiers):
    answers = {}
    for mode in ("never", "second", "first"):
        _promote(monkeypatch, mode, tmp_path)
        events = []
        point = minimal_distribution_for_throughput(
            gallery_graph("samplerate"),
            Fraction(2, 3),
            config=ExplorationConfig(on_event=events.append),
        )
        probes = sum(event.name == "probe_start" for event in events)
        answers[mode] = (point.size, point.throughput, point.witnesses, probes)
        promotions = ccore.telemetry.counters.get("cc_promotions", 0)
        assert promotions == (0 if mode == "never" else 1)
    assert answers["first"] == answers["second"] == answers["never"]
    assert answers["never"][:2] == (38, Fraction(2, 3))


@pytest.mark.parametrize("mode", ["first", "second", "never"])
def test_workers_two_match_serial(monkeypatch, tmp_path, mode):
    """Pool workers fork with the tier state and promote on their own
    clocks; the results cannot tell."""
    _promote(monkeypatch, mode, tmp_path)
    serial = explore_design_space(gallery_graph("modem"))
    pooled = explore_design_space(gallery_graph("modem"), config=ExplorationConfig(workers=2))
    assert pooled.stats.backend == serial.stats.backend == "tiered"
    assert pooled.stats.parallel_batches > 0
    assert pooled.stats.pool_fallback_reason is None
    assert pooled.to_dict()["pareto_front"] == serial.to_dict()["pareto_front"]
    assert pooled.max_throughput == serial.max_throughput


def test_kernel_on_disk_is_used_from_the_first_probe(monkeypatch, tiers):
    graph = gallery_graph("modem")
    ccore.kernel_for(graph, graph.actor_names[-1])
    ccore.reset(counters=True)  # a new process: the disk cache stays
    monkeypatch.setattr(backends, "_COMPILE_COST_S", math.inf)
    result = explore_design_space(gallery_graph("modem"))
    assert result.stats.backend == "tiered"
    counters = ccore.telemetry.counters
    assert counters["cc_cache_hits"] == 1
    assert "cc_compiles" not in counters
    assert "cc_promotions" not in counters
    assert (tiers.fastcore, tiers.cc) == (0, result.stats.evaluations)


def test_failed_compile_keeps_the_pair_on_fastcore(monkeypatch, tiers):
    from repro.codegen import cgen

    expected = _document(
        explore_design_space(gallery_graph("modem"), config=ExplorationConfig(backend="fastcore"))
    )
    monkeypatch.setattr(backends, "_COMPILE_COST_S", 0.0)
    monkeypatch.setattr(cgen, "generate_kernel_c", lambda graph, observe: "not C at all\n")
    result = explore_design_space(gallery_graph("modem"))
    counters = ccore.telemetry.counters
    assert counters["cc_compile_failures"] == 1  # one attempt per pair
    assert "cc_compiles" not in counters
    assert "cc_promotions" not in counters
    assert tiers.cc == 0
    assert _document(result) == expected


def test_unwritable_kernel_cache_keeps_the_pair_on_fastcore(monkeypatch, tmp_path, tiers):
    """A cache directory that cannot be created (a read-only or full
    home, or none) fails the compile as a compiler error does."""
    expected = _document(
        explore_design_space(gallery_graph("modem"), config=ExplorationConfig(backend="fastcore"))
    )
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    ccore.configure(cache_dir=blocker / "kernels")
    monkeypatch.setattr(backends, "_COMPILE_COST_S", 0.0)
    result = explore_design_space(gallery_graph("modem"))
    counters = dict(ccore.telemetry.counters)
    assert result.stats.backend == "tiered"
    assert counters["cc_compile_failures"] == 1
    assert "cc_compiles" not in counters
    assert "cc_promotions" not in counters
    assert tiers.cc == 0
    assert _document(result) == expected
    with pytest.raises(EngineError, match="cannot be written"):
        backend_for("cc").evaluate_batch(gallery_graph("modem"), [{}])


def test_kernel_in_a_read_only_cache_is_used_without_a_compile(monkeypatch, tiers):
    graph = gallery_graph("modem")
    ccore.kernel_for(graph, graph.actor_names[-1])
    ccore.reset(counters=True)

    def read_only(path, *args, **kwargs):
        raise PermissionError(13, "Read-only file system", str(path))

    monkeypatch.setattr(ccore.os, "utime", read_only)
    monkeypatch.setattr(backends, "_COMPILE_COST_S", 0.0)
    result = explore_design_space(gallery_graph("modem"))
    counters = ccore.telemetry.counters
    assert counters["cc_cache_hits"] == 1
    assert "cc_compiles" not in counters
    assert "cc_compile_failures" not in counters
    assert (tiers.fastcore, tiers.cc) == (0, result.stats.evaluations)


def test_reset_drops_the_kernel_of_a_promoted_pair(monkeypatch, tiers):
    """A promoted pair keeps no handle of its own: after
    ``ccore.reset`` its next batch reloads the kernel from disk."""
    monkeypatch.setattr(backends, "_COMPILE_COST_S", 0.0)
    graph = gallery_graph("modem")
    vector = dict(upper_bound_distribution(graph))
    tiered = backend_for("tiered")
    first = tiered.evaluate_batch(graph, [vector])
    ccore.reset(counters=True)
    assert tiered.evaluate_batch(graph, [vector]) == first
    counters = ccore.telemetry.counters
    assert counters["cc_cache_hits"] == 1
    assert "cc_compiles" not in counters
    assert "cc_promotions" not in counters
    assert (tiers.fastcore, tiers.cc) == (0, 2)


def _patched_status(monkeypatch, graph, status: int):
    """Load *graph*'s kernel and make every call return *status*."""
    kernel = ccore.kernel_for(graph, graph.actor_names[-1])
    monkeypatch.setattr(kernel, "_probe", lambda *args: status)
    return kernel


@pytest.mark.parametrize(
    "status, message",
    [
        (2, "out of memory"),
        (3, "completion time exceeds"),
        (4, "cycle's firings or duration"),
        (5, "int32 record index"),
    ],
)
def test_kernel_resource_limits_rerun_on_fastcore(monkeypatch, status, message):
    graph = gallery_graph("modem")
    _patched_status(monkeypatch, graph, status)
    vectors = [dict(lower_bound_distribution(graph)), dict(upper_bound_distribution(graph))]
    expected = backend_for("fastcore").evaluate_batch(graph, vectors, blocking=True)
    assert backend_for("tiered").evaluate_batch(graph, vectors, blocking=True) == expected
    with pytest.raises(KernelLimitError, match=message):
        backend_for("cc").evaluate_batch(graph, vectors)


def test_diverging_cascade_raises_on_both_compiled_backends(monkeypatch):
    graph = gallery_graph("modem")
    _patched_status(monkeypatch, graph, 1)
    vector = {name: 100 for name in graph.channel_names}
    for name in ("cc", "tiered"):
        with pytest.raises(EngineError, match="firings in one time instant") as raised:
            backend_for(name).evaluate_batch(graph, [vector])
        assert not isinstance(raised.value, KernelLimitError)


def test_threads_lose_no_charge_and_promote_once(monkeypatch):
    """Service jobs probe one graph from several threads.  Each batch
    is charged exactly one second by a per-thread fake clock, so a lost
    read-modify-write shows as a short total; racing promotions must
    still compile and count once."""
    ticks = threading.local()

    def perf_counter():
        ticks.now = getattr(ticks, "now", -1) + 1
        return float(ticks.now)

    monkeypatch.setattr(backends, "time", SimpleNamespace(perf_counter=perf_counter))
    graph = gallery_graph("modem")
    observe = graph.actor_names[-1]
    vector = dict(upper_bound_distribution(graph))
    expected = backend_for("fastcore").evaluate_batch(graph, [vector])
    threads, batches = 6, 40
    results, errors = [], []

    def probe():
        try:
            for _ in range(batches):
                results.append(backend_for("tiered").evaluate_batch(graph, [vector]))
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    def run_all():
        workers = [threading.Thread(target=probe) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not errors, errors

    monkeypatch.setattr(backends, "_COMPILE_COST_S", math.inf)
    run_all()
    assert backends._tiers_of(graph)[observe] == float(threads * batches)

    monkeypatch.setattr(backends, "_COMPILE_COST_S", float(threads * batches + 1))
    run_all()
    counters = ccore.telemetry.counters
    assert (counters["cc_promotions"], counters["cc_compiles"]) == (1, 1)
    assert backends._tiers_of(graph)[observe] is backends._ON_C
    assert all(result == expected for result in results)
