"""Compile plane of the ``cc`` backend: one kernel for every graph,
caching, eviction, recovery, compiler discovery and graceful
degradation.

Everything runs against a per-test cache directory (autouse fixture),
so these tests never touch — or depend on — the user's real kernel
cache, and counters always start from zero.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.buffers.bounds import lower_bound_distribution, upper_bound_distribution
from repro.engine import ccore
from repro.engine.backends import backend_for, resolve_backend
from repro.exceptions import ConfigError, EngineError
from repro.gallery import fig1_example, modem, random_consistent_graph
from repro.gallery.registry import gallery_graph, gallery_names

SRC = str(Path(__file__).resolve().parents[2] / "src")

HAVE_CC = ccore.compiler_probe()[0] is not None
needs_cc = pytest.mark.skipif(
    not HAVE_CC, reason=f"no C compiler: {ccore.compiler_probe()[1]}"
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path):
    """Point the kernel cache at a throwaway directory and zero the
    counters; restore the module's default state afterwards."""
    ccore.configure(cache_dir=tmp_path / "kernels")
    ccore.reset(counters=True)
    yield tmp_path / "kernels"
    ccore.configure(cache_dir=None, max_bytes=None)
    ccore.reset(counters=True)


def probe(graph, capacities):
    backend = backend_for("cc")
    return backend.evaluate_batch(graph, [capacities], None)[0]


# ---------------------------------------------------------------------------
# Caching
# ---------------------------------------------------------------------------


@needs_cc
def test_second_run_is_all_cache_hits():
    """The acceptance criterion: a repeated run compiles nothing."""
    graph = fig1_example()
    first = probe(graph, {"alpha": 4, "beta": 2})
    assert ccore.telemetry.counters["cc_compiles"] == 1
    assert "cc_cache_hits" not in ccore.telemetry.counters

    # Drop the in-process handles (as a new process would) but keep the
    # disk cache and counters.
    ccore.reset()
    second = probe(fig1_example(), {"alpha": 4, "beta": 2})
    assert second == first
    assert ccore.telemetry.counters["cc_compiles"] == 1  # unchanged
    assert ccore.telemetry.counters["cc_cache_hits"] == 1


@needs_cc
def test_in_process_handle_cache_skips_disk():
    graph = fig1_example()
    probe(graph, {"alpha": 4, "beta": 2})
    probe(graph, {"alpha": 5, "beta": 3})
    counters = ccore.telemetry.counters
    assert counters["cc_compiles"] == 1
    assert "cc_cache_hits" not in counters  # second probe reused the handle


def test_cache_key_covers_source_compiler_and_flags(monkeypatch):
    base = ccore.cache_key("/usr/bin/cc")
    assert ccore.cache_key("/usr/bin/cc") == base  # content-addressed
    assert ccore.cache_key("/usr/bin/clang") != base
    monkeypatch.setattr(ccore, "SOURCE", ccore.SOURCE + "/* another version */\n")
    assert ccore.cache_key("/usr/bin/cc") != base
    monkeypatch.undo()
    monkeypatch.setattr(ccore, "_CFLAGS", ("-O3", "-fPIC", "-shared"))
    assert ccore.cache_key("/usr/bin/cc") != base


@needs_cc
def test_one_compile_serves_every_graph(isolated_cache):
    """Every gallery SDF graph and the conformance suite's random graphs
    probe on the one kernel: one build, one shared object."""
    graphs = [gallery_graph(name) for name in gallery_names() if name != "h263"]
    graphs += [
        random_consistent_graph(
            random.Random(seed), max_actors=4, max_repetition=3, max_rate_factor=1
        )
        for seed in (7, 23, 2006)
    ]
    for graph in graphs:
        vectors = [dict(lower_bound_distribution(graph)), dict(upper_bound_distribution(graph))]
        assert backend_for("cc").evaluate_batch(
            graph, vectors, blocking=True
        ) == backend_for("fastcore").evaluate_batch(graph, vectors, blocking=True), graph.name
    assert dict(ccore.telemetry.counters) == {"cc_compiles": 1}
    assert len(list(isolated_cache.glob("*.so"))) == 1


@needs_cc
def test_default_exploration_imports_no_io_or_codegen(tmp_path):
    """Binding a graph to the kernel needs no graph fingerprint: a
    default exploration (fresh interpreter, cold kernel cache) loads
    neither ``repro.io`` nor ``repro.codegen``."""
    code = (
        "import sys\n"
        "from repro.buffers.explorer import explore_design_space\n"
        "from repro.gallery import modem\n"
        "print(explore_design_space(modem()).stats.backend)\n"
        "print(sorted(name for name in ('repro.io', 'repro.codegen') if name in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_CACHE_DIR=str(tmp_path))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.split("\n")[:2] == ["cc", "[]"]
    assert len(list((tmp_path / "cc-kernels").glob("*.so"))) == 1


@needs_cc
def test_threads_probe_graphs_of_different_shapes_at_once():
    """The kernel keeps no globals: threads sharing the one library each
    probe their own graph, and every answer matches the reference."""
    graphs = [fig1_example(), modem(), gallery_graph("samplerate"), gallery_graph("bipartite")]
    waves = {
        graph.name: [dict(lower_bound_distribution(graph)), dict(upper_bound_distribution(graph))]
        for graph in graphs
    }
    expected = {
        graph.name: backend_for("reference").evaluate_batch(graph, waves[graph.name])
        for graph in graphs
    }
    errors = []

    def probe_often(graph):
        try:
            for _ in range(40):
                got = backend_for("cc").evaluate_batch(graph, waves[graph.name], blocking=True)
                assert got == expected[graph.name], graph.name
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    workers = [threading.Thread(target=probe_often, args=(graph,)) for graph in graphs * 2]
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
    assert dict(ccore.telemetry.counters) == {"cc_compiles": 1}


@needs_cc
def test_cache_dir_resolution(monkeypatch, tmp_path):
    # configure() override wins over everything.
    assert ccore.cache_dir() == tmp_path / "kernels"
    ccore.configure(cache_dir=None)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    assert ccore.cache_dir() == tmp_path / "env" / "cc-kernels"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert ccore.cache_dir() == tmp_path / "xdg" / "repro" / "cc-kernels"


# ---------------------------------------------------------------------------
# Hygiene: eviction + corrupt-entry recovery
# ---------------------------------------------------------------------------


@needs_cc
def test_lru_eviction_is_size_bounded(isolated_cache):
    probe(fig1_example(), {"alpha": 4, "beta": 2})
    so = next(isolated_cache.glob("*.so"))
    pair_size = so.stat().st_size + so.with_suffix(".c").stat().st_size
    # Room for roughly one pair: building the kernel of another source
    # or compiler must evict the oldest entry (LRU), never the entry
    # just stored.
    cache = ccore.KernelCache(isolated_cache, pair_size + 1024)
    os.utime(so, (1, 1))  # make the first entry unambiguously oldest
    cache.store("other", ccore.SOURCE + "/* another version */\n", ccore._find_compiler()[0])
    assert ccore.telemetry.counters["cc_cache_evictions"] == 1
    assert not so.exists()
    assert [path.name for path in isolated_cache.glob("*.so")] == ["other.so"]


@needs_cc
def test_corrupt_cache_entry_recovers(isolated_cache):
    """A truncated/garbage shared object (as a crashed writer or disk
    fault would leave behind) is dropped and recompiled, not fatal."""
    graph = fig1_example()
    key = ccore.cache_key(ccore._find_compiler()[0])
    isolated_cache.mkdir(parents=True)
    (isolated_cache / f"{key}.so").write_bytes(b"\x7fELF not really")
    result = probe(graph, {"alpha": 4, "beta": 2})
    assert str(result.throughput) == "1/7"
    counters = ccore.telemetry.counters
    assert counters["cc_cache_corrupt"] == 1
    assert counters["cc_cache_hits"] == 1  # the lookup that found garbage
    assert counters["cc_compiles"] == 1  # the recovery compile


@needs_cc
def test_foreign_binary_entry_recovers(isolated_cache):
    """A *valid* shared object of another kernel ABI under the key (a
    botched sync, an edited source) fails the ABI handshake and is
    rebuilt."""
    compiler = ccore._find_compiler()[0]
    stale = ccore.SOURCE.replace(
        f"#define KERNEL_ABI {ccore.KERNEL_ABI}", f"#define KERNEL_ABI {ccore.KERNEL_ABI - 1}"
    )
    assert stale != ccore.SOURCE
    ccore.KernelCache(isolated_cache, ccore.cache_limit_bytes()).store(
        ccore.cache_key(compiler), stale, compiler
    )
    ccore.reset(counters=True)
    graph = fig1_example()
    result = probe(graph, {"alpha": 4, "beta": 2})
    assert str(result.throughput) == "1/7"
    counters = ccore.telemetry.counters
    assert counters["cc_cache_corrupt"] == 1
    assert counters["cc_compiles"] == 1


# ---------------------------------------------------------------------------
# Kernel limits: typed errors, never a wrapped number
# ---------------------------------------------------------------------------


def _self_loop(execution_time):
    """One actor re-firing itself: completion times grow by
    *execution_time* per firing."""
    from repro.graph.builder import GraphBuilder

    return (
        GraphBuilder("huge-times")
        .actors({"a": execution_time})
        .channel("a", "a", 1, 1, initial_tokens=1, name="loop")
        .build()
    )


@needs_cc
def test_completion_time_overflow_raises_typed_error():
    """Execution times near 2**62: the second start's completion time
    no longer fits an int64, and the kernel says so."""
    with pytest.raises(EngineError, match="completion time exceeds"):
        probe(_self_loop(2**62), {"loop": 2})
    # Half that still fits, and the kernel agrees with the reference.
    graph = _self_loop(2**61)
    assert probe(graph, {"loop": 2}) == backend_for("reference").evaluate_batch(
        graph, [{"loop": 2}], None
    )[0]._replace(space_blocked=None, space_deficits=None)


@needs_cc
def test_state_set_limit_raises_typed_error(isolated_cache):
    """The visited set refuses records past its int32 index.  The limit
    is 2**29 records; a kernel built with a limit of 4 shows the path
    on a distribution whose periodic phase needs 17 records."""
    graph = modem()
    limit = "#define MAX_RECORDS (1 << 29)"
    assert limit in ccore.SOURCE
    cache = ccore.KernelCache(isolated_cache, ccore.cache_limit_bytes())
    path = cache.store(
        "limit4", ccore.SOURCE.replace(limit, "#define MAX_RECORDS 4"), ccore._find_compiler()[0]
    )
    kernel = ccore.CompiledKernel(graph, graph.actor_names[-1], ccore._bind(path))
    lower = lower_bound_distribution(graph)
    row = [lower[name] for name in graph.channel_names]
    with pytest.raises(EngineError, match="int32 record index"):
        kernel.run_lanes([row], stall_threshold=50_000, max_firings=1_000_000)


# ---------------------------------------------------------------------------
# Degradation without a compiler
# ---------------------------------------------------------------------------


@pytest.fixture
def broken_cc(monkeypatch):
    """A host whose $CC resolves but cannot compile anything."""
    monkeypatch.setenv("CC", "/bin/false")
    ccore.reset()
    yield
    ccore.reset()


def test_broken_cc_reports_unavailable(broken_cc):
    reason = ccore.availability()
    assert reason is not None
    assert "/bin/false" in reason
    assert ccore.telemetry.counters["cc_compile_failures"] == 1


def test_auto_falls_back_when_cc_broken(broken_cc):
    assert resolve_backend("auto") == "fastcore"


def test_explicit_cc_raises_actionable_error(broken_cc):
    from repro.runtime.config import ExplorationConfig

    with pytest.raises(ConfigError, match="unavailable"):
        ExplorationConfig(backend="cc")
    with pytest.raises(ConfigError, match="'cc' is unavailable"):
        resolve_backend("cc")


def test_broken_cc_exploration_still_completes(broken_cc):
    """backend='auto' explorations finish on fastcore with the failure
    visible only in telemetry."""
    from repro.buffers.explorer import explore_design_space
    from repro.runtime.config import ExplorationConfig

    result = explore_design_space(fig1_example(), "c", config=ExplorationConfig(backend="auto"))
    assert result.stats.backend == "fastcore"
    assert [(p.size, str(p.throughput)) for p in result.front] == [
        (6, "1/7"),
        (8, "1/6"),
        (9, "1/5"),
        (10, "1/4"),
    ]
    assert ccore.telemetry.counters["cc_compile_failures"] == 1


def test_missing_compiler_reason_names_candidates(monkeypatch):
    monkeypatch.setenv("CC", "definitely-not-a-compiler-xyz")
    ccore.reset()
    reason = ccore.availability()
    assert "not on PATH" in reason
    ccore.reset()


# ---------------------------------------------------------------------------
# Resolution with a working compiler
# ---------------------------------------------------------------------------


@needs_cc
def test_auto_prefers_cc():
    assert resolve_backend("auto") == "cc"
    # Explicit names resolve to themselves.
    assert resolve_backend("reference") == "reference"
    assert resolve_backend("fastcore") == "fastcore"
