"""The default backend: ``auto`` resolves to ``cc`` wherever the C probe
kernel loads or builds, and to ``fastcore`` elsewhere.

Both are exact and record the same blocking data, so which one a host
gets changes nothing a run reports: fronts, witnesses,
``ExplorationStats`` (all but ``backend``) and checkpoints are the
same.  Under ``auto`` a batch that hits one of the C kernel's resource
limits reruns on ``fastcore``, and one past ``fastcore``'s limits on
``reference``, inline and in pool workers alike; explicit ``cc`` and
``fastcore`` raise :class:`~repro.exceptions.KernelLimitError`.
Each test runs against its own kernel cache.
"""

from __future__ import annotations

import subprocess
from fractions import Fraction

import pytest

from repro.buffers.bounds import lower_bound_distribution, upper_bound_distribution
from repro.buffers.distribution import StorageDistribution
from repro.buffers.evalcache import EvaluationService
from repro.buffers.explorer import explore_design_space, minimal_distribution_for_throughput
from repro.csdf.graph import from_sdf
from repro.engine import ccore
from repro.engine.backends import backend_for, backend_names, resolve_backend
from repro.engine.executor import Executor
from repro.exceptions import ConfigError, EngineError, KernelLimitError
from repro.gallery import modem_modes
from repro.gallery.registry import gallery_graph
from repro.graph.graph import SDFGraph
from repro.runtime.config import ExplorationConfig
from repro.sadf import explore_design_space as explore_sadf

CC_UNAVAILABLE = ccore.availability()
pytestmark = pytest.mark.skipif(CC_UNAVAILABLE is not None, reason=str(CC_UNAVAILABLE))


@pytest.fixture(autouse=True)
def kernel_cache(tmp_path):
    """A kernel cache of this test, and zeroed ``ccore`` counters."""
    ccore.configure(cache_dir=tmp_path / "kernels")
    ccore.reset(counters=True)
    yield tmp_path / "kernels"
    ccore.configure(cache_dir=None)
    ccore.reset(counters=True)


#: Default explorations, each of fresh graph objects.
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


def _explore(case: str, config: ExplorationConfig) -> tuple[dict, str]:
    """``(result document without wall time and backend, backend)``."""
    result = EXPLORATIONS[case](config)
    assert result.complete
    document = result.to_dict()
    backend = document["stats"].pop("backend")
    document["stats"].pop("wall_time_s")
    return document, backend


@pytest.mark.parametrize("case", EXPLORATIONS)
def test_default_backend_changes_no_result(tmp_path, case):
    outcomes = {}
    for name in ("fastcore", "auto"):
        checkpoint = tmp_path / f"{name}.json"
        document, backend = _explore(
            case, ExplorationConfig(backend=name, checkpoint=checkpoint)
        )
        outcomes[name] = (document, checkpoint.read_text(encoding="utf-8"))
        if case == "modem-csdf-lift":  # no compiled kernel runs CSDF
            assert backend == "reference"
        else:
            assert backend == ("cc" if name == "auto" else name)
    assert outcomes["auto"] == outcomes["fastcore"]
    # A CSDF exploration never resolves "auto": no kernel is built.
    built = {} if case == "modem-csdf-lift" else {"cc_compiles": 1}
    assert dict(ccore.telemetry.counters) == built


def test_constraint_query_does_not_depend_on_the_backend():
    answers = {}
    for name in ("fastcore", "auto"):
        events = []
        point = minimal_distribution_for_throughput(
            gallery_graph("samplerate"),
            Fraction(2, 3),
            config=ExplorationConfig(backend=name, on_event=events.append),
        )
        probes = sum(event.name == "probe_start" for event in events)
        answers[name] = (point.size, point.throughput, point.witnesses, probes)
    assert answers["auto"] == answers["fastcore"]
    assert answers["auto"][:2] == (38, Fraction(2, 3))


@pytest.mark.parametrize("backend", ["auto", "cc", "fastcore"])
def test_workers_two_match_serial(backend):
    """Pool workers resolve the backend and load its kernel on their
    own; the results cannot tell."""
    config = ExplorationConfig(backend=backend)
    serial = explore_design_space(gallery_graph("modem"), config=config)
    pooled = explore_design_space(gallery_graph("modem"), config=config.replaced(workers=2))
    assert pooled.stats.backend == serial.stats.backend == ("cc" if backend == "auto" else backend)
    assert pooled.stats.parallel_batches > 0
    assert pooled.stats.pool_fallback_reason is None
    assert pooled.to_dict()["pareto_front"] == serial.to_dict()["pareto_front"]
    assert pooled.max_throughput == serial.max_throughput


def test_cached_kernel_runs_no_compiler(monkeypatch):
    """With the kernel in the cache, ``auto`` resolves to ``cc`` and a
    probe matches ``reference`` although no process can be started: no
    compiler runs, not even a trial compile."""
    graph = gallery_graph("modem")
    ccore.kernel_for(graph)
    ccore.reset(counters=True)  # a new process: the disk cache stays

    def no_process(*args, **kwargs):
        raise AssertionError("a subprocess was started")

    monkeypatch.setattr(subprocess, "run", no_process)
    assert resolve_backend("auto") == "cc"
    vectors = [dict(lower_bound_distribution(graph)), dict(upper_bound_distribution(graph))]
    assert backend_for("cc").evaluate_batch(
        graph, vectors, blocking=True
    ) == backend_for("reference").evaluate_batch(graph, vectors)
    result = explore_design_space(gallery_graph("modem"))
    assert result.stats.backend == "cc"
    assert dict(ccore.telemetry.counters) == {"cc_cache_hits": 1}


def _document(result) -> dict:
    """*result* as a document, without wall time and backend."""
    document = result.to_dict()
    document["stats"].pop("wall_time_s")
    document["stats"].pop("backend")
    return document


def test_failed_build_leaves_auto_on_fastcore(monkeypatch):
    expected = _document(
        explore_design_space(gallery_graph("modem"), config=ExplorationConfig(backend="fastcore"))
    )
    monkeypatch.setattr(ccore, "SOURCE", "not C at all\n")
    result = explore_design_space(gallery_graph("modem"))
    assert result.stats.backend == "fastcore"
    counters = dict(ccore.telemetry.counters)
    assert counters == {"cc_compile_failures": 1}  # one attempt per process
    assert _document(result) == expected
    with pytest.raises(ConfigError, match="cannot build the probe kernel"):
        ExplorationConfig(backend="cc")


def test_unwritable_kernel_cache_leaves_auto_on_fastcore(tmp_path):
    """A cache directory that cannot be created (a read-only or full
    home, or none) fails the build as a compiler error does."""
    expected = _document(
        explore_design_space(gallery_graph("modem"), config=ExplorationConfig(backend="fastcore"))
    )
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    ccore.configure(cache_dir=blocker / "kernels")
    result = explore_design_space(gallery_graph("modem"))
    assert result.stats.backend == "fastcore"
    assert dict(ccore.telemetry.counters) == {"cc_compile_failures": 1}
    assert _document(result) == expected
    with pytest.raises(ConfigError, match="cannot be written"):
        ExplorationConfig(backend="cc")
    with pytest.raises(ConfigError, match="cannot be written"):
        backend_for("cc").evaluate_batch(gallery_graph("modem"), [{}])


def test_kernel_in_a_read_only_cache_is_used_without_a_compile(monkeypatch):
    graph = gallery_graph("modem")
    ccore.kernel_for(graph)
    ccore.reset(counters=True)

    def read_only(path, *args, **kwargs):
        raise PermissionError(13, "Read-only file system", str(path))

    monkeypatch.setattr(ccore.os, "utime", read_only)
    result = explore_design_space(gallery_graph("modem"))
    assert result.stats.backend == "cc"
    assert dict(ccore.telemetry.counters) == {"cc_cache_hits": 1}


def test_server_builds_the_kernel_before_its_first_job():
    """``repro serve`` resolves ``auto`` while it starts, so a cold
    kernel cache is paid before the first request, not inside a job."""
    from repro.io.jsonio import graph_to_dict
    from repro.service.client import ServiceClient
    from repro.service.server import AnalysisServer

    with AnalysisServer(workers=1) as server:
        assert dict(ccore.telemetry.counters) == {"cc_compiles": 1}
        client = ServiceClient(server.url)
        job = client.submit_job(
            graph_to_dict(gallery_graph("example")), kind="dse", observe="c", params={}
        )
        done = client.wait(job["id"])
        assert done["state"] == "done"
        assert done["result"]["stats"]["backend"] == "cc"
    assert dict(ccore.telemetry.counters) == {"cc_compiles": 1}


# -- kernel limits ----------------------------------------------------------


def _patched_status(monkeypatch, graph, status: int):
    """Bind *graph*'s kernel and make every call return *status*.  Pool
    workers fork with the patched binding."""
    kernel = ccore.kernel_for(graph, graph.actor_names[-1])
    monkeypatch.setattr(kernel, "_probe", lambda *args: status)
    return kernel


def _fields(results) -> list[tuple]:
    return [
        (r.throughput, r.states_stored, r.space_blocked, r.space_deficits) for r in results
    ]


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
    lower = lower_bound_distribution(graph)
    batch = [
        StorageDistribution({**lower, name: lower[name] + 1}) for name in graph.channel_names[:4]
    ]
    fastcore = backend_for("fastcore")
    for workers in (1, 2):
        service = EvaluationService(graph, config=ExplorationConfig(workers=workers))
        try:
            assert service.backend_name == "cc"
            plain = service.evaluate_many(batch[:2])
            blocking = service.evaluate_blocking_many(batch[2:])
            assert service.stats.parallel_batches == (2 if workers == 2 else 0)
        finally:
            service.close()
        assert plain == [r.throughput for r in fastcore.evaluate_batch(graph, batch[:2])]
        assert _fields(blocking) == _fields(
            fastcore.evaluate_batch(graph, batch[2:], blocking=True)
        )
    with pytest.raises(KernelLimitError, match=message):
        backend_for("cc").evaluate_batch(graph, batch)
    for workers in (1, 2):
        service = EvaluationService(graph, config=ExplorationConfig(backend="cc", workers=workers))
        try:
            with pytest.raises(KernelLimitError, match=message):
                service.evaluate_many(batch[:2])
        finally:
            service.close()


def test_diverging_cascade_is_no_kernel_limit(monkeypatch):
    """A diverging zero-time cascade diverges on every backend: ``auto``
    reruns nothing and raises as explicit ``cc`` does."""
    graph = gallery_graph("modem")
    _patched_status(monkeypatch, graph, 1)
    vector = StorageDistribution({name: 100 for name in graph.channel_names})
    for name in ("cc", "auto"):
        service = EvaluationService(graph, config=ExplorationConfig(backend=name))
        with pytest.raises(EngineError, match="firings in one time instant") as raised:
            service(vector)
        assert not isinstance(raised.value, KernelLimitError)


# -- values beyond int64 ------------------------------------------------------


def _self_loop(execution_time: int) -> SDFGraph:
    """Actor ``a`` on a self-loop ``loop`` holding one token."""
    graph = SDFGraph("loop")
    graph.add_actor("a", execution_time)
    graph.add_channel("a", "a", 1, 1, 1, name="loop")
    return graph


def test_capacities_beyond_int64_are_exact():
    """The C kernel packs capacities into ``int64``; one that high
    behaves as unbounded, so every backend answers the throughput."""
    graph = _self_loop(3)
    for capacity in (2**63, 2**64):
        vector = StorageDistribution({"loop": capacity})
        for name in (*backend_names(), "auto"):
            service = EvaluationService(graph, "a", config=ExplorationConfig(backend=name))
            assert service(vector) == Fraction(1, 3), (name, capacity)
            assert service.evaluate_blocking(vector).throughput == Fraction(1, 3), (name, capacity)


def test_execution_times_beyond_int64_raise_kernel_limits():
    """Neither kernel holds an execution time of ``2**63``: ``cc``
    refuses the graph's tables and ``fastcore`` its state key, so
    ``auto`` reruns the batch on the reference executor, which answers."""
    graph = _self_loop(2**63)
    vector = StorageDistribution({"loop": 2})
    assert Executor(graph, vector).run().throughput == Fraction(1, 2**63)
    for name in ("cc", "fastcore"):
        with pytest.raises(KernelLimitError):
            backend_for(name).evaluate_batch(graph, [vector])
        with pytest.raises(KernelLimitError):
            EvaluationService(graph, "a", config=ExplorationConfig(backend=name))(vector)
    assert EvaluationService(graph, "a")(vector) == Fraction(1, 2**63)


@pytest.mark.parametrize("workers", [1, 2])
def test_auto_on_fastcore_reruns_kernel_limits_on_reference(monkeypatch, workers):
    """Where ``auto`` resolves to ``fastcore`` (no kernel builds), a
    batch past ``fastcore``'s limits reruns on ``reference``, inline and
    in pool workers."""
    monkeypatch.setattr(ccore, "SOURCE", "not C at all\n")
    graph = _self_loop(2**63)
    vectors = [StorageDistribution({"loop": capacity}) for capacity in (2, 3)]
    service = EvaluationService(graph, "a", config=ExplorationConfig(workers=workers))
    try:
        assert service.backend_name == "fastcore"
        assert service.evaluate_many(vectors) == [Fraction(1, 2**63)] * 2
        assert service.stats.parallel_batches == (1 if workers == 2 else 0)
    finally:
        service.close()


def test_throughput_job_beyond_int64_is_exact():
    from repro.io.jsonio import graph_to_dict
    from repro.service.client import ServiceClient
    from repro.service.server import AnalysisServer

    with AnalysisServer(workers=1) as server:
        client = ServiceClient(server.url)
        job = client.submit_job(
            graph_to_dict(_self_loop(3)),
            kind="throughput",
            observe="a",
            params={"capacities": {"loop": 2**64}},
        )
        done = client.wait(job["id"])
    assert done["state"] == "done"
    assert done["result"]["throughput"] == "1/3"
