"""Every evaluation-service probe enters through a probe backend.

The service runs a simulation only as a ``ProbeBackend.evaluate_batch``
call: the lanes the registered backends evaluate add up to the run's
``evaluations``, and the reference executors — SDF and CSDF — run only
inside the reference backend, blocking-aware probes included.  On a
backend that collects blocking data itself (``fastcore``, ``cc``), an
SDF exploration never enters the reference executor at all.
"""

import pytest

from repro.buffers.explorer import explore_design_space
from repro.csdf.executor import CSDFExecutor
from repro.csdf.graph import from_sdf
from repro.engine import backends, ccore
from repro.engine.executor import Executor
from repro.gallery import modem_modes
from repro.gallery.registry import gallery_graph
from repro.runtime.config import ExplorationConfig
from repro.sadf import explore_design_space as explore_sadf


class ProbeLog:
    """Lanes evaluated per backend and executor runs outside a backend."""

    def __init__(self):
        self.lanes = 0
        self.inside_reference = 0
        self.stray_executor_runs = 0


def _counted(log, cls):
    """*cls*'s ``evaluate_batch``, counting lanes into *log*."""
    original = cls.evaluate_batch
    reference = cls is backends.ReferenceBackend

    def evaluate_batch(self, graph, vectors, observe=None, **options):
        log.lanes += len(vectors)
        log.inside_reference += reference
        try:
            return original(self, graph, vectors, observe, **options)
        finally:
            log.inside_reference -= reference

    return evaluate_batch


@pytest.fixture()
def probes(monkeypatch):
    log = ProbeLog()
    for cls in {type(backends.backend_for(name)) for name in backends.backend_names()}:
        monkeypatch.setattr(cls, "evaluate_batch", _counted(log, cls))
    for executor in (Executor, CSDFExecutor):
        monkeypatch.setattr(executor, "run", _logged_run(log, executor.run))
    return log


def _logged_run(log, run):
    def logged(self):
        log.stray_executor_runs += not log.inside_reference
        return run(self)

    return logged


WORKLOADS = {
    "dependency": lambda: explore_design_space(gallery_graph("modem")),
    "divide-bounds": lambda: explore_design_space(
        gallery_graph("bipartite"), strategy="divide", config=ExplorationConfig(bounds=True)
    ),
    "sadf-modem-modes": lambda: explore_sadf(modem_modes()),
    "csdf-modem-lift": lambda: explore_design_space(from_sdf(gallery_graph("modem"))),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_probe_enters_through_a_backend(probes, workload):
    result = WORKLOADS[workload]()
    assert result.complete
    assert result.stats.evaluations > 0
    assert probes.lanes == result.stats.evaluations
    assert probes.stray_executor_runs == 0


#: Default-strategy workloads whose every probe is blocking-aware or
#: pooled; ``config`` names the backend.
BLOCKING_WORKLOADS = {
    "dependency": lambda config: explore_design_space(gallery_graph("modem"), config=config),
    "sadf-modem-modes": lambda config: explore_sadf(modem_modes(), config=config),
    "dependency-workers-2": lambda config: explore_design_space(
        gallery_graph("modem"), config=config.replaced(workers=2)
    ),
}


CC_UNAVAILABLE = ccore.availability()


@pytest.mark.parametrize(
    "backend",
    [
        "fastcore",
        pytest.param(
            "cc",
            marks=pytest.mark.skipif(CC_UNAVAILABLE is not None, reason=str(CC_UNAVAILABLE)),
        ),
    ],
)
@pytest.mark.parametrize("workload", BLOCKING_WORKLOADS)
def test_blocking_backends_never_enter_the_reference_executor(monkeypatch, backend, workload):
    """Pool workers fork with the patch in place, so a pooled probe on
    the reference executor fails the run just as an inline one does."""

    def refuse(self):
        raise AssertionError("the reference executor ran")

    monkeypatch.setattr(Executor, "run", refuse)
    result = BLOCKING_WORKLOADS[workload](ExplorationConfig(backend=backend))
    assert result.complete
    assert result.stats.evaluations > 0
    assert result.stats.backend == backend
    if result.stats.workers > 1:
        assert result.stats.parallel_batches > 0
        assert result.stats.pool_fallback_reason is None
