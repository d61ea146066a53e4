"""The per-graph kernel tables free a graph once nothing else holds it.

``fastcore._KERNELS`` and ``ccore._KERNELS`` are keyed weakly by
graph.  A value that kept its graph would keep its own
key alive, and a long-running service would hold every graph it was
ever sent; so after exploring fresh graphs and dropping them, the
graphs must be gone and no table may have grown.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.buffers.explorer import explore_design_space
from repro.engine import ccore, fastcore
from repro.gallery.registry import gallery_graph
from repro.runtime.config import ExplorationConfig


TABLES = {
    "fastcore": fastcore._KERNELS,
    "ccore": ccore._KERNELS,
}


def _explore_and_drop(config: ExplorationConfig, count: int = 5) -> dict[str, int]:
    """Explore *count* fresh modem graphs and drop them; the growth of
    each table, and check that no graph outlived its exploration."""
    gc.collect()
    before = {name: len(table) for name, table in TABLES.items()}
    graphs = []
    for _ in range(count):
        graph = gallery_graph("modem")
        assert explore_design_space(graph, config=config).complete
        graphs.append(weakref.ref(graph))
    del graph
    gc.collect()
    assert [ref() for ref in graphs] == [None] * count
    return {name: len(table) - before[name] for name, table in TABLES.items()}


def test_fastcore_table_frees_dropped_graphs():
    growth = _explore_and_drop(ExplorationConfig(backend="fastcore"))
    assert growth["fastcore"] <= 0


@pytest.mark.skipif(ccore.availability() is not None, reason=str(ccore.availability()))
def test_cc_table_frees_dropped_graphs(tmp_path):
    # The first graph builds the kernel; every graph binds its tables
    # to the one loaded library.
    ccore.configure(cache_dir=tmp_path / "kernels")
    ccore.reset(counters=True)
    try:
        growth = _explore_and_drop(ExplorationConfig(backend="cc"))
        assert dict(ccore.telemetry.counters) == {"cc_compiles": 1}
        assert max(growth.values()) <= 0
    finally:
        ccore.configure(cache_dir=None)
        ccore.reset(counters=True)
