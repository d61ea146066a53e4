"""ExplorationStats accounting, pinned on the paper's running example.

The expected counts are the pre-service serial baselines (Table 2 /
Fig. 5 context: the example graph explored with all three strategies),
so any accidental change in what gets counted — or in how much work the
strategies do — fails loudly.
"""

import pytest

from repro.buffers.explorer import explore_design_space
from repro.runtime.config import ExplorationConfig
from repro.gallery import fig1_example

#: (strategy, evaluations, sizes_probed) with cache off and one worker —
#: the exact costs of the pre-change serial implementation.
PINNED = (
    ("dependency", 9, 5),
    ("divide", 15, 7),
    ("exhaustive", 12, 5),
)

PINNED_FRONT = [(6, "1/7"), (8, "1/6"), (9, "1/5"), (10, "1/4")]


@pytest.fixture(scope="module")
def graph():
    return fig1_example()


@pytest.mark.parametrize("strategy,evaluations,sizes_probed", PINNED)
def test_serial_baseline_counts_are_pinned(graph, strategy, evaluations, sizes_probed):
    result = explore_design_space(graph, "c", strategy=strategy, config=ExplorationConfig(cache=False))
    assert result.stats.evaluations == evaluations
    assert result.stats.sizes_probed == sizes_probed
    assert result.stats.cache_hits == 0
    assert result.stats.bounds_exact == 0
    assert result.stats.workers == 1
    assert result.stats.parallel_batches == 0
    assert [(p.size, str(p.throughput)) for p in result.front] == PINNED_FRONT


@pytest.mark.parametrize("strategy,evaluations,_sizes", PINNED)
def test_cache_never_increases_work(graph, strategy, evaluations, _sizes):
    result = explore_design_space(graph, "c", strategy=strategy, config=ExplorationConfig(cache=True))
    assert result.stats.evaluations <= evaluations
    assert [(p.size, str(p.throughput)) for p in result.front] == PINNED_FRONT
    # Every saved evaluation is attributed to a hit.
    saved = evaluations - result.stats.evaluations
    assert result.stats.cache_hits >= saved


def test_dependency_needs_fewest_evaluations(graph):
    counts = {
        strategy: explore_design_space(graph, "c", strategy=strategy).stats.evaluations
        for strategy, _evals, _sizes in PINNED
    }
    assert counts["dependency"] <= counts["divide"]
    assert counts["dependency"] <= counts["exhaustive"]


def test_parallel_run_accounts_workers_and_batches(graph):
    result = explore_design_space(graph, "c", strategy="dependency", config=ExplorationConfig(workers=2))
    assert result.stats.workers == 2
    assert result.stats.parallel_batches >= 1
    # Batch-by-size parallelism evaluates exactly the serial sweep's
    # distributions, so the evaluation count equals the serial baseline.
    assert result.stats.evaluations == 9
    assert [(p.size, str(p.throughput)) for p in result.front] == PINNED_FRONT


def test_summary_surfaces_cache_counters(graph):
    summary = explore_design_space(graph, "c").summary()
    assert "cache:" in summary
    assert "hits" in summary
    assert "worker(s)" in summary


def test_result_json_includes_cache_counters(graph, tmp_path):
    import json

    from repro.io.frontjson import write_result_json

    result = explore_design_space(graph, "c", config=ExplorationConfig(workers=1))
    path = tmp_path / "result.json"
    write_result_json(result, path)
    stats = json.loads(path.read_text())["stats"]
    for key in ("cache_hits", "bounds_exact", "workers", "parallel_batches"):
        assert key in stats
    assert stats["workers"] == 1
