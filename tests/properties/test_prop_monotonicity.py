"""Property tests: throughput monotonicity (DESIGN.md invariant 4).

"An important observation is that throughput is monotonic in the
distribution size, i.e. with increasing distribution size, the
throughput will not decrease." (Sec. 9) — the paper's divide-and-
conquer is only correct because of this, so it is tested directly.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.buffers.bounds import lower_bound_distribution
from repro.buffers.distribution import StorageDistribution
from repro.engine.executor import Executor
from repro.gallery.random_graphs import random_consistent_graph

seeds = st.integers(min_value=0, max_value=10**9)


def base_distribution(graph, rng) -> StorageDistribution:
    lower = lower_bound_distribution(graph)
    return StorageDistribution(
        {name: lower[name] + rng.randint(0, 3) for name in graph.channel_names}
    )


@given(seeds, seeds)
@settings(max_examples=40, deadline=None)
def test_single_channel_increase_never_hurts(seed, pick_seed):
    rng = random.Random(seed)
    graph = random_consistent_graph(rng)
    pick = random.Random(pick_seed)
    distribution = base_distribution(graph, pick)
    channel = pick.choice(graph.channel_names)
    step = pick.randint(1, 3)

    before = Executor(graph, distribution).run().throughput
    after = Executor(graph, distribution.incremented(channel, step)).run().throughput
    assert after >= before


@given(seeds, seeds)
@settings(max_examples=30, deadline=None)
def test_pointwise_dominating_distribution_never_slower(seed, pick_seed):
    rng = random.Random(seed)
    graph = random_consistent_graph(rng)
    pick = random.Random(pick_seed)
    small = base_distribution(graph, pick)
    large = StorageDistribution(
        {name: small[name] + pick.randint(0, 3) for name in graph.channel_names}
    )
    assert Executor(graph, large).run().throughput >= Executor(graph, small).run().throughput


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_fig1_size_sweep_monotone(seed):
    """Max throughput per size is non-decreasing (fig1, random order)."""
    from repro.gallery import fig1_example

    del seed  # sweep is deterministic; hypothesis exercises the harness
    graph = fig1_example()
    best = 0
    for size in range(6, 17):
        from repro.buffers.bounds import upper_bound_distribution
        from repro.buffers.evalcache import EvaluationService
        from repro.buffers.search import SizeSearch

        search = SizeSearch(
            graph,
            "c",
            lower_bound_distribution(graph),
            upper_bound_distribution(graph),
            EvaluationService(graph, "c"),
        )
        value = search.max_throughput_for_size(size).throughput
        assert value >= best
        best = value
