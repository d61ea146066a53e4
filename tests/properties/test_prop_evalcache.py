"""Differential harness for the evaluation service.

The cached/parallel :class:`~repro.buffers.evalcache
.EvaluationService` is only trustworthy if it is *exact*: every
exploration through it must return bit-identical Pareto fronts —
sizes, throughputs and witness distributions — to the plain serial
path (``workers=1`` with the cache disabled).  These tests assert that
over random consistent graphs for all three strategies, and test the
monotonicity invariant the bounds oracle rests on directly.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.buffers.distribution import StorageDistribution
from repro.buffers.evalcache import EvaluationService
from repro.buffers.explorer import explore_design_space
from repro.buffers.bounds import lower_bound_distribution
from repro.engine.executor import Executor
from repro.runtime.config import ExplorationConfig
from repro.gallery.random_graphs import random_consistent_graph

seeds = st.integers(min_value=0, max_value=10**9)

STRATEGIES = ("dependency", "divide", "exhaustive")


def small_graph(seed):
    return random_consistent_graph(
        random.Random(seed), max_actors=4, max_repetition=3, max_rate_factor=1
    )


def front_fingerprint(front):
    """Everything a front asserts: sizes, throughputs AND witnesses."""
    return [(p.size, p.throughput, p.witnesses) for p in front]


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_cache_is_differentially_exact(seed):
    """Cache on vs. the cache-off serial baseline, all strategies."""
    graph = small_graph(seed)
    for strategy in STRATEGIES:
        baseline = explore_design_space(graph, strategy=strategy, config=ExplorationConfig(cache=False))
        cached = explore_design_space(graph, strategy=strategy, config=ExplorationConfig(cache=True))
        assert front_fingerprint(cached.front) == front_fingerprint(baseline.front)
        # Caching may only ever save work.
        assert cached.stats.evaluations <= baseline.stats.evaluations
        assert baseline.stats.cache_hits == 0
        assert baseline.stats.bounds_exact == 0


@given(seeds)
@settings(max_examples=6, deadline=None)
def test_parallel_is_differentially_exact(seed):
    """workers=2 (process-pool path) vs. the cache-off serial baseline."""
    graph = small_graph(seed)
    for strategy in STRATEGIES:
        baseline = explore_design_space(graph, strategy=strategy, config=ExplorationConfig(cache=False))
        parallel = explore_design_space(graph, strategy=strategy, config=ExplorationConfig(workers=2, cache=True))
        assert front_fingerprint(parallel.front) == front_fingerprint(baseline.front)
        assert parallel.stats.workers == 2


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_quantized_divide_is_differentially_exact(seed):
    """The quantised binary search also survives the shared cache."""
    from fractions import Fraction

    graph = small_graph(seed)
    quantum = Fraction(1, 12)
    baseline = explore_design_space(
        graph, strategy="divide", quantum=quantum, config=ExplorationConfig(cache=False)
    )
    cached = explore_design_space(
        graph, strategy="divide", quantum=quantum, config=ExplorationConfig(cache=True)
    )
    assert front_fingerprint(cached.front) == front_fingerprint(baseline.front)


@given(seeds, seeds)
@settings(max_examples=40, deadline=None)
def test_pruning_invariant_monotone_under_dominance(seed, pick_seed):
    """The dominance short-circuit's premise, tested on comparable pairs:
    component-wise larger capacities never decrease throughput."""
    rng = random.Random(seed)
    graph = random_consistent_graph(rng)
    pick = random.Random(pick_seed)
    lower = lower_bound_distribution(graph)
    small = StorageDistribution(
        {name: lower[name] + pick.randint(0, 3) for name in graph.channel_names}
    )
    large = StorageDistribution(
        {name: small[name] + pick.randint(0, 3) for name in graph.channel_names}
    )
    assert large.dominates(small)
    thr_small = Executor(graph, small).run().throughput
    thr_large = Executor(graph, large).run().throughput
    assert thr_large >= thr_small


@given(seeds, seeds)
@settings(max_examples=25, deadline=None)
def test_service_answers_match_executor(seed, pick_seed):
    """Whatever mix of cache hits, oracle answers and executions
    answers a query, the answer equals a fresh executor run."""
    rng = random.Random(seed)
    graph = random_consistent_graph(
        rng, max_actors=4, max_repetition=3, max_rate_factor=1
    )
    observe = graph.actor_names[-1]
    pick = random.Random(pick_seed)
    lower = lower_bound_distribution(graph)

    from repro.analysis.throughput import max_throughput

    config = ExplorationConfig(bounds=True)
    with EvaluationService(graph, observe, config=config) as service:
        service.set_ceiling(max_throughput(graph, observe))
        for _ in range(12):
            distribution = StorageDistribution(
                {name: lower[name] + pick.randint(0, 2) for name in graph.channel_names}
            )
            expected = Executor(graph, distribution, observe).run().throughput
            assert service(distribution) == expected
