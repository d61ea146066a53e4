"""Property tests for the probe-avoidance engine (PR 5).

Invariants:

* oracle intervals always bracket the simulator's exact throughput
  (monotonicity makes every derived bound sound);
* the bounds oracle and the worker pool are pure accelerations —
  fronts, witnesses and max throughput are bit-identical whether they
  are on or off, serial or parallel;
* checkpoint round-trips preserve that identity with the oracle on.
"""

import random

from hypothesis import example, given, settings, strategies as st

from repro.buffers.bounds import lower_bound_distribution, upper_bound_distribution
from repro.buffers.enumerate import distributions_of_size
from repro.buffers.evalcache import EvaluationService
from repro.buffers.explorer import explore_design_space
from repro.engine.executor import Executor
from repro.gallery.random_graphs import random_consistent_graph
from repro.runtime.config import ExplorationConfig

seeds = st.integers(min_value=0, max_value=10**9)


def small_graph(seed):
    return random_consistent_graph(
        random.Random(seed), max_actors=4, max_repetition=3, max_rate_factor=1
    )


def fingerprint(result):
    """Everything the oracle must not change: the front (sizes,
    throughputs, witnesses), its top, and the bound box."""
    return (
        tuple(result.front),
        result.max_throughput,
        result.lower_bounds,
        result.upper_bounds,
    )


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_oracle_intervals_bracket_the_simulator(seed):
    graph = small_graph(seed)
    service = EvaluationService(graph, None, config=ExplorationConfig(bounds=True))
    lower = lower_bound_distribution(graph)
    upper = upper_bound_distribution(graph)
    box = []
    for size in range(lower.size, upper.size + 1):
        box.extend(distributions_of_size(graph.channel_names, size, lower, upper))
        if len(box) >= 120:  # cap the ground-truth work per example
            break
    box = box[:120]
    # Seed the oracle with a deterministic subset, then check every
    # box member's bracket against ground truth.
    for distribution in box[::3]:
        service(distribution)
    oracle = service.memo.oracle
    for distribution in box:
        vector = tuple(distribution[name] for name in graph.channel_names)
        low, high = oracle.interval(vector)
        truth = Executor(graph, distribution).run().throughput
        assert low <= truth
        assert high is None or truth <= high


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_bounds_oracle_preserves_fronts_everywhere(seed):
    # Per-strategy on/off identity: each strategy keeps its own exact
    # answer (strategies may legitimately differ from one another in
    # which tied witnesses they collect at the stop throughput).
    graph = small_graph(seed)
    for strategy in ("dependency", "divide", "exhaustive"):
        baseline = explore_design_space(
            graph, strategy=strategy, config=ExplorationConfig()
        )
        accelerated = explore_design_space(
            graph, strategy=strategy, config=ExplorationConfig(bounds=True)
        )
        assert fingerprint(accelerated) == fingerprint(baseline)


@given(seeds)
@settings(max_examples=8, deadline=None)
def test_bounds_with_workers_preserves_fronts(seed):
    graph = small_graph(seed)
    baseline = explore_design_space(graph, strategy="divide", config=ExplorationConfig())
    parallel = explore_design_space(
        graph,
        strategy="divide",
        config=ExplorationConfig(workers=2, bounds=True),
    )
    assert fingerprint(parallel) == fingerprint(baseline)


@given(seeds)
@example(657)  # the original evicts a witness it cut with before the checkpoint
@settings(max_examples=10, deadline=None)
def test_checkpoint_round_trip_with_bounds_is_identical(seed):
    graph = small_graph(seed)
    config = ExplorationConfig(bounds=True)
    cold = EvaluationService(graph, None, config=config)
    direct = explore_design_space(
        graph, strategy="divide", config=ExplorationConfig(evaluator=cold)
    )
    state = cold.export_state()

    warm = EvaluationService(graph, None, config=config)
    warm.restore_state(state)
    resumed = explore_design_space(
        graph, strategy="divide", config=ExplorationConfig(evaluator=warm)
    )
    assert fingerprint(resumed) == fingerprint(direct)
    # Everything was memoised (counters restore too): the resumed run
    # simulates nothing beyond the restored tally.
    assert warm.stats.evaluations == cold.stats.evaluations
