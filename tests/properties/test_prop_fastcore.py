"""Property tests: fast kernel is bit-for-bit equivalent to the reference.

Random consistent graphs are executed through both engines and the full
:class:`ExecutionResult` dataclasses compared — with slack above the
lower-bound distribution, with deadlock-prone tightened capacities, and
with randomly zeroed execution times (where both engines must also
agree on raising the per-instant firing guard).  Each comparison runs
plain and with ``track_blocking``, so the blocking data agree too.
"""

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

import repro.engine.executor as executor_module
from repro.buffers.bounds import lower_bound_distribution
from repro.engine.executor import Executor
from repro.engine.fastcore import FastKernel
from repro.exceptions import EngineError
from repro.gallery.random_graphs import random_consistent_graph

seeds = st.integers(min_value=0, max_value=10**9)


def graph_and_caps(seed, slack_seed, tight=False):
    rng = random.Random(seed)
    graph = random_consistent_graph(rng)
    slack_rng = random.Random(slack_seed)
    lower = lower_bound_distribution(graph)
    if tight:
        caps = {
            name: max(
                graph.channels[name].initial_tokens,
                lower[name] - slack_rng.randint(0, 2),
            )
            for name in graph.channel_names
        }
    else:
        caps = {name: lower[name] + slack_rng.randint(0, 4) for name in graph.channel_names}
    return graph, caps


def assert_both_modes_match(graph, caps):
    kernel = FastKernel(graph)
    for track in (False, True):
        assert kernel.run(caps, track_blocking=track) == Executor(
            graph, caps, track_blocking=track
        ).run()


@given(seeds, seeds)
@settings(max_examples=60, deadline=None)
def test_fast_matches_reference_with_slack(seed, slack_seed):
    assert_both_modes_match(*graph_and_caps(seed, slack_seed))


@given(seeds, seeds)
@settings(max_examples=40, deadline=None)
def test_fast_matches_reference_on_tight_capacities(seed, slack_seed):
    assert_both_modes_match(*graph_and_caps(seed, slack_seed, tight=True))


@given(seeds, seeds)
@settings(max_examples=40, deadline=None)
def test_fast_matches_reference_under_observe_choice(seed, slack_seed):
    graph, caps = graph_and_caps(seed, slack_seed)
    observe = graph.actor_names[random.Random(seed ^ slack_seed).randrange(len(graph.actor_names))]
    assert FastKernel(graph, observe).run(caps) == Executor(graph, caps, observe).run()


@given(seeds, seeds)
@settings(max_examples=40, deadline=None)
def test_fast_matches_reference_with_zero_execution_times(seed, slack_seed):
    """Zero-duration firings cascade within one instant; both engines
    must produce identical results — or raise the identical
    per-instant firing guard when the cascade diverges."""
    graph, caps = graph_and_caps(seed, slack_seed)
    zero_rng = random.Random(seed ^ 0x5EED)
    times = {
        name: 0 if zero_rng.random() < 0.4 else graph.actors[name].execution_time
        for name in graph.actor_names
    }
    graph = graph.with_execution_times(times)

    def outcome(run):
        try:
            return run()
        except EngineError as error:
            return str(error)

    # With tracking, a zero-time firing changes what later checks of
    # the same instant see, so the scan order matters to the records.
    for track in (False, True):
        with mock.patch.object(executor_module, "_MAX_FIRINGS_PER_INSTANT", 10_000):
            reference = outcome(lambda: Executor(graph, caps, track_blocking=track).run())
            fast = outcome(lambda: FastKernel(graph).run(caps, track_blocking=track))
        assert fast == reference


@given(seeds, seeds)
@settings(max_examples=25, deadline=None)
def test_fast_respects_max_instants_like_reference(seed, slack_seed):
    graph, caps = graph_and_caps(seed, slack_seed)

    def outcome(run):
        try:
            return run()
        except EngineError as error:
            return str(error)

    reference = outcome(lambda: Executor(graph, caps, max_instants=3).run())
    fast = outcome(lambda: FastKernel(graph).run(caps, max_instants=3))
    assert fast == reference
