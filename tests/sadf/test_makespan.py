"""Unit tests for the quota'd iteration-makespan simulation."""

import random
from fractions import Fraction

import pytest

from repro.analysis.hsdf import to_hsdf
from repro.engine.executor import Executor
from repro.gallery.random_graphs import random_consistent_graph
from repro.graph.graph import SDFGraph
from repro.sadf.makespan import iteration_makespan


def chain(exec_a=1, exec_b=1, production=1, consumption=1):
    graph = SDFGraph("chain")
    graph.add_actor("a", exec_a)
    graph.add_actor("b", exec_b)
    graph.add_channel("a", "b", production, consumption, name="c")
    return graph


class TestMakespan:
    def test_homogeneous_chain(self):
        # a fires (1), then b fires (1): one iteration takes 2.
        result = iteration_makespan(chain(), {"c": 1})
        assert result.time == 2
        assert not result.deadlocked

    def test_multirate_iteration(self):
        # a produces 2 per firing, b consumes 1: repetitions a=1, b=2.
        # cap 2: a(1) then b twice sequentially (1 each) -> 3.
        result = iteration_makespan(chain(production=2), {"c": 2})
        assert result.time == 3

    def test_small_capacity_serialises(self):
        # cap 1 with production 2 deadlocks a outright.
        result = iteration_makespan(chain(production=2), {"c": 1})
        assert result.deadlocked and result.time is None
        assert "c" in result.space_blocked
        assert result.space_deficits["c"] == 1  # needs exactly one more slot

    def test_space_blocking_recorded_without_deadlock(self):
        # repetitions a=2, b=1 (a produces 1, b consumes 2); cap 1 forces
        # the two a-firings to serialise against b's claim... cap 2 frees it.
        graph = chain(consumption=2)
        blocked = iteration_makespan(graph, {"c": 1})
        assert blocked.deadlocked  # b can never claim 2 slots under cap 1
        fine = iteration_makespan(graph, {"c": 2})
        assert fine.time is not None and not fine.space_blocked

    def test_unbounded_channels(self):
        # Missing capacities mean unbounded storage (the executor's
        # convention), so only dependencies constrain the makespan.
        result = iteration_makespan(chain(production=2), {})
        assert result.time == 3 and not result.space_blocked

    def test_zero_execution_time_cascades(self):
        graph = SDFGraph("zeros")
        graph.add_actor("a", 0)
        graph.add_actor("b", 0)
        graph.add_channel("a", "b", 1, 1, name="c")
        result = iteration_makespan(graph, {"c": 1})
        assert result.time == 0

    def test_initial_tokens_respected(self):
        graph = SDFGraph("cycle")
        graph.add_actor("a", 2)
        graph.add_actor("b", 3)
        graph.add_channel("a", "b", 1, 1, name="fwd")
        graph.add_channel("b", "a", 1, 1, 1, name="back")
        # a waits for the back token (present initially), fires (2),
        # then b (3): makespan 5.
        result = iteration_makespan(graph, {"fwd": 1, "back": 1})
        assert result.time == 5

    def test_makespan_bounds_steady_state(self, fig1):
        # One barriered iteration can never beat the pipelined rate:
        # thr >= repetitions(observe) / makespan at the same sizing.
        capacities = {"alpha": 4, "beta": 2}
        result = iteration_makespan(fig1, capacities)
        throughput = Executor(fig1, capacities, "c").run().throughput
        from repro.analysis.repetitions import repetition_vector

        firings = repetition_vector(fig1)["c"]
        assert result.time is not None
        assert throughput >= Fraction(firings, result.time)

    def test_explicit_repetitions_quota(self):
        # Doubling the quota doubles the (serialised) makespan of the
        # homogeneous chain minus the pipelined overlap.
        graph = chain()
        single = iteration_makespan(graph, {"c": 1})
        double = iteration_makespan(graph, {"c": 1}, {"a": 2, "b": 2})
        assert single.time == 2
        assert double.time == 4  # cap 1 serialises a-b-a-b completely


# -- an independent oracle: the HSDF longest path ------------------------------


def hsdf_makespan(graph: SDFGraph, capacities: dict[str, int]) -> int | None:
    """Makespan of one iteration as the longest path of the HSDF expansion.

    Every bounded channel is closed by a reverse *space* channel (rates
    swapped, ``capacity - initial tokens`` tokens), so claiming space is
    consuming its tokens.  Edges with a delay reach back to earlier
    iterations, whose tokens the initial marking provides; the zero-delay
    edges order the firings of one iteration, each firing taking its
    execution time.  A zero-delay cycle is a deadlock (``None``).
    """
    closed = graph.copy(f"{graph.name}-closed")
    for name, capacity in capacities.items():
        channel = graph.channels[name]
        closed.add_channel(
            channel.destination,
            channel.source,
            channel.consumption,
            channel.production,
            capacity - channel.initial_tokens,
            name=f"{name}-space",
        )
    hsdf = to_hsdf(closed)
    successors: dict = {node: [] for node in hsdf.nodes}
    waiting = dict.fromkeys(hsdf.nodes, 0)
    for (source, target), delay in hsdf.edges.items():
        if delay == 0:
            successors[source].append(target)
            waiting[target] += 1
    start = dict.fromkeys(hsdf.nodes, 0)
    ready = [node for node, count in waiting.items() if not count]
    makespan = finished = 0
    while ready:
        node = ready.pop()
        end = start[node] + hsdf.nodes[node]
        makespan = max(makespan, end)
        finished += 1
        for successor in successors[node]:
            start[successor] = max(start[successor], end)
            waiting[successor] -= 1
            if not waiting[successor]:
                ready.append(successor)
    return makespan if finished == len(hsdf.nodes) else None


def oracle_case(seed: int) -> tuple[SDFGraph, dict[str, int]]:
    """A random consistent graph: unbounded for every fourth seed, else
    with capacities around ``production + consumption - 1`` (some
    deadlock), and zero-time actors for one seed in eight."""
    rng = random.Random(seed)
    graph = random_consistent_graph(rng)
    if seed % 4 == 0:
        return graph, {}
    if seed % 8 == 1:
        graph = graph.with_execution_times(
            {name: 0 for name in graph.actor_names if rng.random() < 0.4}
        )
    capacities = {
        channel.name: channel.initial_tokens
        + max(0, channel.production + channel.consumption - 1 + rng.randint(-1, 2))
        for channel in graph.channels.values()
    }
    return graph, capacities


@pytest.mark.parametrize("seed", range(200))
def test_makespan_equals_the_hsdf_longest_path(seed):
    graph, capacities = oracle_case(seed)
    result = iteration_makespan(graph, capacities)
    expected = hsdf_makespan(graph, capacities)
    assert result.time == expected
    assert result.deadlocked == (expected is None)
