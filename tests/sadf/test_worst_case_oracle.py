"""The SADF worst case against a brute force over simple FSM cycles.

The brute force enumerates every simple cycle of the reachable FSM
minus its zero-delay self-loops (networkx) and takes the minimum of
their rates and of the residences, with each scenario priced by the
reference executor.  The corpus is seeded random FSM-SADF graphs: 2–6
scenarios over a three-actor chain, random transitions, delays and
capacities, some of them deadlocking and some without an infinite run.
"""

from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx
import pytest

from repro.engine.executor import Executor
from repro.exceptions import GraphError
from repro.sadf.fsm import ScenarioFSM
from repro.sadf.graph import SADFGraph
from repro.sadf.makespan import iteration_makespan
from repro.sadf.throughput import worst_case_throughput

OBSERVE = "c"


def skeleton(rng: random.Random, scenarios: int) -> SADFGraph:
    """A chain ``a -> b -> c`` with *scenarios* random bindings."""
    sadf = SADFGraph("random")
    for actor in ("a", "b", "c"):
        sadf.add_actor(actor)
    sadf.add_channel("a", "b", name="ab")
    sadf.add_channel("b", "c", name="bc")
    for index in range(scenarios):
        sadf.add_scenario(
            f"s{index}",
            execution_times={actor: rng.randint(1, 4) for actor in ("a", "b", "c")},
            productions={channel: rng.randint(1, 3) for channel in ("ab", "bc")},
            consumptions={channel: rng.randint(1, 3) for channel in ("ab", "bc")},
        )
    return sadf


def random_case(seed: int) -> tuple[SADFGraph, dict[str, int]]:
    rng = random.Random(seed)
    sadf = skeleton(rng, rng.randint(2, 6))
    fsm = ScenarioFSM("s0")
    density = rng.choice((0.2, 0.4, 0.7, 1.0))
    for source in sadf.scenario_names:
        for target in sadf.scenario_names:
            if rng.random() < density:
                fsm.add_transition(source, target, rng.choice((0, 0, 1, 2, 5)))
    sadf.set_fsm(fsm)
    capacities = {
        channel: max(
            max(s.productions[channel], s.consumptions[channel])
            for s in sadf.scenarios.values()
        )
        + rng.randint(0, 3)
        for channel in sadf.channel_names
    }
    return sadf, capacities


def brute_force(sadf: SADFGraph, capacities) -> tuple[Fraction | None, list[Fraction]]:
    """``(worst case, cycle rates)``; ``None`` when no run is infinite."""
    fsm = sadf.effective_fsm()
    reachable = fsm.reachable()
    digraph = nx.DiGraph()
    digraph.add_nodes_from(reachable)
    digraph.add_edges_from(
        (t.source, t.target)
        for t in fsm.transitions
        if t.source in reachable and not (t.source == t.target and t.delay == 0)
    )
    cycles = list(nx.simple_cycles(digraph))
    residences = [s for s in reachable if fsm.has_zero_delay_self_loop(s)]
    if not cycles and not residences:
        return None, []
    throughput = {
        s: Executor(sadf.scenario_graph(s), capacities, OBSERVE).run().throughput
        for s in reachable
    }
    makespan = {
        s: iteration_makespan(
            sadf.scenario_graph(s), capacities, sadf.scenario_repetitions(s)
        ).time
        for s in reachable
    }
    if any(throughput[s] == 0 or makespan[s] is None for s in reachable):
        return Fraction(0), []
    rates = []
    for cycle in cycles:
        delay = sum(
            fsm.transition(source, target).delay
            for source, target in zip(cycle, cycle[1:] + cycle[:1])
        )
        rates.append(
            Fraction(
                sum(sadf.scenario_repetitions(s)[OBSERVE] for s in cycle),
                sum(makespan[s] for s in cycle) + delay,
            )
        )
    return min([throughput[s] for s in residences] + rates), rates


def check(sadf: SADFGraph, capacities) -> None:
    expected, cycle_rates = brute_force(sadf, capacities)
    if expected is None:
        with pytest.raises(GraphError, match="no long-run throughput"):
            worst_case_throughput(sadf, capacities, OBSERVE)
        return
    report = worst_case_throughput(sadf, capacities, OBSERVE)
    assert report.worst_case == expected
    if report.critical.startswith("switching cycle"):
        assert Fraction(report.cycle.firings, report.cycle.duration) == report.worst_case
    if not cycle_rates:
        return
    # The reported cycle is a real tour of the FSM, named from its
    # first state in reachable order, and the slowest one.
    cycle = report.cycle
    assert cycle.ratio == min(cycle_rates)
    fsm = sadf.effective_fsm()
    order = fsm.reachable().index
    assert order(cycle.states[0]) == min(map(order, cycle.states))
    steps = [
        fsm.transition(source, target)
        for source, target in zip(cycle.states, cycle.states[1:] + cycle.states[:1])
    ]
    assert None not in steps and len(set(cycle.states)) == len(cycle.states)
    assert cycle.delay == sum(step.delay for step in steps)
    assert cycle.duration == cycle.delay + sum(report.makespans[s] for s in cycle.states)
    assert cycle.firings == sum(
        sadf.scenario_repetitions(s)[OBSERVE] for s in cycle.states
    )


@pytest.mark.parametrize("seed", range(50))
def test_random_fsms_match_brute_force(seed):
    check(*random_case(seed))


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(50, 350))
def test_random_fsms_match_brute_force_slow(seed):
    check(*random_case(seed))


def fixed(transitions, scenarios: int = 3) -> tuple[SADFGraph, dict[str, int]]:
    sadf = skeleton(random.Random(7), scenarios)
    sadf.set_fsm(ScenarioFSM("s0", transitions))
    return sadf, {"ab": 6, "bc": 6}


def test_delayed_self_loop_is_a_length_one_cycle():
    sadf, capacities = fixed([("s0", "s0", 3)])
    check(sadf, capacities)
    report = worst_case_throughput(sadf, capacities, OBSERVE)
    assert report.cycle.states == ("s0",) and report.cycle.delay == 3
    assert report.critical == "switching cycle s0"


def test_zero_delay_self_loop_is_a_residence_only():
    sadf, capacities = fixed([("s0", "s0", 0)])
    check(sadf, capacities)
    report = worst_case_throughput(sadf, capacities, OBSERVE)
    assert report.cycle is None
    assert report.critical == "residence in scenario 's0'"


def test_two_state_tour_is_one_cycle():
    sadf, capacities = fixed(
        [("s0", "s0", 0), ("s0", "s1", 1), ("s1", "s1", 0), ("s1", "s0", 2)], scenarios=2
    )
    check(sadf, capacities)
    cycle = worst_case_throughput(sadf, capacities, OBSERVE).cycle
    assert cycle.states == ("s0", "s1") and cycle.delay == 3


def test_unreachable_cycles_are_ignored():
    sadf, capacities = fixed([("s0", "s0", 0), ("s1", "s2", 9), ("s2", "s1", 9)])
    check(sadf, capacities)
    assert worst_case_throughput(sadf, capacities, OBSERVE).cycle is None


@pytest.mark.parametrize("scenarios", [5, 6])
def test_complete_fsms_beyond_64_cycles(scenarios):
    rng = random.Random(scenarios)
    sadf = skeleton(rng, scenarios)
    fsm = ScenarioFSM("s0")
    for source in sadf.scenario_names:
        for target in sadf.scenario_names:
            fsm.add_transition(source, target, rng.randint(0, 6))
    sadf.set_fsm(fsm)
    capacities = {"ab": 9, "bc": 9}
    _expected, cycle_rates = brute_force(sadf, capacities)
    assert len(cycle_rates) > 64
    check(sadf, capacities)
