"""The CSDF sweep on a lifted SDF graph is the SDF sweep, probe for probe.

Constant-rate CSDF channels are seeded with the SDF [ALP97] bound, so
the sweep of ``explore_csdf_design_space(from_sdf(g))`` must evaluate
exactly the distributions — with exactly the throughputs — that
``dependency_sweep(g, stop_throughput=max_throughput(g))`` evaluates.
The soundness tests check that every seed is a true lower bound: one
token less on any channel deadlocks the graph however large the other
channels are.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.analysis.throughput import max_throughput
from repro.buffers import explorer
from repro.buffers.dependencies import dependency_sweep
from repro.buffers.explorer import minimal_distribution_for_throughput
from repro.csdf.bounds import csdf_lower_bound_distribution, csdf_upper_bound_distribution
from repro.csdf.executor import CSDFExecutor
from repro.csdf.explorer import explore_csdf_design_space
from repro.csdf.graph import CSDFGraph, from_sdf
from repro.gallery import fig1_example, modem, sample_rate_converter
from repro.gallery.random_graphs import random_consistent_graph

RANDOM_SEEDS = range(12)


def _random_graph(seed: int):
    return random_consistent_graph(random.Random(seed), max_actors=4, max_repetition=3)


@pytest.fixture
def csdf_probes(monkeypatch):
    """``{capacity vector: throughput}`` of every distribution the
    exploration's dependency sweep evaluated (the maximum search's
    probes run before the sweep and are not among them)."""
    probes: dict[tuple, Fraction] = {}
    original = explorer.dependency_sweep

    def sweep(graph, *args, **kwargs):
        result = original(graph, *args, **kwargs)
        probes.update({d.vector(graph): value for d, value in result.evaluations.items()})
        return result

    monkeypatch.setattr(explorer, "dependency_sweep", sweep)
    return probes


def _assert_lift_explores_the_sdf_sweep(graph, csdf_probes) -> int:
    sdf = dependency_sweep(graph, stop_throughput=max_throughput(graph))
    expected = {d.vector(graph): value for d, value in sdf.evaluations.items()}
    explore_csdf_design_space(from_sdf(graph))
    assert csdf_probes == expected
    return len(csdf_probes)


@pytest.mark.parametrize("graph", [fig1_example, modem], ids=["fig1", "modem"])
def test_lift_explores_exactly_the_sdf_sweep(graph, csdf_probes):
    _assert_lift_explores_the_sdf_sweep(graph(), csdf_probes)


@pytest.mark.slow
def test_samplerate_lift_explores_exactly_the_sdf_sweep(csdf_probes):
    # The max-burst seed (size 24 instead of 32) ran 7059 executions.
    assert _assert_lift_explores_the_sdf_sweep(sample_rate_converter(), csdf_probes) == 1638


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_lift_explores_exactly_the_sdf_sweep(seed, csdf_probes):
    _assert_lift_explores_the_sdf_sweep(_random_graph(seed), csdf_probes)


@pytest.mark.parametrize(
    "graph, target",
    [
        (fig1_example, Fraction(1, 6)),
        (modem, Fraction(1, 3)),
        # Several size-35 distributions reach this target; both
        # pipelines answer the first one the sweep pops (40/77), not
        # the size's best (80/153, the Pareto point).
        (sample_rate_converter, Fraction(12640, 24939)),
    ],
    ids=["fig1", "modem", "samplerate"],
)
def test_lift_answers_the_sdf_constraint_query(graph, target):
    sdf = minimal_distribution_for_throughput(graph(), target)
    lifted = minimal_distribution_for_throughput(from_sdf(graph()), target)
    assert (lifted.size, lifted.distribution, lifted.throughput) == (
        sdf.size,
        sdf.distribution,
        sdf.throughput,
    )


def _phased_graph() -> CSDFGraph:
    """Multi-phase actors on constant-rate channels, plus one channel
    whose rates vary by phase (seeded with the max-burst bound)."""
    graph = CSDFGraph("phased")
    graph.add_actor("a", (1, 2))
    graph.add_actor("b", (2, 1, 1))
    graph.add_actor("c", (1,))
    graph.add_channel("a", "b", (2, 2), (3, 3, 3), name="ab")
    graph.add_channel("b", "c", (1, 1, 1), (2,), name="bc")
    graph.add_channel("c", "a", (3,), (1, 1), initial_tokens=5, name="ca")
    graph.add_channel("a", "c", (0, 2), (3,), name="ac")
    return graph


def _assert_seed_is_sound(graph: CSDFGraph) -> int:
    """One token below the seed on any channel deadlocks the graph,
    even with every other channel at twice its upper bound."""
    lower = csdf_lower_bound_distribution(graph)
    roomy = csdf_upper_bound_distribution(graph).scaled(2)
    checked = 0
    for channel in graph.channels.values():
        below = lower[channel.name] - 1
        if below < channel.initial_tokens:
            continue  # no valid capacity lies below the seed
        capacities = roomy.with_capacity(channel.name, below)
        assert CSDFExecutor(graph, capacities).run().throughput == 0, channel.name
        checked += 1
    return checked


def test_phased_graph_seed():
    lower = csdf_lower_bound_distribution(_phased_graph())
    # Constant rates get max(d, p + c - gcd(p, c) + d mod gcd(p, c)).
    assert lower["ab"] == 2 + 3 - 1
    assert lower["bc"] == 1 + 2 - 1
    assert lower["ca"] == max(5, 3 + 1 - 1)
    # Phase-varying rates keep the max-burst bound.
    assert lower["ac"] == 3


def test_phased_graph_seed_is_sound():
    assert _assert_seed_is_sound(_phased_graph()) == 3


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_lifted_seed_is_sound(seed):
    _assert_seed_is_sound(from_sdf(_random_graph(seed)))


@pytest.mark.parametrize("graph", [fig1_example, modem, sample_rate_converter])
def test_lifted_gallery_seed_is_sound(graph):
    _assert_seed_is_sound(from_sdf(graph()))
