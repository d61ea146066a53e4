"""The integer cycle-ratio engine against independent oracles.

* brute force over every simple cycle (networkx) on small random HSDF
  graphs: the ratio, the critical component, and both errors;
* the critical cycle the engine returns is a simple cycle of that
  component attaining the ratio;
* the ratios of the gallery graphs, pinned;
* the state-space maximal throughput on a seeded corpus of random
  consistent SDF graphs.
"""

from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.hsdf import HSDFGraph, to_hsdf
from repro.analysis.mcm import cycle_ratio, maximum_cycle_ratio
from repro.analysis.throughput import max_throughput
from repro.exceptions import AnalysisError
from repro.gallery.random_graphs import random_consistent_graph
from repro.gallery.registry import gallery_graph, gallery_names


@st.composite
def hsdf_graphs(draw):
    nodes = [("n", index) for index in range(draw(st.integers(1, 7)))]
    graph = HSDFGraph("random")
    for node in nodes:
        graph.nodes[node] = draw(st.integers(0, 5))
    pairs = [(src, dst) for src in nodes for dst in nodes]
    # At least one edge per node, so that most graphs close a cycle.
    chosen = st.lists(st.sampled_from(pairs), unique=True, min_size=len(nodes), max_size=len(pairs))
    for pair in draw(chosen):
        graph.edges[pair] = draw(st.integers(0, 3))
    reaching = draw(st.none() | st.sampled_from(nodes))
    return graph, reaching


def considered_cycles(graph: HSDFGraph, reaching) -> list[tuple[list, int, int]]:
    """Every simple cycle that can reach *reaching*, with its sums."""
    digraph = nx.DiGraph(list(graph.edges))
    digraph.add_nodes_from(graph.nodes)
    upstream = None if reaching is None else nx.ancestors(digraph, reaching) | {reaching}
    cycles = []
    for cycle in nx.simple_cycles(digraph):
        if upstream is not None and not upstream & set(cycle):
            continue
        weight = sum(graph.nodes[node] for node in cycle)
        delay = sum(graph.edges[edge] for edge in zip(cycle, cycle[1:] + cycle[:1]))
        cycles.append((cycle, weight, delay))
    return cycles


@given(hsdf_graphs())
@settings(max_examples=300, deadline=None)
def test_engine_matches_brute_force_over_simple_cycles(case):
    graph, reaching = case
    cycles = considered_cycles(graph, reaching)
    if not cycles:
        with pytest.raises(AnalysisError, match="no cycle"):
            maximum_cycle_ratio(graph, reaching)
        return
    if any(delay == 0 for _cycle, _weight, delay in cycles):
        with pytest.raises(AnalysisError, match="deadlock"):
            maximum_cycle_ratio(graph, reaching)
        return
    result = maximum_cycle_ratio(graph, reaching)
    best = max(Fraction(weight, delay) for _cycle, weight, delay in cycles)
    assert result.ratio == best
    assert any(
        Fraction(weight, delay) == best and set(cycle) <= result.critical_scc
        for cycle, weight, delay in cycles
    )
    digraph = nx.DiGraph(list(graph.edges))
    assert result.critical_scc in map(frozenset, nx.strongly_connected_components(digraph))


@given(hsdf_graphs())
@settings(max_examples=200, deadline=None)
def test_engine_returns_a_critical_cycle(case):
    graph, reaching = case
    nodes = list(graph.nodes)
    index = {node: position for position, node in enumerate(nodes)}
    edges = [
        (index[src], index[dst], graph.nodes[src], delay)
        for (src, dst), delay in graph.edges.items()
    ]
    try:
        found = cycle_ratio(len(nodes), edges, None if reaching is None else index[reaching])
    except AnalysisError:
        return  # a delay-free cycle, checked above
    if found is None:
        return
    ratio, members, cycle = found
    steps = [edges[position] for position in cycle]
    sources = [src for src, _dst, _weight, _transit in steps]
    assert [dst for _src, dst, _weight, _transit in steps] == sources[1:] + sources[:1]
    assert len(set(sources)) == len(sources) and set(sources) <= set(members)
    assert Fraction(sum(step[2] for step in steps), sum(step[3] for step in steps)) == ratio


#: ``maximum_cycle_ratio(to_hsdf(g)).ratio`` of every SDF gallery graph.
GALLERY_RATIOS = {
    "bipartite": 3,
    "example": 4,
    "fig6": 3,
    "h263": 1328184,
    "h263-small": 55341,
    "modem": 32,
    "mp3": 8,
    "samplerate": 196,
    "satellite": 32,
}


def test_every_gallery_graph_is_pinned():
    assert sorted(gallery_names()) == sorted(GALLERY_RATIOS)


@pytest.mark.parametrize("name", sorted(GALLERY_RATIOS))
def test_gallery_ratio_pinned(name):
    assert maximum_cycle_ratio(to_hsdf(gallery_graph(name))).ratio == GALLERY_RATIOS[name]


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(200))
def test_mcm_equals_statespace_on_random_corpus(seed):
    graph = random_consistent_graph(random.Random(seed))
    for actor in graph.actor_names:
        assert max_throughput(graph, actor, method="mcm") == max_throughput(
            graph, actor, method="statespace"
        )
