"""Structural graph properties.

Convenience queries on the topology of an SDF graph: connectivity,
cycles, source/sink actors, topological order.  Several analyses use
these (e.g. maximal-throughput computation distinguishes cyclic from
acyclic graphs).  Connectivity is a union-find over the channels; the
cycle and order queries build a networkx graph and import networkx
only when called.
"""

from __future__ import annotations

from repro.exceptions import GraphError
from repro.graph.graph import SDFGraph


def is_weakly_connected(graph: SDFGraph) -> bool:
    """Whether the undirected skeleton is a single component."""
    if graph.num_actors == 0:
        raise GraphError("empty graph")
    return len(weakly_connected_components(graph)) == 1


def weakly_connected_components(graph: SDFGraph) -> list[set[str]]:
    """Actor-name sets of the weakly connected components.

    Components come in the order of their first actor in
    ``graph.actor_names``.
    """
    parent = {name: name for name in graph.actor_names}

    def root(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    for channel in graph.channels.values():
        parent[root(channel.source)] = root(channel.destination)
    components: dict[str, set[str]] = {}
    for name in graph.actor_names:
        components.setdefault(root(name), set()).add(name)
    return list(components.values())


def is_acyclic(graph: SDFGraph, ignore_initial_tokens: bool = False) -> bool:
    """Whether the graph has no directed cycle.

    With *ignore_initial_tokens* set, channels carrying initial tokens
    are removed first; the result then says whether the *dependency*
    structure of one iteration is acyclic (initial tokens break the
    precedence imposed by an edge).
    """
    import networkx as nx

    nxg = _dependency_graph(graph, ignore_initial_tokens)
    return nx.is_directed_acyclic_graph(nxg)


def simple_cycles(graph: SDFGraph) -> list[list[str]]:
    """All simple directed cycles, as actor-name lists."""
    import networkx as nx

    return [list(cycle) for cycle in nx.simple_cycles(_dependency_graph(graph, False))]


def source_actors(graph: SDFGraph) -> list[str]:
    """Actors with no incoming channels."""
    return [name for name in graph.actor_names if not graph.incoming(name)]


def sink_actors(graph: SDFGraph) -> list[str]:
    """Actors with no outgoing channels."""
    return [name for name in graph.actor_names if not graph.outgoing(name)]


def topological_order(graph: SDFGraph, ignore_initial_tokens: bool = True) -> list[str]:
    """A topological order of the (token-free) dependency structure.

    Raises :class:`GraphError` when the dependency structure is cyclic,
    i.e. when some cycle carries no initial tokens anywhere — such a
    graph deadlocks immediately.
    """
    import networkx as nx

    nxg = _dependency_graph(graph, ignore_initial_tokens)
    try:
        return list(nx.topological_sort(nxg))
    except nx.NetworkXUnfeasible:
        raise GraphError(
            f"graph {graph.name!r} has a cycle without initial tokens; no topological order exists"
        ) from None


def has_token_free_cycle(graph: SDFGraph) -> bool:
    """Whether some directed cycle carries zero initial tokens in total.

    Such a cycle deadlocks under any storage distribution: every actor
    on it waits for a token that can never be produced.
    """
    import networkx as nx

    nxg = _dependency_graph(graph, ignore_initial_tokens=True)
    return not nx.is_directed_acyclic_graph(nxg)


def _dependency_graph(graph: SDFGraph, ignore_initial_tokens: bool) -> "networkx.DiGraph":
    import networkx as nx

    nxg = nx.DiGraph()
    nxg.add_nodes_from(graph.actor_names)
    for channel in graph.channels.values():
        if ignore_initial_tokens and channel.initial_tokens > 0:
            continue
        nxg.add_edge(channel.source, channel.destination)
    return nxg
