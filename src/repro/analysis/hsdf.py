"""SDF to homogeneous SDF (HSDF) expansion.

Every actor ``a`` of the SDF graph is replaced by ``q[a]`` copies
``(a, 0) .. (a, q[a]-1)``, one per firing within an iteration, and
every token-level dependency becomes a rate-1 edge carrying an
iteration *delay* (number of initial tokens on the HSDF edge).  The
expansion (Sriram & Bhattacharyya) is the substrate for the
maximum-cycle-ratio computation of the maximal achievable throughput
([GG93], used by the paper in Sec. 9 as the upper bound of the
throughput binary search).

Derivation of the dependency formula used below.  Number firings
globally from 1 and tokens in FIFO order, initial tokens being numbers
``1..d``.  Consumer firing ``J`` consumes tokens ``(J-1)*c+1 .. J*c``;
its binding dependency is on the producer firing that produces token
``J*c``, i.e. global producer firing ``K = ceil((J*c - d)/p)``.
Writing ``J = m*q_dst + v + 1`` (copy ``v``, iteration ``m``) and using
the balance equation ``q_dst*c == q_src*p`` gives
``K = m*q_src + K0`` with ``K0 = ceil(((v+1)*c - d)/p)`` independent of
``m``.  Hence the HSDF edge runs from producer copy
``u = (K0-1) mod q_src`` to consumer copy ``v`` with delay
``delta = -((K0-1) // q_src)`` (floor division), which is 0 for
``1 <= K0 <= q_src`` and grows by one per iteration the dependency
reaches back.  ``K0 <= 0`` for all ``v`` (i.e. ``d >= q_dst*c``) means
the channel imposes no steady-state dependency at all and no edge is
added.

A per-actor cycle ``(a,0) -> (a,1) -> .. -> (a,q[a]-1) -> (a,0)`` with
one token on the closing edge encodes the no-auto-concurrency rule of
the execution model (Sec. 2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

from repro.analysis.consistency import assert_consistent
from repro.exceptions import AnalysisError
from repro.graph.graph import SDFGraph

#: Refuse to build HSDF graphs larger than this many nodes by default;
#: expansions are quadratic-ish in memory and the caller should opt in.
DEFAULT_NODE_LIMIT = 200_000


@dataclass
class HSDFGraph:
    """A homogeneous SDF graph produced by :func:`to_hsdf`.

    ``nodes`` maps ``(actor, copy)`` to the actor's execution time;
    ``edges`` maps ``((src, u), (dst, v))`` to the delay (initial token
    count) of the tightest dependency between the two copies.
    """

    name: str
    nodes: dict[tuple[str, int], int] = field(default_factory=dict)
    edges: dict[tuple[tuple[str, int], tuple[str, int]], int] = field(default_factory=dict)

    def add_edge(self, src: tuple[str, int], dst: tuple[str, int], delay: int) -> None:
        """Insert the edge, keeping only the tightest (minimal) delay."""
        key = (src, dst)
        known = self.edges.get(key)
        if known is None or delay < known:
            self.edges[key] = delay

    @property
    def num_nodes(self) -> int:
        """Number of actor copies."""
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """Number of (deduplicated) dependency edges."""
        return len(self.edges)

    def copies(self, actor: str) -> list[tuple[str, int]]:
        """All copies of *actor*, in firing order."""
        return sorted(node for node in self.nodes if node[0] == actor)


def to_hsdf(
    graph: SDFGraph,
    *,
    model_auto_concurrency: bool = True,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> HSDFGraph:
    """Expand *graph* into its homogeneous equivalent.

    Parameters
    ----------
    model_auto_concurrency:
        When true (default, matching the paper's execution model), a
        one-token cycle through each actor's copies serialises its
        firings.
    node_limit:
        Safety bound on the expansion size; exceeded limits raise
        :class:`~repro.exceptions.AnalysisError`.
    """
    q = assert_consistent(graph)  # memoised per graph
    total_copies = sum(q.values())
    if total_copies > node_limit:
        raise AnalysisError(
            f"HSDF expansion of {graph.name!r} needs {total_copies} nodes,"
            f" above the limit of {node_limit}"
        )

    hsdf = HSDFGraph(f"{graph.name}-hsdf")
    for actor in graph.actors.values():
        for copy in range(q[actor.name]):
            hsdf.nodes[(actor.name, copy)] = actor.execution_time

    for channel in graph.channels.values():
        q_src = q[channel.source]
        q_dst = q[channel.destination]
        p = channel.production
        c = channel.consumption
        d = channel.initial_tokens
        for v in range(q_dst):
            k0 = ceil(((v + 1) * c - d) / p)
            # For k0 <= 0 the dependency reaches back one or more
            # iterations; the (positive) delay below encodes that, and
            # occurrences with m - delay < 0 are vacuously satisfied by
            # the initial tokens.
            u = (k0 - 1) % q_src
            delay = -((k0 - 1) // q_src)
            hsdf.add_edge((channel.source, u), (channel.destination, v), delay)

    if model_auto_concurrency:
        for actor in graph.actor_names:
            copies = q[actor]
            for copy in range(copies - 1):
                hsdf.add_edge((actor, copy), (actor, copy + 1), 0)
            hsdf.add_edge((actor, copies - 1), (actor, 0), 1)

    return hsdf
