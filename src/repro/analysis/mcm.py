"""Exact maximum cycle ratio of an HSDF graph.

For a homogeneous SDF graph the self-timed steady-state period equals
the *maximum cycle ratio* (MCR)

    MCR = max over directed cycles  (sum of execution times on the
          cycle) / (sum of edge delays on the cycle),

and the maximal throughput of a node is ``1 / MCR(restricted to cycles
that can reach the node)`` — the classical result used by the paper
([GG93]) as the upper bound of its throughput binary search.

The engine, :func:`cycle_ratio`, works on plain integer edge lists
``(src, dst, weight, transit)`` over node indices; an HSDF graph is one
client (weight: execution time of the producing copy, transit: delay).
Each strongly connected component (iterative Tarjan) gets an exact
Lawler search: a binary search over candidates ``lam = p/q`` narrows
the ratio to an interval holding a unique fraction with denominator at
most the component's transit sum, which is then recovered and
verified; the verifying test also yields one cycle attaining it.  The
predicate "does a cycle with ``sum(w - lam * d) > 0`` exist" is
decided by Bellman-Ford on the integer costs ``w*q - p*d``: for
``q > 0`` a cycle's cost sum is ``q`` times its ``sum(w - lam*d)``, so
the sign, and with it every verdict of the search, is that of the
rational predicate, and no :class:`~fractions.Fraction` enters the
relaxation loop.  Cycles among delay-free or tight edges are found by
Kahn's algorithm.  The scenario automaton of an FSM-SADF graph is the
other client (:mod:`repro.sadf.throughput`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from repro.analysis.hsdf import HSDFGraph
from repro.exceptions import AnalysisError

Node = tuple[str, int]

#: An edge of the integer engine: ``(src, dst, weight, transit)`` over
#: node indices ``0 .. n-1``.  A cycle's ratio is the sum of its weights
#: over the sum of its transits.
Edge = tuple[int, int, int, int]

#: Result of the parametric feasibility test.
_ABOVE, _EQUAL, _BELOW = 1, 0, -1


@dataclass(frozen=True)
class CycleRatioResult:
    """Outcome of :func:`maximum_cycle_ratio`.

    ``ratio`` is the maximum cycle ratio; ``critical_scc`` lists the
    nodes of one strongly connected component attaining it.
    """

    ratio: Fraction
    critical_scc: frozenset[Node]


def maximum_cycle_ratio(hsdf: HSDFGraph, reaching: Node | None = None) -> CycleRatioResult:
    """The maximum cycle ratio of *hsdf*.

    Parameters
    ----------
    reaching:
        When given, only cycles from which *reaching* is reachable are
        considered — those are exactly the cycles that throttle the
        self-timed firing rate of that node.

    Raises
    ------
    AnalysisError
        If the graph contains a cycle with zero total delay (the graph
        deadlocks: a firing transitively depends on itself within one
        iteration), or if no cycle constrains the requested node.
    """
    nodes = list(hsdf.nodes)
    index = {node: position for position, node in enumerate(nodes)}
    if reaching is not None and reaching not in index:
        raise AnalysisError(f"node {reaching!r} is not in the HSDF graph")
    # Edge weight: execution time of the *producing* node, so a cycle's
    # weight sum is the sum of execution times along it.
    edges = [
        (index[src], index[dst], hsdf.nodes[src], delay)
        for (src, dst), delay in hsdf.edges.items()
    ]
    found = cycle_ratio(len(nodes), edges, None if reaching is None else index[reaching])
    if found is None:
        raise AnalysisError(
            "no cycle constrains the computation"
            + (f" of node {reaching!r}" if reaching is not None else "")
        )
    ratio, component, _cycle = found
    return CycleRatioResult(ratio, frozenset(nodes[position] for position in component))


def max_throughput_from_mcr(hsdf: HSDFGraph, node: Node) -> Fraction:
    """Maximal self-timed firings/time-step of *node* (= 1 / MCR)."""
    result = maximum_cycle_ratio(hsdf, reaching=node)
    if result.ratio == 0:
        raise AnalysisError(
            "maximum cycle ratio is zero (all-zero execution times on every"
            " constraining cycle); the throughput is unbounded"
        )
    return 1 / result.ratio


def cycle_ratio(
    num_nodes: int, edges: Sequence[Edge], reaching: int | None = None
) -> tuple[Fraction, list[int], list[int]] | None:
    """Maximum cycle ratio of a digraph on nodes ``0 .. num_nodes-1``.

    Returns the ratio, the nodes of the first strongly connected
    component attaining it, in Tarjan's completion order (downstream
    components first), and one cycle of that component attaining it,
    as positions in *edges* in the order a walk takes them; or ``None``
    when no cycle is considered.  With *reaching* given, only cycles
    from which that node is reachable are considered.  Weights and
    transits are non-negative integers; a considered component with a
    zero-transit cycle raises :class:`~repro.exceptions.AnalysisError`.
    """
    successors: list[list[int]] = [[] for _ in range(num_nodes)]
    for src, dst, _weight, _transit in edges:
        successors[src].append(dst)
    component_of = _strongly_connected_components(successors)
    inner: dict[int, list[int]] = {}
    for position, (src, dst, _weight, _transit) in enumerate(edges):
        if component_of[src] == component_of[dst]:
            inner.setdefault(component_of[src], []).append(position)
    reaches = None if reaching is None else _ancestors(num_nodes, edges, reaching)

    best: tuple[Fraction, list[int], list[int]] | None = None
    for component in sorted(inner):
        positions = inner[component]
        if reaches is not None and not reaches[edges[positions[0]][0]]:
            continue
        members = sorted({edges[position][0] for position in positions})
        local = {node: index for index, node in enumerate(members)}
        ratio, cycle = _component_ratio(
            len(members),
            [
                (local[src], local[dst], weight, transit)
                for src, dst, weight, transit in (edges[position] for position in positions)
            ],
        )
        if best is None or ratio > best[0]:
            best = (ratio, members, [positions[index] for index in cycle])
    return best


def _strongly_connected_components(successors: list[list[int]]) -> list[int]:
    """Component number of every node (Tarjan's algorithm, iterative)."""
    order = [-1] * len(successors)  # discovery index
    low = [0] * len(successors)
    component_of = [-1] * len(successors)
    stack: list[int] = []
    discovered = components = 0
    for root in range(len(successors)):
        if order[root] >= 0:
            continue
        order[root] = low[root] = discovered
        discovered += 1
        stack.append(root)
        work = [(root, 0)]
        while work:
            node, next_edge = work[-1]
            if next_edge < len(successors[node]):
                work[-1] = (node, next_edge + 1)
                successor = successors[node][next_edge]
                if order[successor] < 0:
                    order[successor] = low[successor] = discovered
                    discovered += 1
                    stack.append(successor)
                    work.append((successor, 0))
                elif component_of[successor] < 0:  # still on the stack
                    low[node] = min(low[node], order[successor])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == order[node]:
                while True:
                    member = stack.pop()
                    component_of[member] = components
                    if member == node:
                        break
                components += 1
    return component_of


def _ancestors(num_nodes: int, edges: Sequence[Edge], target: int) -> list[bool]:
    """Which nodes reach *target* (the target included)."""
    predecessors: list[list[int]] = [[] for _ in range(num_nodes)]
    for src, dst, _weight, _transit in edges:
        predecessors[dst].append(src)
    reaches = [False] * num_nodes
    reaches[target] = True
    stack = [target]
    while stack:
        for predecessor in predecessors[stack.pop()]:
            if not reaches[predecessor]:
                reaches[predecessor] = True
                stack.append(predecessor)
    return reaches


def _component_ratio(num_nodes: int, edges: list[Edge]) -> tuple[Fraction, list[int]]:
    """Exact MCR of one strongly connected component, and the positions
    in *edges* of one cycle attaining it."""
    if _find_cycle(num_nodes, [(src, dst) for src, dst, _weight, transit in edges if transit == 0]):
        raise AnalysisError(
            "HSDF graph has a delay-free dependency cycle; the graph deadlocks"
        )

    total_weight = sum(weight for _src, _dst, weight, _transit in edges)
    total_transit = sum(transit for _src, _dst, _weight, transit in edges)
    max_denominator = max(total_transit, 1)

    low = Fraction(0)
    high = Fraction(total_weight)
    verdict, cycle = _positive_cycle_test(num_nodes, edges, high)
    if verdict == _EQUAL:
        return high, cycle
    verdict, cycle = _positive_cycle_test(num_nodes, edges, low)
    if verdict == _EQUAL:
        return low, cycle
    if verdict == _BELOW:
        raise AnalysisError("internal error: cycle ratio below zero")

    # Invariant: MCR in (low, high).
    resolution = Fraction(1, 2 * max_denominator * max_denominator)
    for _ in range(512):
        if high - low < resolution:
            candidate = ((low + high) / 2).limit_denominator(max_denominator)
        else:
            candidate = (low + high) / 2
        verdict, cycle = _positive_cycle_test(num_nodes, edges, candidate)
        if verdict == _EQUAL:
            return candidate, cycle
        if verdict == _ABOVE:
            low = candidate
        else:
            high = candidate
    raise AnalysisError("maximum cycle ratio search failed to converge")


def _positive_cycle_test(
    num_nodes: int, edges: list[Edge], lam: Fraction
) -> tuple[int, list[int]]:
    """Compare the MCR with *lam* = p/q.

    Uses Bellman-Ford longest-path relaxation on the integer edge costs
    ``weight*q - p*transit`` (``q`` times ``weight - lam*transit``): a
    relaxable edge after ``V`` rounds means a positive-cost cycle
    (MCR > lam); otherwise a zero-cost cycle is detected by checking
    for a cycle among tight edges (MCR == lam, and that cycle, as
    positions in *edges*, attains it); otherwise MCR < lam.
    """
    p, q = lam.numerator, lam.denominator
    costs = [(src, dst, weight * q - p * transit) for src, dst, weight, transit in edges]
    distance = [0] * num_nodes

    for _ in range(num_nodes):
        changed = False
        for src, dst, cost in costs:
            candidate = distance[src] + cost
            if candidate > distance[dst]:
                distance[dst] = candidate
                changed = True
        if not changed:
            break
    else:
        # Still relaxing after V rounds: positive cycle.
        if any(distance[src] + cost > distance[dst] for src, dst, cost in costs):
            return _ABOVE, []

    # No positive cycle; look for a zero-cost ("tight") cycle.
    tight = [
        position
        for position, (src, dst, cost) in enumerate(costs)
        if distance[src] + cost == distance[dst]
    ]
    cycle = _find_cycle(num_nodes, [costs[position][:2] for position in tight])
    if not cycle:
        return _BELOW, []
    return _EQUAL, [tight[index] for index in cycle]


def _find_cycle(num_nodes: int, arcs: list[tuple[int, int]]) -> list[int]:
    """Positions in *arcs* of one cycle they close, in walk order, or
    ``[]`` when they close none.

    Kahn's algorithm removes every node outside all cycles.  Each node
    left keeps an arc from another node left, so walking those arcs
    backwards from any of them must repeat a node: the arcs between its
    two visits form the cycle.
    """
    successors: list[list[int]] = [[] for _ in range(num_nodes)]
    indegree = [0] * num_nodes
    for src, dst in arcs:
        successors[src].append(dst)
        indegree[dst] += 1
    ready = [node for node in range(num_nodes) if indegree[node] == 0]
    while ready:
        for successor in successors[ready.pop()]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                ready.append(successor)
    incoming: dict[int, int] = {}
    for position, (src, dst) in enumerate(arcs):
        if indegree[src] and indegree[dst]:
            incoming.setdefault(dst, position)
    if not incoming:
        return []
    node = next(iter(incoming))
    visited: dict[int, int] = {}
    walk: list[int] = []
    while node not in visited:
        visited[node] = len(walk)
        walk.append(incoming[node])
        node = arcs[incoming[node]][0]
    return walk[visited[node]:][::-1]
