"""Throughput of an SDF graph (Secs. 5-7 of the paper).

``throughput(graph, capacities)`` is the exact average number of
firings per time step of an observed actor under self-timed execution
with the given storage distribution, computed by running the reduced
state space to its cycle.

``max_throughput(graph)`` is the maximal achievable throughput over
*all* storage distributions — the value the paper obtains via [GG93]
and uses as the upper end of its binary search.  Two methods are
provided and cross-validated in the test suite:

* ``"statespace"`` — execute with the conservative upper-bound
  distribution of [GGD02] and verify stability by enlarging it;
* ``"mcm"`` — expand to HSDF and take ``q[a] / MCR`` with the maximum
  cycle ratio restricted to cycles constraining the observed actor.
"""

from __future__ import annotations

from fractions import Fraction
from collections.abc import Callable, Mapping

from repro.analysis.consistency import assert_consistent
from repro.engine.executor import ExecutionResult, Executor, execute
from repro.exceptions import AnalysisError
from repro.graph.graph import SDFGraph
from repro.graph.properties import weakly_connected_components


def analyze(
    graph: SDFGraph,
    capacities: Mapping[str, int] | None = None,
    observe: str | None = None,
    **kwargs,
) -> ExecutionResult:
    """Full execution result for *graph* under *capacities*.

    Runs :func:`~repro.engine.executor.execute`: the fast event-calendar
    kernel of :mod:`repro.engine.fastcore`, or the reference executor
    when an option (*kwargs*) needs it.
    """
    assert_consistent(graph)
    return execute(graph, capacities, observe, **kwargs)


def throughput(
    graph: SDFGraph,
    capacities: Mapping[str, int] | None = None,
    observe: str | None = None,
    **kwargs,
) -> Fraction:
    """Exact throughput of the observed actor (0 on deadlock)."""
    return analyze(graph, capacities, observe, **kwargs).throughput


#: Above this many HSDF nodes ``method="auto"`` avoids the exact MCM
#: computation and falls back to the adaptive state-space method.
_AUTO_MCM_NODE_LIMIT = 2000


def all_actor_throughputs(
    graph: SDFGraph,
    capacities: Mapping[str, int] | None = None,
    **kwargs,
) -> dict[str, Fraction]:
    """Throughput of every actor under one storage distribution.

    In a periodic steady state all actors of a weakly connected
    component fire at rates proportional to the repetition vector, so
    one execution per component suffices: the observed actor's
    throughput is scaled by ``q[a] / q[observed]`` for the rest.  A
    deadlocked component reports zero everywhere (a deadlock starves
    every actor of a connected consistent graph eventually).
    """
    from repro.analysis.repetitions import repetition_vector

    q = assert_consistent(graph)
    del q  # consistency guard; per-component vectors computed below
    throughputs: dict[str, Fraction] = {}
    for component in weakly_connected_components(graph):
        members = [name for name in graph.actor_names if name in component]
        observe = members[-1]
        result = Executor(graph, capacities, observe, **kwargs).run()
        q = repetition_vector(graph)
        base = result.throughput / q[observe]
        for name in members:
            throughputs[name] = base * q[name]
    return throughputs


def max_throughput(
    graph: SDFGraph,
    observe: str | None = None,
    method: str = "auto",
    confirmations: int = 1,
    evaluator: "Callable[[Mapping[str, int]], Fraction] | None" = None,
) -> Fraction:
    """Maximal achievable throughput over all storage distributions.

    Parameters
    ----------
    method:
        ``"auto"`` (default) uses the exact MCM computation when the
        HSDF expansion is small enough and the adaptive state-space
        method otherwise; ``"statespace"`` and ``"mcm"`` force one of
        the two.
    confirmations:
        For the state-space method: how many doublings of the
        upper-bound distribution must leave the throughput unchanged
        before it is accepted.
    evaluator:
        Optional throughput oracle (typically a
        :class:`~repro.buffers.evalcache.EvaluationService`) the
        state-space method routes its executions through, so they are
        memoised and counted alongside an exploration's other probes.
    """
    q = assert_consistent(graph)  # memoised per graph
    if observe is None:
        observe = graph.actor_names[-1]
    if method == "auto":
        if sum(q.values()) <= _AUTO_MCM_NODE_LIMIT:
            try:
                return _max_throughput_mcm(graph, observe, q)
            except AnalysisError:
                pass
        return _max_throughput_statespace(graph, observe, max(confirmations, 2), evaluator)
    if method == "mcm":
        return _max_throughput_mcm(graph, observe, q)
    if method == "statespace":
        return _max_throughput_statespace(graph, observe, confirmations, evaluator)
    raise AnalysisError(f"unknown max-throughput method {method!r}")


def _max_throughput_mcm(graph: SDFGraph, observe: str, q: Mapping[str, int]) -> Fraction:
    # With *finite* storage every channel exerts backpressure, so in
    # steady state all actors of a weakly connected component fire at
    # rates proportional to the repetition vector and the iteration
    # rate is bounded by the slowest cycle anywhere in the component —
    # not only by cycles that reach the observed actor (that weaker
    # restriction describes the unbounded-buffer limit, where an
    # upstream part may outrun its consumers forever).
    from repro.analysis.hsdf import HSDFGraph, to_hsdf
    from repro.analysis.mcm import maximum_cycle_ratio

    component = next(comp for comp in weakly_connected_components(graph) if observe in comp)
    hsdf = to_hsdf(graph)
    restricted = HSDFGraph(hsdf.name)
    restricted.nodes = {node: time for node, time in hsdf.nodes.items() if node[0] in component}
    restricted.edges = {
        (src, dst): delay for (src, dst), delay in hsdf.edges.items() if src[0] in component
    }
    result = maximum_cycle_ratio(restricted)
    if result.ratio == 0:
        raise AnalysisError(
            f"all cycles constraining {observe!r} have zero execution time;"
            " the throughput is unbounded"
        )
    return Fraction(q[observe]) / result.ratio


def _max_throughput_statespace(
    graph: SDFGraph,
    observe: str,
    confirmations: int,
    evaluator: "Callable[[Mapping[str, int]], Fraction] | None" = None,
) -> Fraction:
    from repro.buffers.bounds import upper_bound_distribution
    from repro.buffers.frontier import adaptive_maximum

    def run(capacities: Mapping[str, int]) -> Fraction:
        return Executor(graph, capacities, observe).run().throughput

    return adaptive_maximum(
        evaluator if evaluator is not None else run,
        upper_bound_distribution(graph),
        confirmations,
    )
