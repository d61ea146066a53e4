"""The storage-dependency-guided sweep, shared by SDF, CSDF and SADF.

The refinement the SDF3 implementation of the paper uses: from a
lower-bound seed, pop distributions in size order and grow only the
channels whose lack of space blocked a firing, each by its smallest
observed deficit.  Exactness needs only an evaluator that is
deterministic and monotone in the capacities.  Let ``gamma*`` have a
higher value than an explored ``gamma <= gamma*`` (pointwise).  The two
executions diverge at a first instant where an actor starts under
``gamma*`` but is blocked under ``gamma`` purely by space; there every
blocking channel's deficit is at most ``gamma*[c] - gamma[c]``, so the
enqueued increment stays below ``gamma*``.  By induction some explored
distribution below ``gamma*`` reaches its value: every Pareto point has
a witness in the explored set.

:func:`frontier_sweep` is that loop over a *probe*; each explorer plugs
in its own — an evaluation-service query for SDF and CSDF graphs
(:func:`repro.buffers.dependencies.dependency_sweep`) or the worst case
over every reachable scenario (:mod:`repro.sadf.explorer`).
:func:`adaptive_maximum` is the "evaluate at the upper bound, double
until stable" maximum they use.  :func:`graph_model` is the one place
the SDF and CSDF pipelines differ: consistency check, bound box and
maximal throughput.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Container, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from repro.analysis.consistency import assert_consistent
from repro.analysis.throughput import max_throughput
from repro.buffers.bounds import lower_bound_distribution, upper_bound_distribution
from repro.buffers.distribution import StorageDistribution
from repro.exceptions import BudgetExhausted
from repro.graph.graph import SDFGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.csdf.graph import CSDFGraph


class Probe(NamedTuple):
    """What the sweep learns from evaluating one distribution.

    ``deficits()`` maps every channel whose lack of space blocked a
    firing to its minimal observed deficit.  The sweep records
    ``value`` first and calls ``deficits()`` only for values below its
    target, so a probe may defer its blocking analysis until then.
    """

    value: Fraction
    deficits: Callable[[], Mapping[str, int]]


@dataclass(frozen=True)
class DependencySweepResult:
    """All distributions evaluated by the sweep, with their values.

    ``complete`` is ``False`` when a run-controller budget interrupted
    the sweep; ``pending`` then lists the frontier distributions that
    were queued but never evaluated, the interrupted one first
    (informational — resuming replays from the seed over the warm
    cache), and ``exhausted`` names the tripped limit.  The sweep's
    cost is counted where its probes run (an evaluation service's hub).
    """

    evaluations: dict[StorageDistribution, Fraction]
    first_reaching_target: StorageDistribution | None = None
    complete: bool = True
    exhausted: str | None = None
    pending: tuple[StorageDistribution, ...] = ()


def frontier_sweep(
    seed: StorageDistribution,
    probe: Callable[[StorageDistribution], Probe],
    reached: Callable[[Fraction], bool],
    order: Sequence[str],
    *,
    max_size: int | None = None,
    token_sizes: Mapping[str, int] | None = None,
    stop_at_first: bool = False,
    known: Container[StorageDistribution] = (),
    probe_level: Callable[[list[StorageDistribution]], list[Probe]] | None = None,
    on_ceiling: Callable[[int, Fraction], None] | None = None,
) -> DependencySweepResult:
    """Explore, in size order, every distribution the probes grow to.

    *reached* tells which values end the growth of a distribution; once
    a size reaches the target, larger sizes are cut off (no Pareto point
    lies beyond it), and with *stop_at_first* the first such
    distribution — of minimal size — ends the sweep.  *order* breaks
    ties within a size; *max_size* caps the (*token_sizes*-weighted)
    size; *known* distributions are never queued.  *on_ceiling(size,
    value)* reports the first distribution reaching the target.

    ``probe_level(level)`` may evaluate all distributions of one size at
    once — every expansion strictly grows the size, so they are all
    queued before any is probed.  Its results are folded in serial
    order, so the outcome is the serial one.

    A :class:`~repro.exceptions.BudgetExhausted` from a probe returns
    everything evaluated so far with ``complete=False``.
    """
    evaluations: dict[StorageDistribution, Fraction] = {}
    heap: list[tuple[int, tuple[int, ...], StorageDistribution]] = []
    queued: set[StorageDistribution] = set()

    def cost(distribution: StorageDistribution) -> int:
        return distribution.weighted_size(token_sizes)

    def push(distribution: StorageDistribution) -> None:
        if distribution in queued or distribution in evaluations or distribution in known:
            return
        if max_size is not None and cost(distribution) > max_size:
            return
        queued.add(distribution)
        heapq.heappush(
            heap, (cost(distribution), tuple(distribution[name] for name in order), distribution)
        )

    first_reaching: StorageDistribution | None = None
    ceiling: int | None = None
    exhausted: str | None = None
    pending: tuple[StorageDistribution, ...] = ()
    level: list[StorageDistribution] = []
    done = 0

    push(seed)
    try:
        stop = False
        while heap and not stop and (ceiling is None or heap[0][0] <= ceiling):
            size = heap[0][0]
            level = []
            done = 0
            while heap and heap[0][0] == size:
                level.append(heapq.heappop(heap)[2])
            queued.difference_update(level)
            probes = probe_level(level) if probe_level is not None and len(level) > 1 else None
            for done, distribution in enumerate(level):
                result = probes[done] if probes is not None else probe(distribution)
                evaluations[distribution] = result.value
                if reached(result.value):
                    if first_reaching is None:
                        first_reaching = distribution
                        if stop_at_first:
                            stop = True
                            break
                    if ceiling is None:
                        ceiling = size
                        if on_ceiling is not None:
                            on_ceiling(size, result.value)
                    continue
                for channel, step in result.deficits().items():
                    successor = distribution.incremented(channel, step)
                    if ceiling is None or cost(successor) <= ceiling:
                        push(successor)
    except BudgetExhausted as interrupted:
        # Interruption is cooperative (between probes), so everything
        # recorded is exact; keep the unevaluated remainder of the
        # frontier for observability and return a partial result
        # instead of losing the work already paid for.
        exhausted = interrupted.reason
        pending = tuple(
            distribution for distribution in level[done:] if distribution not in evaluations
        ) + tuple(entry[2] for entry in sorted(heap))

    return DependencySweepResult(
        evaluations,
        first_reaching,
        complete=exhausted is None,
        exhausted=exhausted,
        pending=pending,
    )


def adaptive_maximum(
    evaluate: Callable[[StorageDistribution], Fraction],
    upper: StorageDistribution,
    confirmations: int,
) -> Fraction:
    """Maximal value of a capacity-monotone evaluator.

    Evaluates at the conservative *upper* bound and doubles every
    capacity until the value is unchanged for *confirmations*
    consecutive doublings.  Callers that keep the probes record them
    in *evaluate*, so a budget interruption mid-doubling keeps those
    already paid for.
    """
    probe = upper
    best = evaluate(probe)
    stable = 0
    while stable < confirmations:
        probe = probe.scaled(2)
        value = evaluate(probe)
        if value == best:
            stable += 1
        else:
            best = value
            stable = 0
    return best


class GraphModel(NamedTuple):
    """The model-specific pieces of an SDF or CSDF exploration.

    ``check()`` rejects an inconsistent graph; ``lower()`` / ``upper()``
    give the Fig. 7 bound box; ``maximum(observe, evaluator)`` is the
    maximal throughput over all distributions, its probes (if any) run
    through *evaluator*.
    """

    check: Callable[[], object]
    lower: Callable[[], StorageDistribution]
    upper: Callable[[], StorageDistribution]
    maximum: Callable[[str | None, Callable[[StorageDistribution], Fraction]], Fraction]


def graph_model(graph: "SDFGraph | CSDFGraph") -> GraphModel:
    """The :class:`GraphModel` of *graph*.

    An :class:`~repro.graph.graph.SDFGraph` gets the SDF analyses;
    anything else is a CSDF graph, whose package is imported only here.
    The CSDF maximum doubles the conservative upper bound until stable.
    """
    if isinstance(graph, SDFGraph):
        return GraphModel(
            lambda: assert_consistent(graph),
            lambda: lower_bound_distribution(graph),
            lambda: upper_bound_distribution(graph),
            lambda observe, evaluator: max_throughput(graph, observe, evaluator=evaluator),
        )
    from repro.csdf.bounds import csdf_lower_bound_distribution, csdf_upper_bound_distribution
    from repro.csdf.repetitions import csdf_repetition_vector

    return GraphModel(
        lambda: csdf_repetition_vector(graph),
        lambda: csdf_lower_bound_distribution(graph),
        lambda: csdf_upper_bound_distribution(graph),
        lambda observe, evaluator: adaptive_maximum(
            evaluator, csdf_upper_bound_distribution(graph), 2
        ),
    )
