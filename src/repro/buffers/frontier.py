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
in its own — an evaluation-service query
(:func:`repro.buffers.dependencies.dependency_sweep`), a CSDF execution
(:mod:`repro.csdf.explorer`) or the worst case over every reachable
scenario (:mod:`repro.sadf.explorer`).  :func:`adaptive_maximum` is the
"evaluate at the upper bound, double until stable" maximum they use.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Container, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from repro.buffers.distribution import StorageDistribution
from repro.exceptions import BudgetExhausted


class Probe(NamedTuple):
    """What the sweep learns from evaluating one distribution.

    ``deficits()`` maps every channel whose lack of space blocked a
    firing to its minimal observed deficit.  The sweep records
    ``value`` first and calls ``deficits()`` only for values below its
    target, so a probe may defer its blocking analysis until then.
    """

    value: Fraction
    deficits: Callable[[], Mapping[str, int]]
    states_stored: int = 0


@dataclass
class DependencyStats:
    """Bookkeeping of one dependency-guided sweep."""

    evaluations: int = 0
    max_states_stored: int = 0
    expansions: int = 0
    duplicates_skipped: int = 0


@dataclass(frozen=True)
class DependencySweepResult:
    """All distributions evaluated by the sweep, with their values.

    ``complete`` is ``False`` when a run-controller budget interrupted
    the sweep; ``pending`` then lists the frontier distributions that
    were queued but never evaluated, the interrupted one first
    (informational — resuming replays from the seed over the warm
    cache), and ``exhausted`` names the tripped limit.
    """

    evaluations: dict[StorageDistribution, Fraction]
    stats: DependencyStats
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
    probe_level: Callable[..., list[Probe]] | None = None,
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

    ``probe_level(level, upcoming)`` may evaluate all distributions of
    one size at once — every expansion strictly grows the size, so they
    are all queued before any is probed — where ``upcoming(n)`` lists
    the *n* cheapest queued ones.  Its results are folded in serial
    order, so the outcome is the serial one.

    A :class:`~repro.exceptions.BudgetExhausted` from a probe returns
    everything evaluated so far with ``complete=False``.
    """
    stats = DependencyStats()
    evaluations: dict[StorageDistribution, Fraction] = {}
    heap: list[tuple[int, tuple[int, ...], StorageDistribution]] = []
    queued: set[StorageDistribution] = set()

    def cost(distribution: StorageDistribution) -> int:
        return distribution.weighted_size(token_sizes)

    def push(distribution: StorageDistribution) -> None:
        if distribution in queued or distribution in evaluations or distribution in known:
            stats.duplicates_skipped += 1
            return
        if max_size is not None and cost(distribution) > max_size:
            return
        queued.add(distribution)
        heapq.heappush(
            heap, (cost(distribution), tuple(distribution[name] for name in order), distribution)
        )

    def upcoming(count: int) -> list[StorageDistribution]:
        return [entry[2] for entry in heapq.nsmallest(count, heap)]

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
            probes = (
                probe_level(level, upcoming)
                if probe_level is not None and len(level) > 1
                else None
            )
            for done, distribution in enumerate(level):
                result = probes[done] if probes is not None else probe(distribution)
                stats.evaluations += 1
                stats.max_states_stored = max(stats.max_states_stored, result.states_stored)
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
                    stats.expansions += 1
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
        stats,
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
