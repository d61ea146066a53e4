"""Exact buffer/throughput exploration for CSDF graphs.

The storage-dependency-guided sweep of :mod:`repro.buffers.frontier`
transfers verbatim: the CSDF execution is deterministic, enlarging a
channel that never blocked a firing cannot change it, and a blocked
channel must grow by at least its minimal observed deficit before any
decision changes.  Its probe here is one blocking-tracking
:class:`~repro.csdf.executor.CSDFExecutor` run per distribution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from repro.buffers.distribution import StorageDistribution
from repro.buffers.frontier import Probe, adaptive_maximum, frontier_sweep
from repro.buffers.pareto import ParetoFront
from repro.csdf.bounds import csdf_lower_bound_distribution, csdf_upper_bound_distribution
from repro.csdf.executor import CSDFExecutor
from repro.csdf.graph import CSDFGraph
from repro.csdf.repetitions import csdf_repetition_vector
from repro.exceptions import ExplorationError


@dataclass(frozen=True)
class CSDFDesignSpaceResult:
    """Outcome of :func:`explore_csdf_design_space`."""

    graph_name: str
    observe: str
    front: ParetoFront
    evaluations: int
    max_states_stored: int
    wall_time_s: float
    lower_bounds: StorageDistribution
    upper_bounds: StorageDistribution
    max_throughput: Fraction


def csdf_max_throughput(
    graph: CSDFGraph, observe: str | None = None, confirmations: int = 2
) -> Fraction:
    """Maximal throughput over all storage distributions.

    Computed with the adaptive state-space method: execute at the
    conservative upper bound and double until the value is stable for
    *confirmations* consecutive doublings.
    """
    csdf_repetition_vector(graph)  # consistency guard
    return adaptive_maximum(
        lambda capacities: CSDFExecutor(graph, capacities, observe).run().throughput,
        csdf_upper_bound_distribution(graph),
        confirmations,
    )


def explore_csdf_design_space(
    graph: CSDFGraph,
    observe: str | None = None,
    *,
    max_size: int | None = None,
) -> CSDFDesignSpaceResult:
    """Chart the storage/throughput Pareto space of a CSDF graph."""
    if observe is None:
        observe = graph.actor_names[-1]
    started = time.perf_counter()
    lower = csdf_lower_bound_distribution(graph)
    upper = csdf_upper_bound_distribution(graph)
    max_thr = csdf_max_throughput(graph, observe)

    def probe(distribution: StorageDistribution) -> Probe:
        run = CSDFExecutor(graph, distribution, observe, track_blocking=True).run()
        return Probe(
            run.throughput,
            lambda: {channel: run.space_deficits.get(channel, 1) for channel in run.space_blocked},
            run.states_stored,
        )

    # A graph deadlocking at every distribution (maximum 0) reaches its
    # target at the seed already: nothing to grow.
    sweep = frontier_sweep(
        lower, probe, lambda value: value >= max_thr, graph.channel_names, max_size=max_size
    )
    return CSDFDesignSpaceResult(
        graph_name=graph.name,
        observe=observe,
        front=ParetoFront.from_evaluations(sweep.evaluations),
        evaluations=len(sweep.evaluations),
        max_states_stored=sweep.stats.max_states_stored,
        wall_time_s=time.perf_counter() - started,
        lower_bounds=lower,
        upper_bounds=upper,
        max_throughput=max_thr,
    )


def csdf_minimal_distribution_for_throughput(
    graph: CSDFGraph, constraint: Fraction, observe: str | None = None
) -> tuple[StorageDistribution, Fraction] | None:
    """Smallest CSDF storage distribution meeting *constraint*."""
    if constraint <= 0:
        raise ExplorationError("the throughput constraint must be positive")
    if constraint > csdf_max_throughput(graph, observe):
        return None
    result = explore_csdf_design_space(graph, observe)
    point = result.front.smallest_for(constraint)
    if point is None:
        return None
    return point.distribution, point.throughput
