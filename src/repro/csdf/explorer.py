"""Exact buffer/throughput exploration for CSDF graphs.

A :class:`~repro.csdf.graph.CSDFGraph` is an ordinary input of the SDF
pipeline: :func:`repro.buffers.explorer.explore_design_space` and
:func:`~repro.buffers.explorer.minimal_distribution_for_throughput`
accept it, take its consistency check, bound box and maximal
throughput from :func:`repro.buffers.frontier.graph_model`, and run
every probe — one :class:`~repro.csdf.executor.CSDFExecutor` run — on
the reference backend of the evaluation service.  The
storage-dependency-guided sweep transfers verbatim: the CSDF execution
is deterministic, enlarging a channel that never blocked a firing
cannot change it, and a blocked channel must grow by at least its
minimal observed deficit before any decision changes.
"""

from __future__ import annotations

from fractions import Fraction

from repro.buffers.evalcache import EvaluationService
from repro.buffers.explorer import DesignSpaceResult, explore_design_space
from repro.buffers.frontier import adaptive_maximum
from repro.csdf.bounds import csdf_upper_bound_distribution
from repro.csdf.graph import CSDFGraph
from repro.csdf.repetitions import csdf_repetition_vector


def csdf_max_throughput(
    graph: CSDFGraph, observe: str | None = None, confirmations: int = 2
) -> Fraction:
    """Maximal throughput over all storage distributions.

    Computed with the adaptive state-space method: execute at the
    conservative upper bound and double until the value is stable for
    *confirmations* consecutive doublings.
    """
    csdf_repetition_vector(graph)  # consistency guard
    with EvaluationService(graph, observe) as service:
        return adaptive_maximum(service, csdf_upper_bound_distribution(graph), confirmations)


def explore_csdf_design_space(
    graph: CSDFGraph,
    observe: str | None = None,
    *,
    max_size: int | None = None,
) -> DesignSpaceResult:
    """Chart the storage/throughput Pareto space of a CSDF graph.

    :func:`~repro.buffers.explorer.explore_design_space` with its
    defaults; call that directly for strategies, budgets, checkpoints
    and the rest of the run configuration.
    """
    return explore_design_space(graph, observe, max_size=max_size)
