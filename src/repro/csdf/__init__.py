"""Cyclo-Static Dataflow (CSDF) extension.

The paper's conclusions announce generalising the exact
buffer/throughput exploration "to more general data flow models"; the
SDF3 line of work did exactly that for cyclo-static dataflow
(Stuijk et al., IEEE TC 2008).  This package provides that
generalisation on top of the same machinery:

* :mod:`repro.csdf.graph` — actors with *phase-dependent* execution
  times and port rates (rates may be zero in individual phases),
* :mod:`repro.csdf.repetitions` — consistency and the phase-aware
  repetition vector,
* :mod:`repro.csdf.executor` — deterministic self-timed execution: the
  reference executor of :mod:`repro.engine`, whose actors are phase
  tables, under the name :class:`CSDFExecutor`,
* :mod:`repro.csdf.bounds` — sound (conservative) storage bounds,
* :mod:`repro.csdf.explorer` — the maximal throughput and a shorthand
  for the exploration.

A CSDF graph is an ordinary input of the SDF pipeline:
:func:`repro.buffers.explorer.explore_design_space` and
:func:`~repro.buffers.explorer.minimal_distribution_for_throughput`
accept it and return the same results as for SDF graphs.  Its probes
run on the reference backend of the evaluation service, so memo,
budgets, checkpoints, telemetry, workers, the bounds oracle and all
three strategies apply unchanged.

An SDF graph is exactly a CSDF graph whose actors all have one phase;
the test suite checks that a one-phase lift runs exactly as the SDF
graph does.
"""

from repro.csdf.bounds import csdf_lower_bound_distribution, csdf_upper_bound_distribution
from repro.csdf.executor import CSDFExecutor
from repro.csdf.explorer import csdf_max_throughput, explore_csdf_design_space
from repro.csdf.graph import CSDFActor, CSDFChannel, CSDFGraph, from_sdf
from repro.csdf.repetitions import (
    csdf_firings_per_iteration,
    csdf_is_consistent,
    csdf_repetition_vector,
)

__all__ = [
    "CSDFActor",
    "CSDFChannel",
    "CSDFExecutor",
    "CSDFGraph",
    "csdf_firings_per_iteration",
    "csdf_is_consistent",
    "csdf_lower_bound_distribution",
    "csdf_max_throughput",
    "csdf_repetition_vector",
    "csdf_upper_bound_distribution",
    "explore_csdf_design_space",
    "from_sdf",
]
