"""Storage distributions and the storage/throughput design space.

This package is the paper's primary contribution:

* :mod:`repro.buffers.distribution` — storage distributions
  (Definitions 1-2),
* :mod:`repro.buffers.bounds` — per-channel and combined bounds on the
  meaningful design space (Sec. 8, Fig. 7),
* :mod:`repro.buffers.enumerate` — enumeration of the distributions of
  a given size inside the bound box,
* :mod:`repro.buffers.pareto` — Pareto points / minimal storage
  distributions,
* :mod:`repro.buffers.search` — the paper's exploration strategies:
  exhaustive size sweep and divide-and-conquer over the size dimension
  with (optionally quantised) binary search in the throughput
  dimension (Sec. 9),
* :mod:`repro.buffers.dependencies` — a storage-dependency-guided
  strategy (SDF3's refinement; its sweep, :mod:`repro.buffers.frontier`,
  also drives CSDF and SADF), exact and usually far cheaper,
* :mod:`repro.buffers.explorer` — the orchestrating public API.
"""

from repro.buffers.bounds import (
    channel_lower_bound,
    channel_upper_bound,
    lower_bound_distribution,
    upper_bound_distribution,
    verified_upper_bound_distribution,
)
from repro.buffers.distribution import StorageDistribution
from repro.buffers.explorer import (
    DesignSpaceResult,
    explore_design_space,
    maximal_throughput_point,
    minimal_distribution_for_throughput,
)
from repro.buffers.pareto import ParetoFront, ParetoPoint
from repro.buffers.shared import (
    SharedMemoryReport,
    compare_storage_models,
    shared_memory_requirement,
)

__all__ = [
    "DesignSpaceResult",
    "ParetoFront",
    "ParetoPoint",
    "SharedMemoryReport",
    "StorageDistribution",
    "compare_storage_models",
    "shared_memory_requirement",
    "channel_lower_bound",
    "channel_upper_bound",
    "explore_design_space",
    "lower_bound_distribution",
    "maximal_throughput_point",
    "minimal_distribution_for_throughput",
    "upper_bound_distribution",
    "verified_upper_bound_distribution",
]
