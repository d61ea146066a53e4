"""Timed self-timed execution of SDF graphs.

This package implements the operational model of Secs. 2 and 6 of the
paper:

* an actor may start firing as soon as (a) its previous firing
  finished, (b) every input channel holds at least the consumption
  rate, and (c) every output channel has free space for the production
  rate — space is *claimed* for the whole duration of the firing;
* input tokens are consumed (their space released) and output tokens
  written at the *end* of the firing;
* all enabled actors fire immediately (self-timed / ASAP execution),
  which makes the execution deterministic and throughput-maximal for
  the given storage distribution (Sec. 5).

Because each channel has exactly one producer, the capacity claim can
be folded into the start condition ``tokens + production <= capacity``
without an explicit claim counter; during the firing nothing but the
unique producer could add tokens, so occupancy never exceeds the value
checked at the start.  The state of Definition 5 — actor clocks plus
channel quantities — therefore fully determines the execution.

Two equivalent drivers are provided: a paper-faithful tick-driven loop
(one iteration per time step, as in the generated code of Fig. 8) and
an event-driven loop that jumps to the next firing completion, which is
asymptotically faster for graphs with large execution times.

The reference :class:`Executor` is the one Python simulator of this
model: it also runs CSDF graphs (each actor a table of phases) and one
quota'd iteration per call, the SADF makespan.  On top of it,
:mod:`repro.engine.fastcore` provides a compiled event-calendar kernel
(:class:`FastKernel`) that computes bit-for-bit identical results for
plain and blocking-tracking SDF runs; :func:`execute` (and
:func:`repro.analysis.throughput.analyze`) runs one execution on it
unless an option needs the reference executor.

:mod:`repro.engine.backends` packages both kernels (plus a compiled C
kernel) behind the
:class:`ProbeBackend` registry — the one seam through which the
exploration layers run every probe, selected by
``ExplorationConfig.backend``.
"""

from repro.engine.backends import (
    EvalResult,
    ProbeBackend,
    backend_for,
    backend_names,
    register_backend,
)
from repro.engine.concurrent import ConcurrentExecutor
from repro.engine.executor import ExecutionResult, Executor, execute
from repro.engine.fastcore import FastKernel, fast_execute
from repro.engine.schedule import Schedule
from repro.engine.state import SDFState
from repro.engine.statestore import StateStore

__all__ = [
    "ConcurrentExecutor",
    "EvalResult",
    "ExecutionResult",
    "Executor",
    "FastKernel",
    "ProbeBackend",
    "SDFState",
    "Schedule",
    "StateStore",
    "backend_for",
    "backend_names",
    "execute",
    "fast_execute",
    "register_backend",
]
