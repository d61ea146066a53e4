"""Iteration makespan of one scenario under bounded buffers.

The scenario-switch protocol analysed by :mod:`repro.sadf.throughput`
is *barriered*: before the FSM takes a transition, the running
scenario completes its current iteration (every actor fires its
repetition count) and the channels return to the skeleton's initial
token marking; the transition delay then elapses before the next
scenario starts.  The cost of one such barriered iteration is the
scenario's **iteration makespan**: the completion time of a self-timed
execution, from the initial marking, in which each actor fires exactly
its repetition-vector count.

That execution is the reference executor's quota'd iteration
(:meth:`repro.engine.executor.Executor.run_iteration`): the executor's
semantics exactly — the paper's conservative claim model, tokens moving
at the *end* of a firing, simultaneous starts, zero-time cascades —
with a per-actor firing quota; an actor whose quota is met stops
firing, which is precisely the barrier.

Because one iteration returns every channel to its initial marking,
the makespan is also the exact period of the *barriered* (non-
pipelined) repetition of the scenario, which is what the worst-case
cycle ratios of :mod:`repro.sadf.throughput` sum up.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.analysis.repetitions import repetition_vector
from repro.engine.executor import Executor, MakespanResult
from repro.graph.graph import SDFGraph

__all__ = ["MakespanResult", "iteration_makespan"]


def iteration_makespan(
    graph: SDFGraph,
    capacities: Mapping[str, int],
    repetitions: Mapping[str, int] | None = None,
) -> MakespanResult:
    """Makespan of one repetition-vector iteration of *graph* under
    *capacities* (``None`` time on deadlock)."""
    executor = Executor(graph, capacities)
    if repetitions is None:
        repetitions = repetition_vector(graph)
    return executor.run_iteration(repetitions)
