"""Deterministic self-timed execution of CSDF graphs.

The reference :class:`~repro.engine.executor.Executor` runs CSDF graphs
itself: a *firing* executes the actor's current phase — it may start
when the phase's input rates are available and the phase's output
space can be claimed — and advances the phase counter on completion.
Phases with zero rates simply skip the corresponding condition.
Everything else (claim-at-start semantics, ASAP firing, determinism,
the reduced state space with the ``d`` dimension, cycle detection,
deadlock and starvation handling, tick/event equivalence, blocking
tracking with minimal deficits) is the SDF engine's; the state adds
each actor's phase counter.

Throughput is counted in *phase executions* of the observed actor per
time step, which coincides with the SDF notion for single-phase
actors.  Divide by ``num_phases`` for full phase-cycles per time step.
"""

from __future__ import annotations

from repro.engine.executor import ExecutionResult, Executor


class CSDFExecutor(Executor):
    """The reference executor on a CSDF graph.

    The same engine as :class:`~repro.engine.executor.Executor`, with
    the same options and results; its :meth:`run` is a name of its own,
    so a CSDF probe can be told apart from an SDF one.
    """

    def run(self) -> ExecutionResult:
        """Execute until the periodic phase closes or a deadlock occurs."""
        return self._run()
