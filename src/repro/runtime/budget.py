"""Budgets and cooperative cancellation for explorations.

The Pareto-space exploration is exponential in the worst case (Sec. 11
of the paper), so production runs need to be *interruptible*: a
:class:`Budget` bounds a run by wall-clock time and/or by the number of
state-space executions ("probes"), and a :class:`CancelToken` lets
another thread — a signal handler, an RPC deadline, a UI button — stop
a run cooperatively.

Budgets are enforced by the
:class:`~repro.runtime.controller.RunController` between probes, never
mid-execution, so every recorded result stays exact.  Hitting a budget
raises :class:`~repro.exceptions.BudgetExhausted` inside the evaluation
layer; :func:`~repro.buffers.explorer.explore_design_space` converts
that into a partial result carrying a resume token (see
:mod:`repro.runtime.checkpoint`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.exceptions import BudgetExhausted, ExplorationError

__all__ = ["Budget", "CancelToken", "BudgetExhausted"]


class CancelToken:
    """Thread-safe cooperative cancellation flag.

    Create one, hand it to a :class:`Budget`, and call :meth:`cancel`
    from any thread; the exploration stops at the next probe boundary.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent, thread-safe)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "armed"
        return f"CancelToken({state})"


@dataclass(frozen=True)
class Budget:
    """Resource limits for one exploration run.

    Parameters
    ----------
    deadline_s:
        Wall-clock budget in seconds, measured from the start of the
        run (controller creation).
    max_probes:
        Maximum number of state-space executions *in this run*.  Cache
        hits and the bounds oracle's exact answers are free — on a
        resumed run the replayed prefix therefore costs no budget.
    cancel:
        Optional :class:`CancelToken` checked at every probe boundary.
    """

    deadline_s: float | None = None
    max_probes: int | None = None
    cancel: CancelToken | None = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ExplorationError("budget deadline_s must be >= 0")
        if self.max_probes is not None and self.max_probes < 0:
            raise ExplorationError("budget max_probes must be >= 0")

    @property
    def unlimited(self) -> bool:
        """Whether this budget can never trip."""
        return self.deadline_s is None and self.max_probes is None and self.cancel is None
