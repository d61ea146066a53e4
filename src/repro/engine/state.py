"""Execution states (Definition 5 of the paper).

The state of an SDF graph ``(A, C)`` at a time instant is the tuple
``(t_1 .. t_n, s_1 .. s_m)`` where ``t_i`` is the remaining execution
time of actor ``a_i`` (0 when idle) and ``s_j`` the number of tokens
stored in channel ``c_j``; a CSDF state adds each actor's phase
counter.  States are hashable so they can be stored in the
visited-state hash table used for cycle detection (Sec. 7).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SDFState:
    """An execution state: actor clocks plus channel token counts.

    The component order follows the actor / channel insertion order of
    the graph, so states of the same graph are directly comparable.
    """

    clocks: tuple[int, ...]
    tokens: tuple[int, ...]

    @property
    def is_idle(self) -> bool:
        """Whether no actor is firing."""
        return not any(self.clocks)

    def as_tuple(self) -> tuple[int, ...]:
        """Flat ``(t_1..t_n, s_1..s_m)`` tuple as in Definition 5."""
        return self.clocks + self.tokens

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.as_tuple()) + ")"


@dataclass(frozen=True, slots=True)
class CSDFState:
    """A CSDF execution state: actor clocks, phase counters, token counts."""

    clocks: tuple[int, ...]
    phases: tuple[int, ...]
    tokens: tuple[int, ...]

    def as_tuple(self) -> tuple[int, ...]:
        """Flat tuple representation (clocks, phases, tokens)."""
        return self.clocks + self.phases + self.tokens


@dataclass(frozen=True, slots=True)
class ReducedState:
    """A state of the reduced space of Sec. 7.

    Recorded whenever the observed actor completes one or more firings
    at a time instant; ``distance`` is the paper's extra dimension
    ``d_a`` — the time elapsed since the previous recorded completion —
    and ``firings`` the number of completions at this instant (> 1 only
    for zero-execution-time actors).
    """

    state: SDFState | CSDFState
    distance: int
    firings: int = 1

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.state.as_tuple() + (self.distance,)) + ")"
