"""The scenario finite-state machine of an FSM-SADF graph.

States are scenario names; an infinite *accepted scenario sequence* is
any walk from the initial state along transitions.  Each transition
carries an optional non-negative integer **delay**: the reconfiguration
time the platform spends switching modes before the next scenario's
first firing may start (Jung/Oh/Ha, arXiv:1603.05775).

The worst-case analysis of :mod:`repro.sadf.throughput` needs three
structural queries: reachability from the initial state, zero-delay
self-loops (a scenario the application may *reside* in, executing
pipelined), and whether the reachable sub-FSM has an infinite run at
all (a cycle, self-loops included; without one there is no long-run
throughput).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.exceptions import GraphError


@dataclass(frozen=True)
class ScenarioTransition:
    """One FSM edge: switch from *source*'s scenario to *target*'s."""

    source: str
    target: str
    delay: int = 0

    def __post_init__(self) -> None:
        if not self.source or not self.target:
            raise GraphError("transition endpoints must be non-empty scenario names")
        if not isinstance(self.delay, int) or isinstance(self.delay, bool):
            raise GraphError(
                f"transition {self.source!r} -> {self.target!r}: delay must be int"
            )
        if self.delay < 0:
            raise GraphError(
                f"transition {self.source!r} -> {self.target!r}: delay must be >= 0"
            )


class ScenarioFSM:
    """FSM over scenario names with per-transition delays."""

    def __init__(
        self,
        initial: str,
        transitions: Iterable[ScenarioTransition | Sequence] = (),
    ):
        if not initial:
            raise GraphError("the FSM needs a non-empty initial scenario")
        self.initial = initial
        self._transitions: dict[tuple[str, str], ScenarioTransition] = {}
        self._order: list[str] = [initial]
        for transition in transitions:
            if isinstance(transition, ScenarioTransition):
                self.add_transition(
                    transition.source, transition.target, transition.delay
                )
            else:
                self.add_transition(*transition)

    # -- construction -------------------------------------------------------
    def add_transition(
        self, source: str, target: str, delay: int = 0
    ) -> ScenarioTransition:
        """Allow switching from *source* to *target* (at most one edge
        per ordered pair)."""
        transition = ScenarioTransition(source, target, delay)
        key = (source, target)
        if key in self._transitions:
            raise GraphError(
                f"duplicate transition {source!r} -> {target!r};"
                " at most one edge per ordered scenario pair"
            )
        self._transitions[key] = transition
        for state in (source, target):
            if state not in self._order:
                self._order.append(state)
        return transition

    @classmethod
    def single(cls, scenario: str) -> "ScenarioFSM":
        """The degenerate FSM: one state, one zero-delay self-loop —
        accepts exactly the constant sequence (plain SDF semantics)."""
        return cls(scenario, [(scenario, scenario, 0)])

    @classmethod
    def complete(cls, scenarios: Sequence[str], delay: int = 0) -> "ScenarioFSM":
        """The *any order* FSM: fully connected (self-loops included)
        over *scenarios*, every transition carrying *delay*."""
        if not scenarios:
            raise GraphError("ScenarioFSM.complete needs at least one scenario")
        fsm = cls(scenarios[0])
        for source in scenarios:
            for target in scenarios:
                fsm.add_transition(source, target, delay)
        return fsm

    # -- access -------------------------------------------------------------
    @property
    def states(self) -> tuple[str, ...]:
        """Every scenario named by the FSM (initial first, then in order
        of first mention)."""
        return tuple(self._order)

    @property
    def transitions(self) -> tuple[ScenarioTransition, ...]:
        """All transitions, in insertion order."""
        return tuple(self._transitions.values())

    def successors(self, state: str) -> tuple[ScenarioTransition, ...]:
        """Outgoing transitions of *state* (insertion order)."""
        return tuple(t for t in self._transitions.values() if t.source == state)

    def transition(self, source: str, target: str) -> ScenarioTransition | None:
        """The edge *source* -> *target*, or ``None``."""
        return self._transitions.get((source, target))

    def has_zero_delay_self_loop(self, state: str) -> bool:
        """Whether the application may *reside* in *state*: repeat its
        scenario back-to-back with no switching barrier."""
        loop = self._transitions.get((state, state))
        return loop is not None and loop.delay == 0

    # -- structure ----------------------------------------------------------
    def reachable(self) -> tuple[str, ...]:
        """States reachable from the initial one (discovery order)."""
        seen: list[str] = [self.initial]
        frontier = [self.initial]
        while frontier:
            state = frontier.pop()
            for transition in self.successors(state):
                if transition.target not in seen:
                    seen.append(transition.target)
                    frontier.append(transition.target)
        return tuple(seen)

    def is_fully_connected(self) -> bool:
        """Every reachable state can switch to every reachable state."""
        reachable = self.reachable()
        return all(
            (source, target) in self._transitions
            for source in reachable
            for target in reachable
        )

    def has_infinite_run(self) -> bool:
        """Whether some accepted sequence goes on forever: the reachable
        sub-FSM closes a cycle (a self-loop counts)."""
        alive = set(self.reachable())
        while True:
            dead = {
                state
                for state in alive
                if not any(t.target in alive for t in self.successors(state))
            }
            if not dead:
                return bool(alive)
            alive -= dead

    # -- rendering ----------------------------------------------------------
    def describe(self) -> str:
        """One-line human-readable rendering."""
        edges = ", ".join(
            f"{t.source}->{t.target}"
            + (f"({t.delay})" if t.delay else "")
            for t in self._transitions.values()
        )
        return f"initial={self.initial}; {edges or 'no transitions'}"

    def __repr__(self) -> str:
        return (
            f"ScenarioFSM(initial={self.initial!r},"
            f" states={len(self._order)}, transitions={len(self._transitions)})"
        )
