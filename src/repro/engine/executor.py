"""Deterministic self-timed execution with bounded storage.

The central algorithm of the paper (Secs. 6-7): execute the graph
under a storage distribution, firing every actor as soon as it is
enabled, until either the reduced state space revisits a state (the
periodic phase has been closed — the throughput can be read off) or
the execution deadlocks (throughput zero).

See :mod:`repro.engine` for the semantics; the key simplification —
the start-time capacity check ``tokens + production <= capacity``
subsumes explicit space claiming because every channel has a unique
producer — is documented there.

:class:`Executor` is the one Python simulator of that model, for SDF
and CSDF graphs alike.  Every actor has a table of *phases* — an
execution time and per-channel rates each, zero rates omitted; an SDF
actor is the one-phase case.  A firing executes the actor's current
phase: it may start when the phase's input rates are available and
its output space can be claimed, and the phase counter advances when
it completes.  The phase vector joins the state for a
:class:`~repro.csdf.graph.CSDFGraph` only.  Besides running to the
periodic phase (:meth:`Executor.run`), the executor runs one *quota'd
iteration* (:meth:`Executor.run_iteration`), in which every actor fires
exactly its quota — the per-scenario cost of the scenario-aware
analysis (:mod:`repro.sadf.makespan`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from typing import TYPE_CHECKING, NamedTuple
from collections.abc import Mapping, Sequence

from repro.engine.schedule import Schedule
from repro.engine.state import CSDFState, ReducedState, SDFState
from repro.engine.statestore import StateStore
from repro.exceptions import CapacityError, DeadlockError, EngineError, GraphError
from repro.graph.graph import SDFGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.csdf.graph import CSDFGraph

#: Safety bound on firings processed within one time instant; only
#: reachable through diverging zero-execution-time cascades.
_MAX_FIRINGS_PER_INSTANT = 1_000_000

#: After this many recorded instants without a completion of the
#: observed actor, full states are recorded as well so that a periodic
#: starvation of the observed actor (partial deadlock) is detected.
_DEFAULT_STALL_THRESHOLD = 50_000


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of running a graph to its periodic phase (or deadlock).

    Attributes
    ----------
    observe:
        Name of the actor whose throughput was measured.
    throughput:
        Average firings of *observe* per time step, as an exact
        fraction; zero iff the execution deadlocked or starves the
        observed actor forever.  For a CSDF graph a firing is one
        phase execution.
    deadlocked:
        Whether a (full or observed-actor-starving) deadlock occurred.
    deadlock_time:
        Time instant of a full deadlock, if one occurred.
    first_firing_time:
        Completion time of the first firing of *observe* (``None`` if
        it never fired).
    cycle_duration / firings_in_cycle:
        Length of the periodic phase in time steps and the number of
        firings of *observe* within it (throughput = quotient).
    transient_states / cycle_states / states_stored:
        Reduced-state-space statistics; ``states_stored`` corresponds
        to the "maximum #states" metric of the paper's Table 2.
    reduced_states:
        The recorded reduced states, transient followed by cycle.
    schedule:
        Firing schedule, when recording was requested.
    space_blocked / token_blocked:
        Channels that blocked an otherwise-enabled actor at some
        instant (see :mod:`repro.buffers.dependencies`).
    """

    observe: str
    throughput: Fraction
    deadlocked: bool
    deadlock_time: int | None
    first_firing_time: int | None
    cycle_duration: int
    firings_in_cycle: int
    transient_states: int
    cycle_states: int
    states_stored: int
    reduced_states: tuple[ReducedState, ...] = ()
    schedule: Schedule | None = None
    space_blocked: frozenset[str] = frozenset()
    token_blocked: frozenset[str] = frozenset()
    space_deficits: Mapping[str, int] = field(default_factory=dict)
    peak_shared_tokens: int | None = None

    @property
    def period(self) -> Fraction:
        """Average time between firings of the observed actor."""
        if self.throughput == 0:
            raise DeadlockError("deadlocked execution has no period", self.deadlock_time)
        return 1 / self.throughput

    @property
    def cycle_start_time(self) -> int:
        """Time instant at which the periodic phase is first entered.

        The completion time of the last transient firing of the
        observed actor — from here on the schedule repeats every
        :attr:`cycle_duration` steps.
        """
        if self.throughput == 0:
            raise DeadlockError("deadlocked execution has no periodic phase", self.deadlock_time)
        return sum(record.distance for record in self.reduced_states[: self.transient_states])


class MakespanResult(NamedTuple):
    """Outcome of one quota'd iteration (:meth:`Executor.run_iteration`).

    ``time`` is the completion time of the iteration's last firing, or
    ``None`` when the iteration deadlocks under the storage
    distribution.  ``space_blocked`` / ``space_deficits`` record every
    channel whose lack of space delayed an otherwise-enabled firing,
    with the minimal shortfall observed.
    """

    time: int | None
    deadlocked: bool
    space_blocked: frozenset[str]
    space_deficits: Mapping[str, int]


class _Phase(NamedTuple):
    """One phase of an actor, folded with the run's capacities."""

    execution_time: int
    #: ``(channel, consumption)`` pairs, zero rates omitted.
    inputs: tuple[tuple[int, int], ...]
    #: ``(channel, production)`` pairs, zero rates omitted.
    outputs: tuple[tuple[int, int], ...]
    #: ``(channel, capacity - production)`` for the bounded outputs: the
    #: most tokens the channel may hold when the phase starts (negative
    #: limits block the phase forever).
    limits: tuple[tuple[int, int], ...]


def validate_capacities(
    capacities: Mapping[str, int] | None,
    channel_index: Mapping[str, int],
    initial_tokens: Sequence[int],
) -> list[int | None]:
    """Index-ordered capacity vector (``None`` = unbounded), validated.

    *initial_tokens* lists each channel's initial tokens in the order of
    *channel_index*.  Shared by the reference :class:`Executor` and the
    compiled kernels, so all of them reject malformed distributions
    with identical errors without the kernels keeping their graph.
    """
    caps: list[int | None] = [None] * len(channel_index)
    if capacities is None:
        return caps
    for name, capacity in dict(capacities).items():
        if name not in channel_index:
            raise CapacityError(f"capacity given for unknown channel {name!r}")
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 0:
            raise CapacityError(f"channel {name!r}: capacity must be a non-negative int")
        index = channel_index[name]
        if capacity < initial_tokens[index]:
            raise CapacityError(
                f"channel {name!r}: capacity {capacity} is below its"
                f" {initial_tokens[index]} initial tokens"
            )
        caps[index] = capacity
    return caps


#: Weak per-graph cache of the capacity-independent tables, as for the
#: fast kernels: {graph: (shape, layout)}; the shape pair rebuilds the
#: layout when actors or channels are added.
_LAYOUTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _layout(graph: SDFGraph | CSDFGraph) -> tuple:
    """``(channel index, initial tokens, phased, phases)`` of *graph*,
    each actor's phases as ``(execution time, inputs, outputs)``."""
    shape = (graph.num_actors, graph.num_channels)
    cached = _LAYOUTS.get(graph)
    if cached is not None and cached[0] == shape:
        return cached[1]
    phased = not isinstance(graph, SDFGraph)
    actor_index = {name: i for i, name in enumerate(graph.actor_names)}
    # Per actor, its channels with their per-phase rates, channel order.
    incoming: list[list] = [[] for _ in actor_index]
    outgoing: list[list] = [[] for _ in actor_index]
    for j, channel in enumerate(graph.channels.values()):
        if phased:
            consumptions, productions = channel.consumptions, channel.productions
        else:
            consumptions, productions = (channel.consumption,), (channel.production,)
        incoming[actor_index[channel.destination]].append((j, consumptions))
        outgoing[actor_index[channel.source]].append((j, productions))
    phases = []
    for i, actor in enumerate(graph.actors.values()):
        times = actor.execution_times if phased else (actor.execution_time,)
        phases.append(
            tuple(
                (
                    execution_time,
                    tuple([(j, rates[k]) for j, rates in incoming[i] if rates[k]]),
                    tuple([(j, rates[k]) for j, rates in outgoing[i] if rates[k]]),
                )
                for k, execution_time in enumerate(times)
            )
        )
    layout = (
        {name: j for j, name in enumerate(graph.channel_names)},
        tuple(channel.initial_tokens for channel in graph.channels.values()),
        phased,
        phases,
    )
    _LAYOUTS[graph] = (shape, layout)
    return layout


def _limits(outputs: tuple, caps: list[int | None]) -> tuple[tuple[int, int], ...]:
    """``(channel, capacity - production)`` for the bounded *outputs*."""
    return tuple([(j, caps[j] - rate) for j, rate in outputs if caps[j] is not None])


class Executor:
    """Runs one SDF or CSDF graph under one storage distribution.

    Parameters
    ----------
    graph:
        The graph to execute: an :class:`~repro.graph.graph.SDFGraph`
        or a :class:`~repro.csdf.graph.CSDFGraph`.
    capacities:
        ``{channel name: capacity}``; channels absent from the mapping
        (or the whole argument being ``None``) are unbounded.  A
        capacity smaller than a channel's initial tokens is rejected.
    observe:
        Actor whose throughput is computed; defaults to the last actor
        of the graph (in many streaming graphs, the output actor).
    mode:
        ``"event"`` (default) jumps between firing completions;
        ``"tick"`` advances one time step at a time as the paper's
        generated code does.  Both produce identical behaviour.
    record_schedule:
        Keep every firing for later Gantt rendering.
    track_blocking:
        Collect the channels whose full/empty state blocked an
        otherwise-enabled actor (used by the dependency-guided
        exploration strategy).
    track_occupancy:
        Record the peak total occupancy (stored tokens plus space
        claimed by running firings, summed over all channels) — the
        storage requirement under the *shared-memory* model of Sec. 3
        (see :mod:`repro.buffers.shared`).
    processors:
        Optional ``{actor: processor}`` assignment.  Actors mapped to
        the same processor never fire concurrently; among
        simultaneously ready actors on one processor the earliest in
        the graph's insertion order starts first (a deterministic
        fixed-priority arbitration).  Unmapped actors keep a private
        processor.  This extension models resource-constrained
        multiprocessor mappings; the exactness guarantees of the
        design-space exploration are stated for the unconstrained
        model.
    max_instants:
        Optional hard bound on processed time instants.
    """

    #: Whether ``track_blocking`` records token shortages as well as
    #: space deficits; the reference backend's probes keep space alone.
    _record_tokens = True

    def __init__(
        self,
        graph: SDFGraph | CSDFGraph,
        capacities: Mapping[str, int] | None = None,
        observe: str | None = None,
        *,
        mode: str = "event",
        record_schedule: bool = False,
        track_blocking: bool = False,
        track_occupancy: bool = False,
        processors: Mapping[str, str] | None = None,
        max_instants: int | None = None,
        stall_threshold: int = _DEFAULT_STALL_THRESHOLD,
    ):
        if graph.num_actors == 0:
            raise GraphError("cannot execute an empty graph")
        if mode not in ("event", "tick"):
            raise EngineError(f"unknown execution mode {mode!r}")
        self.graph = graph
        self.mode = mode
        self.record_schedule = record_schedule
        self.track_blocking = track_blocking
        self.track_occupancy = track_occupancy
        self.max_instants = max_instants
        self.stall_threshold = stall_threshold

        self.actor_names = graph.actor_names
        self.channel_names = graph.channel_names
        if observe is None:
            observe = self.actor_names[-1]
        if observe not in graph.actors:
            raise GraphError(f"unknown observed actor {observe!r}")
        self.observe = observe
        self._observe_idx = self.actor_names.index(observe)

        channel_index, self._initial_tokens, self._phased, layout = _layout(graph)
        caps = validate_capacities(capacities, channel_index, self._initial_tokens)
        self._tables = [  # every actor's phases, folded with the capacities
            tuple([_Phase(*phase, _limits(phase[2], caps)) for phase in phases])
            for phases in layout
        ]

        self._processor_of: list[str | None] = [None] * len(self._tables)
        if processors is not None:
            for actor_name, processor in dict(processors).items():
                if actor_name not in graph.actors:
                    raise GraphError(f"processor assignment for unknown actor {actor_name!r}")
                self._processor_of[self.actor_names.index(actor_name)] = processor
        self._mapped = any(processor is not None for processor in self._processor_of)

        self._reset()

    # ------------------------------------------------------------------
    # Run state
    # ------------------------------------------------------------------
    def _reset(self, quotas: Mapping[str, int] | None = None) -> None:
        count = len(self._tables)
        self.time = 0
        self.tokens = list(self._initial_tokens)
        self.phases = [0] * count
        self._current = [table[0] for table in self._tables]
        # Completion time of each actor's running firing (0 while idle;
        # a running firing always ends after the current instant), and
        # the running firings as a heap of (completion time, actor).
        self._ends = [0] * count
        self._calendar: list[tuple[int, int]] = []
        self.schedule = Schedule(self.graph) if self.record_schedule else None
        self._track_tokens = self.track_blocking and self._record_tokens
        self._track_space = self.track_blocking
        self._token_blocked: set[int] = set()
        # Minimal capacity shortfall seen per space-blocking channel;
        # increasing a channel by less than this cannot change the
        # execution (see repro.buffers.dependencies).
        self._space_deficits: dict[int, int] = {}
        self._peak_occupancy = sum(self.tokens) if self.track_occupancy else 0
        # Firings left per actor in a quota'd iteration (None: no
        # quotas), and the actors that may still fire.
        self._remaining: list[int] | None = None
        self._eligible = list(range(count))
        if quotas is not None:
            self._remaining = [int(quotas[name]) for name in self.actor_names]
            self._eligible = [idx for idx, left in enumerate(self._remaining) if left > 0]

    def state(self) -> SDFState | CSDFState:
        """The current state (Definition 5), with the phase counters for a
        CSDF graph."""
        time = self.time
        clocks = tuple([end - time if end else 0 for end in self._ends])
        if self._phased:
            return CSDFState(clocks, tuple(self.phases), tuple(self.tokens))
        return SDFState(clocks, tuple(self.tokens))

    # ------------------------------------------------------------------
    # One time instant
    # ------------------------------------------------------------------
    def _finish_firing(self, idx: int) -> None:
        """Move the tokens of *idx*'s current phase; advance its phase."""
        _time, inputs, outputs, _limits = self._current[idx]
        tokens = self.tokens
        for channel, rate in inputs:
            tokens[channel] -= rate
        for channel, rate in outputs:
            tokens[channel] += rate
        if self._phased:
            table = self._tables[idx]
            phase = self.phases[idx] = (self.phases[idx] + 1) % len(table)
            self._current[idx] = table[phase]

    def _can_start(self, phase: _Phase) -> bool:
        """Start condition of *phase*; records what blocks it when tracking.

        A token shortage records every short input and nothing else;
        otherwise every full output records its deficit ``tokens + rate
        - capacity``, keeping the minimum per channel.
        """
        tokens = self.tokens
        _time, inputs, _outputs, limits = phase
        for channel, rate in inputs:
            if tokens[channel] < rate:
                if self._track_tokens:
                    blocked = self._token_blocked
                    for short, needed in inputs:
                        if tokens[short] < needed:
                            blocked.add(short)
                return False
        for channel, limit in limits:
            if tokens[channel] > limit:
                if self._track_space:
                    # Only space stands between this phase and a firing.
                    deficits = self._space_deficits
                    for full, most in limits:
                        excess = tokens[full] - most
                        if excess > 0:
                            known = deficits.get(full)
                            if known is None or excess < known:
                                deficits[full] = excess
                return False
        return True

    def _start_enabled_firings(self) -> int:
        """Start every enabled actor (fixpoint over zero-time cascades).

        Returns the number of observed-actor completions caused by
        zero-execution-time firings at this instant.  In a quota'd
        iteration an actor stops firing once its quota is used up.
        """
        time = self.time
        ends = self._ends
        current = self._current
        remaining = self._remaining
        schedule = self.schedule
        processor_of = self._processor_of
        busy = None
        if self._mapped:
            busy = {processor_of[idx] for idx, end in enumerate(ends) if end}
            busy.discard(None)
        observed = 0
        fired = 0
        progress = True
        while progress:
            progress = False
            for idx in self._eligible:
                if ends[idx]:
                    continue
                if busy is not None and processor_of[idx] in busy:
                    # Shared-processor arbitration: earlier actors in the
                    # graph's insertion order have priority (deterministic).
                    continue
                phase = current[idx]
                if not self._can_start(phase):
                    continue
                fired += 1
                if fired > _MAX_FIRINGS_PER_INSTANT:
                    raise EngineError(
                        f"more than {_MAX_FIRINGS_PER_INSTANT} firings in one time instant;"
                        " a zero-execution-time cascade diverges (unbounded channel?)"
                    )
                if remaining is not None:
                    remaining[idx] -= 1
                    if not remaining[idx]:
                        self._eligible = [other for other in self._eligible if other != idx]
                duration = phase.execution_time
                if schedule is not None:
                    schedule.record(self.actor_names[idx], time, time + duration)
                if duration == 0:
                    self._finish_firing(idx)
                    if idx == self._observe_idx:
                        observed += 1
                    progress = True
                else:
                    ends[idx] = time + duration
                    heappush(self._calendar, (time + duration, idx))
                    if busy is not None and processor_of[idx] is not None:
                        busy.add(processor_of[idx])
        return observed

    def _process_instant(self, due: Sequence[int]) -> int:
        """Complete the *due* firings, then start enabled ones; return
        observed completions."""
        observed = 0
        ends = self._ends
        for idx in due:
            ends[idx] = 0
            self._finish_firing(idx)
            if idx == self._observe_idx:
                observed += 1
        observed += self._start_enabled_firings()
        if self.track_occupancy:
            occupancy = sum(self.tokens)
            for idx, end in enumerate(ends):
                if end:
                    occupancy += sum(rate for _channel, rate in self._current[idx].outputs)
            if occupancy > self._peak_occupancy:
                self._peak_occupancy = occupancy
        return observed

    def _advance_time(self, mode: str | None = None) -> list[int] | None:
        """Move to the next time instant and return the actors whose
        firings complete there, in index order; ``None`` (and no move)
        when nothing is running.

        *mode* selects the time-advance semantics for this call only
        (defaulting to the executor's configured mode), so callers that
        need a different semantics — :meth:`explore_full_state_space`
        always walks tick-by-tick — do not have to mutate ``self.mode``
        and stay re-entrant with a concurrent :meth:`run`.
        """
        calendar = self._calendar
        if not calendar:
            return None
        if (mode or self.mode) == "tick":
            self.time += 1
        else:
            self.time = calendar[0][0]
        due = []
        while calendar and calendar[0][0] == self.time:
            due.append(heappop(calendar)[1])
        return due

    def _next_instant(self, instants: int) -> list[int] | None:
        """:meth:`_advance_time` under the ``max_instants`` guard;
        *instants* counts the instants already processed."""
        due = self._advance_time()
        if due is not None and self.max_instants is not None and instants >= self.max_instants:
            raise EngineError(f"execution exceeded {self.max_instants} time instants")
        return due

    # ------------------------------------------------------------------
    # Main loops
    # ------------------------------------------------------------------
    def run(self) -> ExecutionResult:
        """Execute until the periodic phase closes or a deadlock occurs."""
        return self._run()

    def _run(self) -> ExecutionResult:
        """The loop behind :meth:`run`, shared with
        :meth:`repro.csdf.executor.CSDFExecutor.run`."""
        self._reset()
        store: StateStore[tuple] = StateStore()
        records: list[ReducedState] = []
        full_store: StateStore[SDFState | CSDFState] | None = None
        instants_since_firing = 0
        last_firing_time = 0
        first_firing_time: int | None = None
        instants = 0

        observed = self._process_instant(())
        while True:
            if observed:
                if first_firing_time is None:
                    first_firing_time = self.time
                record = ReducedState(self.state(), self.time - last_firing_time, observed)
                last_firing_time = self.time
                instants_since_firing = 0
                full_store = None
                records.append(record)
                cycle_start = store.add((record.state, record.distance, record.firings))
                if cycle_start is not None:
                    return self._periodic_result(records, cycle_start, first_firing_time, len(store))
            else:
                instants_since_firing += 1
                if instants_since_firing >= self.stall_threshold:
                    if full_store is None:
                        full_store = StateStore()
                    if full_store.add(self.state()) is not None:
                        # The graph loops without ever firing the
                        # observed actor again: starvation.
                        return self._stopped_result(first_firing_time, len(store), None)

            due = self._next_instant(instants)
            if due is None:
                return self._stopped_result(first_firing_time, len(store), self.time)
            instants += 1
            observed = self._process_instant(due)

    def run_iteration(self, quotas: Mapping[str, int]) -> MakespanResult:
        """Execute one quota'd iteration from the initial marking.

        Every actor fires exactly ``quotas[actor]`` times (an actor
        whose quota is met stops firing) under the ordinary self-timed
        semantics.  Returns the completion time of the last firing, or
        ``None`` on deadlock, with the space deficits seen on the way;
        they are recorded whatever ``track_blocking`` says, and token
        shortages are not.
        """
        self._reset(quotas)
        self._track_tokens, self._track_space = False, True
        due: list[int] | None = []
        instants = 0
        while due is not None:
            self._process_instant(due)
            if not self._eligible and not self._calendar:
                break
            due = self._next_instant(instants)
            instants += 1
        return MakespanResult(
            None if due is None else self.time,
            due is None,
            self._blocked_names(self._space_deficits),
            self._deficit_names(),
        )

    def _periodic_result(
        self,
        records: list[ReducedState],
        cycle_start: int,
        first_firing_time: int | None,
        states_stored: int,
    ) -> ExecutionResult:
        # The final record equals records[cycle_start]; the cycle is
        # records[cycle_start+1 .. end] (distances measured *into* each
        # record close the loop exactly).
        cycle = records[cycle_start + 1 :]
        duration = sum(record.distance for record in cycle)
        firings = sum(record.firings for record in cycle)
        return ExecutionResult(
            observe=self.observe,
            throughput=Fraction(firings, duration),
            deadlocked=False,
            deadlock_time=None,
            first_firing_time=first_firing_time,
            cycle_duration=duration,
            firings_in_cycle=firings,
            transient_states=cycle_start + 1,
            cycle_states=len(cycle),
            states_stored=states_stored,
            reduced_states=tuple(records),
            **self._observations(),
        )

    def _stopped_result(
        self, first_firing_time: int | None, states_stored: int, deadlock_time: int | None
    ) -> ExecutionResult:
        """Throughput zero: a full deadlock at *deadlock_time*, or (``None``)
        the observed actor starving."""
        return ExecutionResult(
            observe=self.observe,
            throughput=Fraction(0),
            deadlocked=True,
            deadlock_time=deadlock_time,
            first_firing_time=first_firing_time,
            cycle_duration=0,
            firings_in_cycle=0,
            transient_states=states_stored,
            cycle_states=0,
            states_stored=states_stored,
            **self._observations(),
        )

    def _observations(self) -> dict:
        """The result fields every run reports alike."""
        return {
            "schedule": self.schedule,
            "space_blocked": self._blocked_names(self._space_deficits),
            "token_blocked": self._blocked_names(self._token_blocked),
            "space_deficits": self._deficit_names(),
            "peak_shared_tokens": self._peak_occupancy if self.track_occupancy else None,
        }

    def _blocked_names(self, indices) -> frozenset[str]:
        return frozenset(self.channel_names[index] for index in indices)

    def _deficit_names(self) -> dict[str, int]:
        return {self.channel_names[index]: deficit for index, deficit in self._space_deficits.items()}

    def run_until_firings(self, count: int) -> Schedule:
        """Execute until the observed actor completed *count* firings.

        Ignores cycle detection and returns the recorded schedule —
        the workhorse for latency measurements over several steady
        iterations.  Requires ``record_schedule=True``.
        """
        if not self.record_schedule:
            raise EngineError("run_until_firings needs record_schedule=True")
        if count < 1:
            raise EngineError("count must be positive")
        self._reset()
        completed = self._process_instant(())
        instants = 0
        while completed < count:
            due = self._next_instant(instants)
            if due is None:
                raise DeadlockError(
                    f"deadlock after {completed} firings of {self.observe!r}", self.time
                )
            instants += 1
            completed += self._process_instant(due)
        assert self.schedule is not None
        return self.schedule

    # ------------------------------------------------------------------
    # Full state space (Fig. 3)
    # ------------------------------------------------------------------
    def explore_full_state_space(self, max_states: int = 1_000_000) -> tuple[list[SDFState], int]:
        """Tick-by-tick full state sequence until the first revisit.

        Returns the visited states in order plus the index at which the
        cycle starts (a deadlock shows up as a self-loop on an idle
        state, consistent with Property 1 of the paper).
        """
        self._reset()
        store: StateStore[SDFState] = StateStore()
        self._process_instant(())
        while True:
            state = self.state()
            cycle_start = store.add(state)
            if cycle_start is not None:
                return list(store), cycle_start
            if len(store) > max_states:
                raise EngineError(f"full state space exceeds {max_states} states")
            due = self._advance_time("tick")
            if due is None:
                # Deadlock: time still advances in the timed model,
                # but the state no longer changes — Property 1's
                # self-loop.  Re-adding the same state closes it.
                cycle_start = store.add(state)
                if cycle_start is None:  # pragma: no cover - defensive
                    raise EngineError("deadlock state failed to close the state space")
                return list(store), cycle_start
            self._process_instant(due)


def execute(
    graph: SDFGraph,
    capacities: Mapping[str, int] | None = None,
    observe: str | None = None,
    **kwargs,
) -> ExecutionResult:
    """Convenience wrapper: run *graph* once.

    Runs on the fast event-calendar kernel of
    :mod:`repro.engine.fastcore` whenever it supports the requested
    options (anything but schedule recording, occupancy tracking,
    processor mapping and tick mode) and on this reference executor
    otherwise; both give identical results.
    """
    from repro.engine.fastcore import _FAST_OPTIONS, fast_execute, unsupported_options

    if unsupported_options(kwargs):
        return Executor(graph, capacities, observe, **kwargs).run()
    options = {k: v for k, v in kwargs.items() if k in _FAST_OPTIONS}
    return fast_execute(graph, capacities, observe, **options)
