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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from collections.abc import Mapping, Sequence

from repro.engine.schedule import Schedule
from repro.engine.state import ReducedState, SDFState
from repro.engine.statestore import StateStore
from repro.exceptions import CapacityError, DeadlockError, EngineError, GraphError
from repro.graph.graph import SDFGraph

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
        observed actor forever.
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


@dataclass(slots=True)
class _ActorInfo:
    """Precomputed per-actor firing data (index-based, engine internal)."""

    name: str
    execution_time: int
    inputs: list[tuple[int, int]] = field(default_factory=list)
    outputs: list[tuple[int, int]] = field(default_factory=list)


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


class Executor:
    """Runs one graph under one storage distribution.

    Parameters
    ----------
    graph:
        The SDF graph to execute.
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

    def __init__(
        self,
        graph: SDFGraph,
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

        channel_index = {name: j for j, name in enumerate(self.channel_names)}
        self._initial_tokens = [graph.channels[name].initial_tokens for name in self.channel_names]
        self._capacities = validate_capacities(capacities, channel_index, self._initial_tokens)

        self._actors: list[_ActorInfo] = []
        for name in self.actor_names:
            actor = graph.actors[name]
            info = _ActorInfo(name, actor.execution_time)
            for channel in graph.incoming(name):
                info.inputs.append((channel_index[channel.name], channel.consumption))
            for channel in graph.outgoing(name):
                info.outputs.append((channel_index[channel.name], channel.production))
            self._actors.append(info)

        self._processor_of: list[str | None] = [None] * len(self._actors)
        if processors is not None:
            for actor_name, processor in dict(processors).items():
                if actor_name not in graph.actors:
                    raise GraphError(f"processor assignment for unknown actor {actor_name!r}")
                self._processor_of[self.actor_names.index(actor_name)] = processor

        self._reset()

    # ------------------------------------------------------------------
    # Run state
    # ------------------------------------------------------------------
    def _reset(self) -> None:
        self.time = 0
        self.clocks = [0] * len(self._actors)
        self.tokens = list(self._initial_tokens)
        self.schedule = Schedule(self.graph) if self.record_schedule else None
        self._space_blocked: set[int] = set()
        self._token_blocked: set[int] = set()
        # Minimal capacity shortfall seen per space-blocking channel;
        # increasing a channel by less than this cannot change the
        # execution (see repro.buffers.dependencies).
        self._space_deficits: dict[int, int] = {}
        self._peak_occupancy = sum(self.tokens) if self.track_occupancy else 0

    def state(self) -> SDFState:
        """The current state (Definition 5)."""
        return SDFState(tuple(self.clocks), tuple(self.tokens))

    # ------------------------------------------------------------------
    # One time instant
    # ------------------------------------------------------------------
    def _complete_due_firings(self) -> int:
        """Finish firings whose clock reached zero; return completions of the observed actor."""
        observed = 0
        for idx, info in enumerate(self._actors):
            if self.clocks[idx] == -1:
                # Sentinel: a firing scheduled to complete now.
                self.clocks[idx] = 0
                self._finish_firing(idx, info)
                if idx == self._observe_idx:
                    observed += 1
        return observed

    def _finish_firing(self, idx: int, info: _ActorInfo) -> None:
        for channel, rate in info.inputs:
            self.tokens[channel] -= rate
        for channel, rate in info.outputs:
            self.tokens[channel] += rate

    def _can_start(self, info: _ActorInfo, collect: bool) -> bool:
        """Start condition; optionally record blocking channels."""
        token_failures: list[int] | None = [] if collect else None
        for channel, rate in info.inputs:
            if self.tokens[channel] < rate:
                if token_failures is None:
                    return False
                token_failures.append(channel)
        space_failures: list[tuple[int, int]] = []
        for channel, rate in info.outputs:
            capacity = self._capacities[channel]
            if capacity is not None and self.tokens[channel] + rate > capacity:
                if not collect:
                    return False
                space_failures.append((channel, self.tokens[channel] + rate - capacity))
        if token_failures:
            self._token_blocked.update(token_failures)
            return False
        if space_failures:
            # Only space stands between this actor and a firing.
            for channel, deficit in space_failures:
                self._space_blocked.add(channel)
                known = self._space_deficits.get(channel)
                if known is None or deficit < known:
                    self._space_deficits[channel] = deficit
            return False
        return True

    def _start_enabled_firings(self) -> int:
        """Start every enabled actor (fixpoint over zero-time cascades).

        Returns the number of observed-actor completions caused by
        zero-execution-time firings at this instant.
        """
        observed = 0
        fired_this_instant = 0
        busy_processors = {
            self._processor_of[idx]
            for idx, clock in enumerate(self.clocks)
            if clock > 0 and self._processor_of[idx] is not None
        }
        progress = True
        while progress:
            progress = False
            for idx, info in enumerate(self._actors):
                if self.clocks[idx] != 0:
                    continue
                processor = self._processor_of[idx]
                if processor is not None and processor in busy_processors:
                    # Shared-processor arbitration: earlier actors in the
                    # graph's insertion order have priority (deterministic).
                    continue
                if not self._can_start(info, self.track_blocking):
                    continue
                fired_this_instant += 1
                if fired_this_instant > _MAX_FIRINGS_PER_INSTANT:
                    raise EngineError(
                        f"more than {_MAX_FIRINGS_PER_INSTANT} firings in one time instant;"
                        " a zero-execution-time cascade diverges (unbounded channel?)"
                    )
                if self.schedule is not None:
                    self.schedule.record(info.name, self.time, self.time + info.execution_time)
                if info.execution_time == 0:
                    self._finish_firing(idx, info)
                    if idx == self._observe_idx:
                        observed += 1
                    progress = True
                else:
                    self.clocks[idx] = info.execution_time
                    if self._processor_of[idx] is not None:
                        busy_processors.add(self._processor_of[idx])
        return observed

    def _process_instant(self) -> int:
        """Complete due firings then start enabled ones; return observed completions."""
        observed = self._complete_due_firings()
        observed += self._start_enabled_firings()
        if self.track_occupancy:
            occupancy = sum(self.tokens)
            for idx, info in enumerate(self._actors):
                if self.clocks[idx] > 0:
                    occupancy += sum(rate for _channel, rate in info.outputs)
            if occupancy > self._peak_occupancy:
                self._peak_occupancy = occupancy
        return observed

    def _advance_time(self, mode: str | None = None) -> bool:
        """Move to the next time instant; ``False`` when nothing is running.

        *mode* selects the time-advance semantics for this call only
        (defaulting to the executor's configured mode), so callers that
        need a different semantics — :meth:`explore_full_state_space`
        always walks tick-by-tick — do not have to mutate ``self.mode``
        and stay re-entrant with a concurrent :meth:`run`.
        """
        busy = [clock for clock in self.clocks if clock > 0]
        if not busy:
            return False
        delta = 1 if (mode or self.mode) == "tick" else min(busy)
        self.time += delta
        for idx, clock in enumerate(self.clocks):
            if clock > 0:
                remaining = clock - delta
                # -1 marks "completes at the new current instant".
                self.clocks[idx] = remaining if remaining > 0 else -1
        return True

    # ------------------------------------------------------------------
    # Main loops
    # ------------------------------------------------------------------
    def run(self) -> ExecutionResult:
        """Execute until the periodic phase closes or a deadlock occurs."""
        self._reset()
        store: StateStore[tuple] = StateStore()
        records: list[ReducedState] = []
        full_store: StateStore[SDFState] | None = None
        instants_since_firing = 0
        last_firing_time: int | None = None
        first_firing_time: int | None = None
        instants = 0

        observed = self._process_instant()
        while True:
            if observed:
                if first_firing_time is None:
                    first_firing_time = self.time
                distance = self.time - (last_firing_time if last_firing_time is not None else 0)
                last_firing_time = self.time
                instants_since_firing = 0
                full_store = None
                record = ReducedState(self.state(), distance, observed)
                records.append(record)
                key = (record.state, record.distance, record.firings)
                cycle_start = store.add(key)
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
                        return self._starvation_result(first_firing_time, len(store))

            if not self._advance_time():
                return self._deadlock_result(first_firing_time, len(store))
            instants += 1
            if self.max_instants is not None and instants > self.max_instants:
                raise EngineError(f"execution exceeded {self.max_instants} time instants")
            observed = self._process_instant()

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
            schedule=self.schedule,
            space_blocked=self._blocked_names(self._space_blocked),
            token_blocked=self._blocked_names(self._token_blocked),
            space_deficits=self._deficit_names(),
            peak_shared_tokens=self._peak_occupancy if self.track_occupancy else None,
        )

    def _deadlock_result(self, first_firing_time: int | None, states_stored: int) -> ExecutionResult:
        return ExecutionResult(
            observe=self.observe,
            throughput=Fraction(0),
            deadlocked=True,
            deadlock_time=self.time,
            first_firing_time=first_firing_time,
            cycle_duration=0,
            firings_in_cycle=0,
            transient_states=states_stored,
            cycle_states=0,
            states_stored=states_stored,
            reduced_states=(),
            schedule=self.schedule,
            space_blocked=self._blocked_names(self._space_blocked),
            token_blocked=self._blocked_names(self._token_blocked),
            space_deficits=self._deficit_names(),
            peak_shared_tokens=self._peak_occupancy if self.track_occupancy else None,
        )

    def _starvation_result(self, first_firing_time: int | None, states_stored: int) -> ExecutionResult:
        return ExecutionResult(
            observe=self.observe,
            throughput=Fraction(0),
            deadlocked=True,
            deadlock_time=None,
            first_firing_time=first_firing_time,
            cycle_duration=0,
            firings_in_cycle=0,
            transient_states=states_stored,
            cycle_states=0,
            states_stored=states_stored,
            reduced_states=(),
            schedule=self.schedule,
            space_blocked=self._blocked_names(self._space_blocked),
            token_blocked=self._blocked_names(self._token_blocked),
            space_deficits=self._deficit_names(),
            peak_shared_tokens=self._peak_occupancy if self.track_occupancy else None,
        )

    def _blocked_names(self, indices: set[int]) -> frozenset[str]:
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
        completed = self._process_instant()
        instants = 0
        while completed < count:
            if not self._advance_time():
                raise DeadlockError(
                    f"deadlock after {completed} firings of {self.observe!r}", self.time
                )
            instants += 1
            if self.max_instants is not None and instants > self.max_instants:
                raise EngineError(f"execution exceeded {self.max_instants} time instants")
            completed += self._process_instant()
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
        self._process_instant()
        while True:
            state = self.state()
            cycle_start = store.add(state)
            if cycle_start is not None:
                return list(store), cycle_start
            if len(store) > max_states:
                raise EngineError(f"full state space exceeds {max_states} states")
            if not self._advance_time("tick"):
                # Deadlock: time still advances in the timed model,
                # but the state no longer changes — Property 1's
                # self-loop.  Re-adding the same state closes it.
                cycle_start = store.add(state)
                if cycle_start is None:  # pragma: no cover - defensive
                    raise EngineError("deadlock state failed to close the state space")
                return list(store), cycle_start
            self._process_instant()


def execute(
    graph: SDFGraph,
    capacities: Mapping[str, int] | None = None,
    observe: str | None = None,
    *,
    engine: str = "auto",
    **kwargs,
) -> ExecutionResult:
    """Convenience wrapper: run *graph* on the selected engine.

    ``engine="auto"`` (the default) uses the fast event-calendar kernel
    of :mod:`repro.engine.fastcore` whenever it supports the requested
    options (anything but schedule recording, occupancy tracking,
    processor mapping and tick mode) and this reference executor
    otherwise; ``"fast"`` / ``"reference"`` force one of the two.
    """
    from repro.engine.fastcore import _FAST_OPTIONS, fast_execute, resolve_engine

    if resolve_engine(engine, kwargs) == "fast":
        options = {k: v for k, v in kwargs.items() if k in _FAST_OPTIONS}
        return fast_execute(graph, capacities, observe, **options)
    return Executor(graph, capacities, observe, **kwargs).run()
