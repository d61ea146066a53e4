"""Self-timed execution *with* auto-concurrency.

The paper's model forbids auto-concurrency ("an actor is usually
mapped to a single processor which does not support concurrent
execution of code", Sec. 2).  Hardware actors and multi-threaded
software actors *can* overlap their own firings, so this module
provides the complementary engine: an actor may have any number of
ongoing firings, limited only by tokens and space.

Two semantic changes follow from overlapping firings:

* **Input reservation.**  Tokens are still released (their space
  freed) at the *end* of a firing, but they must now be *reserved* at
  the start — otherwise a second overlapping firing would count the
  first one's inputs again.  ``available`` tracks unreserved tokens;
  a channel's occupancy is ``available + consumption * busy(consumer)
  + production * busy(producer)``.
* **Multiset clocks.**  The per-actor state is the multiset of
  remaining execution times; states are compared with sorted tuples.

Everything else — ASAP determinism, the reduced state space, cycle
detection, deadlock/starvation handling, blocking tracking with
minimal deficits — mirrors :mod:`repro.engine.executor`.

The classical equivalence used to validate both engines: adding a
one-token rate-1 self-loop to every actor of a graph makes the
auto-concurrent execution identical to the serialised one (the token
is the "processor"); this is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from collections.abc import Mapping

from repro.engine.executor import ExecutionResult, _MAX_FIRINGS_PER_INSTANT
from repro.engine.schedule import Schedule
from repro.engine.state import ReducedState, SDFState
from repro.engine.statestore import StateStore
from repro.exceptions import CapacityError, EngineError, GraphError
from repro.graph.graph import SDFGraph

_DEFAULT_STALL_THRESHOLD = 50_000


@dataclass(slots=True)
class _ActorInfo:
    """Precomputed per-actor firing data (index-based, engine internal)."""

    name: str
    execution_time: int
    inputs: list[tuple[int, int]] = field(default_factory=list)
    outputs: list[tuple[int, int]] = field(default_factory=list)


class ConcurrentExecutor:
    """Runs one graph with auto-concurrent firings allowed.

    Accepts the same core options as
    :class:`~repro.engine.executor.Executor` (modes, schedule
    recording, blocking tracking, instant guard); processor
    constraints are intentionally not offered — mapping actors to
    processors is exactly what *removes* auto-concurrency.
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
        self._capacities: list[int | None] = [None] * len(self.channel_names)
        if capacities is not None:
            for name, capacity in dict(capacities).items():
                if name not in channel_index:
                    raise CapacityError(f"capacity given for unknown channel {name!r}")
                if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 0:
                    raise CapacityError(f"channel {name!r}: capacity must be a non-negative int")
                if capacity < graph.channels[name].initial_tokens:
                    raise CapacityError(
                        f"channel {name!r}: capacity {capacity} is below its initial tokens"
                    )
                self._capacities[channel_index[name]] = capacity

        self._actors: list[_ActorInfo] = []
        for name in self.actor_names:
            actor = graph.actors[name]
            info = _ActorInfo(name, actor.execution_time)
            for channel in graph.incoming(name):
                info.inputs.append((channel_index[channel.name], channel.consumption))
            for channel in graph.outgoing(name):
                info.outputs.append((channel_index[channel.name], channel.production))
            self._actors.append(info)

        # For the occupancy computation: per channel, its producer and
        # consumer actor indices with the rates.
        self._producers: list[tuple[int, int]] = [(-1, 0)] * len(self.channel_names)
        self._consumers: list[tuple[int, int]] = [(-1, 0)] * len(self.channel_names)
        for idx, info in enumerate(self._actors):
            for channel, rate in info.outputs:
                self._producers[channel] = (idx, rate)
            for channel, rate in info.inputs:
                self._consumers[channel] = (idx, rate)

        self._reset()

    # ------------------------------------------------------------------
    def _reset(self) -> None:
        self.time = 0
        self.busy: list[list[int]] = [[] for _ in self._actors]
        self.available = list(self._initial_tokens)
        self.schedule = Schedule(self.graph) if self.record_schedule else None
        self._space_blocked: set[int] = set()
        self._token_blocked: set[int] = set()
        self._space_deficits: dict[int, int] = {}

    def state_key(self) -> SDFState:
        """Hashable execution state (multiset clocks + unreserved tokens).

        Packed into an :class:`SDFState` whose ``clocks`` component is
        the flattened per-actor sorted multiset with ``-1`` separators
        (unambiguous because remaining times are positive).
        """
        flattened: list[int] = []
        for times in self.busy:
            flattened.extend(sorted(times))
            flattened.append(-1)
        return SDFState(tuple(flattened), tuple(self.available))

    def _occupancy(self, channel: int) -> int:
        producer, production = self._producers[channel]
        consumer, consumption = self._consumers[channel]
        occupancy = self.available[channel]
        if producer >= 0:
            occupancy += production * len(self.busy[producer])
        if consumer >= 0:
            occupancy += consumption * len(self.busy[consumer])
        return occupancy

    def _complete_due_firings(self) -> int:
        observed = 0
        for idx, info in enumerate(self._actors):
            finishing = self.busy[idx].count(-1)
            if not finishing:
                continue
            self.busy[idx] = [t for t in self.busy[idx] if t != -1]
            for _ in range(finishing):
                for channel, rate in info.outputs:
                    self.available[channel] += rate
                # Reserved input tokens simply disappear (their space
                # was held as part of the occupancy until now).
            if idx == self._observe_idx:
                observed += finishing
        return observed

    def _can_start(self, idx: int, info: _ActorInfo) -> bool:
        collect = self.track_blocking
        token_failures: list[int] = []
        for channel, rate in info.inputs:
            if self.available[channel] < rate:
                if not collect:
                    return False
                token_failures.append(channel)
        space_failures: list[tuple[int, int]] = []
        for channel, rate in info.outputs:
            capacity = self._capacities[channel]
            if capacity is not None:
                deficit = self._occupancy(channel) + rate - capacity
                if deficit > 0:
                    if not collect:
                        return False
                    space_failures.append((channel, deficit))
        if token_failures:
            self._token_blocked.update(token_failures)
            return False
        if space_failures:
            for channel, deficit in space_failures:
                self._space_blocked.add(channel)
                known = self._space_deficits.get(channel)
                if known is None or deficit < known:
                    self._space_deficits[channel] = deficit
            return False
        return True

    def _start_enabled_firings(self) -> int:
        observed = 0
        fired = 0
        progress = True
        while progress:
            progress = False
            for idx, info in enumerate(self._actors):
                while self._can_start(idx, info):
                    fired += 1
                    if fired > _MAX_FIRINGS_PER_INSTANT:
                        raise EngineError(
                            "unbounded concurrent firing cascade in one instant"
                            " (zero-rate actor or unbounded channel?)"
                        )
                    for channel, rate in info.inputs:
                        self.available[channel] -= rate
                    if self.schedule is not None:
                        self.schedule.record(info.name, self.time, self.time + info.execution_time)
                    if info.execution_time == 0:
                        for channel, rate in info.outputs:
                            self.available[channel] += rate
                        if idx == self._observe_idx:
                            observed += 1
                        progress = True
                    else:
                        self.busy[idx].append(info.execution_time)
        return observed

    def _process_instant(self) -> int:
        observed = self._complete_due_firings()
        observed += self._start_enabled_firings()
        return observed

    def _advance_time(self) -> bool:
        remaining = [t for times in self.busy for t in times]
        if not remaining:
            return False
        delta = 1 if self.mode == "tick" else min(remaining)
        self.time += delta
        for idx, times in enumerate(self.busy):
            self.busy[idx] = [t - delta if t - delta > 0 else -1 for t in times]
        return True

    def run(self) -> ExecutionResult:
        """Execute to the periodic phase or deadlock (same contract as
        :meth:`repro.engine.executor.Executor.run`)."""
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
                record = ReducedState(self.state_key(), distance, observed)
                records.append(record)
                cycle_start = store.add((record.state, record.distance, record.firings))
                if cycle_start is not None:
                    cycle = records[cycle_start + 1 :]
                    duration = sum(r.distance for r in cycle)
                    firings = sum(r.firings for r in cycle)
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
                        states_stored=len(store),
                        reduced_states=tuple(records),
                        schedule=self.schedule,
                        space_blocked=self._blocked(self._space_blocked),
                        token_blocked=self._blocked(self._token_blocked),
                        space_deficits=self._deficits(),
                    )
            else:
                instants_since_firing += 1
                if instants_since_firing >= self.stall_threshold:
                    if full_store is None:
                        full_store = StateStore()
                    if full_store.add(self.state_key()) is not None:
                        return self._stopped(first_firing_time, len(store), None)

            if not self._advance_time():
                return self._stopped(first_firing_time, len(store), self.time)
            instants += 1
            if self.max_instants is not None and instants > self.max_instants:
                raise EngineError(f"execution exceeded {self.max_instants} time instants")
            observed = self._process_instant()

    def _stopped(
        self, first_firing_time: int | None, states_stored: int, deadlock_time: int | None
    ) -> ExecutionResult:
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
            reduced_states=(),
            schedule=self.schedule,
            space_blocked=self._blocked(self._space_blocked),
            token_blocked=self._blocked(self._token_blocked),
            space_deficits=self._deficits(),
        )

    def _blocked(self, indices: set[int]) -> frozenset[str]:
        return frozenset(self.channel_names[index] for index in indices)

    def _deficits(self) -> dict[str, int]:
        return {self.channel_names[index]: deficit for index, deficit in self._space_deficits.items()}
