"""Fast simulation kernel: event calendar, wakeup lists, packed keys.

The reference :class:`~repro.engine.executor.Executor` is written for
clarity: every time instant rescans all actors for enabled firings (a
fixpoint over zero-execution-time cascades), advances time by a
``min()`` over all actor clocks, and records reduced states as
:class:`~repro.engine.state.SDFState` /
:class:`~repro.engine.state.ReducedState` dataclasses.  Each of those
choices is O(actors) *per instant* and dominates the cost of the
thousands of executions a design-space exploration performs.

:class:`FastKernel` is a per-graph *compiled* replacement that produces
bit-for-bit identical :class:`~repro.engine.executor.ExecutionResult`
values (property-tested differentially in
``tests/properties/test_prop_fastcore.py``) with three structural
accelerations:

* **event calendar** — running firings live in a heap of
  ``(completion time, actor)`` pairs, so advancing time is one heap pop
  (O(log actors)) instead of two scans over all clocks;
* **wakeup lists** — when a channel's token count changes, only the
  channel's unique consumer (tokens became available) or producer
  (space was freed) can newly become enabled, so only those actors are
  re-checked.  An actor that stays blocked with unchanged surroundings
  is never looked at again.  This is sound because SDF enabling is
  monotone in exactly those two quantities and each channel has a
  unique producer and consumer;
* **packed state keys** — reduced states are hashed as the ``bytes``
  of an ``array('q', clocks + tokens + (distance, firings))`` instead
  of constructing nested dataclasses in the hot loop; :meth:`FastKernel
  .run` reconstructs the dataclass form once, at the end, for the
  result's ``reduced_states`` field, and :meth:`FastKernel.probe` (the
  probe backends' entry point) never does.

Why the firing order inside one instant does not matter: each channel
has a unique producer and a unique consumer, so firing one enabled
actor can never *disable* another enabled actor (it cannot steal its
input tokens nor fill its output space).  The set of firings performed
at an instant — and hence the resulting state — is therefore confluent,
and the kernel's worklist order yields exactly the state the reference
executor's deterministic index-order scan reaches.

**Blocking mode** (``track_blocking`` / ``probe(blocking=True)``)
records what the reference executor's ``track_blocking`` records: the
channels whose lack of tokens or space kept an idle actor from
starting, and per space-blocking channel its minimal deficit.  A check
with a token shortage records only the short inputs; otherwise every
full output records ``tokens + rate - capacity``.  The worklist skips
only idle actors whose channels did not change since their last check,
and such a check would record nothing new, so without zero-time actors
the records are the reference's.  A zero-time firing moves tokens in
the middle of an instant, and what a check records then depends on
when it runs: on graphs with a zero-time actor, a blocking run scans
the idle actors in index order, pass by pass, exactly as the reference
does.

The kernel implements neither schedule recording, occupancy tracking,
processor arbitration nor tick mode.  :func:`unsupported_options`
encodes that contract — :func:`~repro.engine.executor.execute` runs the
kernel exactly when none of those features is requested and the
reference executor (the oracle) otherwise.

State keys are packed as ``int64`` words; a state component beyond that
range (an execution time or token count of ``2**63`` or more) raises
:class:`~repro.exceptions.KernelLimitError`, like the C kernel's
resource limits.
"""

from __future__ import annotations

import weakref
from array import array
from fractions import Fraction
from heapq import heappop, heappush
from typing import NamedTuple
from collections.abc import Mapping

from repro.engine import executor as _reference
from repro.engine.executor import (
    _DEFAULT_STALL_THRESHOLD,
    ExecutionResult,
    validate_capacities,
)
from repro.engine.state import ReducedState, SDFState
from repro.exceptions import EngineError, GraphError, KernelLimitError
from repro.graph.graph import SDFGraph

#: Executor options the fast kernel supports natively; everything else
#: (when truthy) forces the reference executor.
_FAST_OPTIONS = frozenset({"max_instants", "stall_threshold", "track_blocking"})

#: The :class:`~repro.exceptions.KernelLimitError` message of a state
#: that does not pack into ``int64`` words.
_KEY_OVERFLOW = "a state component exceeds fastcore's int64 state key"


def unsupported_options(options: Mapping[str, object]) -> list[str]:
    """Executor options in *options* that require the reference engine."""
    blockers = []
    for key, value in options.items():
        if key in _FAST_OPTIONS:
            continue
        if key == "mode":
            if value != "event":
                blockers.append(f"mode={value!r}")
        elif value:  # record_schedule / track_* flags, processors mapping
            blockers.append(key)
    return sorted(blockers)


class _Trace(NamedTuple):
    """One kernel execution, before any result assembly."""

    records: dict[bytes, int]  # packed reduced state -> index, in order
    distances: list[int]  # per record, the closing recurrence included
    firing_counts: list[int]
    cycle_start: int | None  # None: zero throughput
    first_firing_time: int | None
    deadlock_time: int | None  # full deadlocks only
    space_deficits: dict[int, int] | None  # channel index -> minimal deficit
    token_blocked: set[int] | None

    def cycle(self) -> tuple[int, int]:
        """Observed firings and duration of the periodic phase."""
        start = self.cycle_start + 1
        return sum(self.firing_counts[start:]), sum(self.distances[start:])


class FastKernel:
    """Per-graph compiled event-calendar executor.

    Compiling (index layout, adjacency, rates) happens once in the
    constructor; :meth:`run` can then be called many times with
    different storage distributions — the access pattern of every
    design-space exploration.  The kernel is stateless between runs.

    Parameters
    ----------
    graph:
        The SDF graph to compile.
    observe:
        Actor whose throughput is measured; defaults to the last actor
        of the graph, exactly as in the reference executor.
    """

    def __init__(self, graph: SDFGraph, observe: str | None = None):
        if graph.num_actors == 0:
            raise GraphError("cannot execute an empty graph")
        self.actor_names = graph.actor_names
        self.channel_names = graph.channel_names
        if observe is None:
            observe = self.actor_names[-1]
        if observe not in graph.actors:
            raise GraphError(f"unknown observed actor {observe!r}")
        self.observe = observe

        actor_index = {name: i for i, name in enumerate(self.actor_names)}
        self._observe_idx = actor_index[observe]
        self._channel_index = {name: j for j, name in enumerate(self.channel_names)}
        self._initial_tokens = [
            graph.channels[name].initial_tokens for name in self.channel_names
        ]
        self._num_actors = len(self.actor_names)
        self._num_channels = len(self.channel_names)
        self._exec_times = [graph.actors[name].execution_time for name in self.actor_names]
        self._has_zero_time = 0 in self._exec_times
        self._inputs = tuple(
            tuple(
                (self._channel_index[channel.name], channel.consumption)
                for channel in graph.incoming(name)
            )
            for name in self.actor_names
        )
        self._outputs = tuple(
            tuple(
                (self._channel_index[channel.name], channel.production)
                for channel in graph.outgoing(name)
            )
            for name in self.actor_names
        )
        # The wakeup lists: each channel's unique endpoints.
        self._producer = [
            actor_index[graph.channels[name].source] for name in self.channel_names
        ]
        self._consumer = [
            actor_index[graph.channels[name].destination] for name in self.channel_names
        ]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        capacities: Mapping[str, int] | None = None,
        *,
        max_instants: int | None = None,
        stall_threshold: int = _DEFAULT_STALL_THRESHOLD,
        track_blocking: bool = False,
    ) -> ExecutionResult:
        """Execute under *capacities* until the periodic phase or deadlock.

        Semantics, bookkeeping and the returned result are identical to
        ``Executor(graph, capacities, observe,
        track_blocking=track_blocking).run()``; only the cost per time
        instant differs.
        """
        trace = self._simulate(
            capacities, max_instants, stall_threshold, track_blocking, track_blocking
        )
        names = self.channel_names
        deficits = trace.space_deficits or {}
        blocking = {
            "space_blocked": frozenset(names[c] for c in deficits),
            "token_blocked": frozenset(names[c] for c in trace.token_blocked or ()),
            "space_deficits": {names[c]: deficit for c, deficit in deficits.items()},
        }
        states_stored = len(trace.records)
        if trace.cycle_start is None:
            return ExecutionResult(
                observe=self.observe,
                throughput=Fraction(0),
                deadlocked=True,
                deadlock_time=trace.deadlock_time,
                first_firing_time=trace.first_firing_time,
                cycle_duration=0,
                firings_in_cycle=0,
                transient_states=states_stored,
                cycle_states=0,
                states_stored=states_stored,
                **blocking,
            )
        firings, duration = trace.cycle()
        # The closing recurrence repeats the record the cycle starts at.
        keys = list(trace.records)
        keys.append(keys[trace.cycle_start])
        return ExecutionResult(
            observe=self.observe,
            throughput=Fraction(firings, duration),
            deadlocked=False,
            deadlock_time=None,
            first_firing_time=trace.first_firing_time,
            cycle_duration=duration,
            firings_in_cycle=firings,
            transient_states=trace.cycle_start + 1,
            cycle_states=states_stored - trace.cycle_start,
            states_stored=states_stored,
            reduced_states=tuple(self._unpack_record(key) for key in keys),
            **blocking,
        )

    def probe(
        self, capacities: Mapping[str, int] | None = None, *, blocking: bool = False
    ) -> tuple[Fraction, int, bool, dict[str, int] | None]:
        """``(throughput, states_stored, deadlocked, space_deficits)`` of
        one execution, without assembling an :class:`ExecutionResult`.

        The probe path of the ``fastcore`` backend: the recorded states
        are never unpacked.  With *blocking*, ``space_deficits`` maps
        every channel whose lack of space blocked a firing to its
        minimal deficit, exactly as the reference executor's
        ``track_blocking`` reports it; otherwise it is ``None``.
        """
        trace = self._simulate(capacities, None, _DEFAULT_STALL_THRESHOLD, blocking, False)
        deficits = trace.space_deficits
        if deficits is not None:
            names = self.channel_names
            deficits = {names[c]: deficit for c, deficit in deficits.items()}
        if trace.cycle_start is None:
            return Fraction(0), len(trace.records), True, deficits
        return Fraction(*trace.cycle()), len(trace.records), False, deficits

    def _simulate(
        self,
        capacities: Mapping[str, int] | None,
        max_instants: int | None,
        stall_threshold: int,
        space_blocking: bool,
        token_blocking: bool,
    ) -> _Trace:
        """The event loop behind :meth:`run` and :meth:`probe`.

        The body is one deliberately flat loop: every name used per
        firing is a local.  *space_blocking* / *token_blocking* collect
        what the reference executor's ``_can_start`` records under
        ``track_blocking``: a token shortage records every short input; otherwise
        every full output records its deficit ``tokens + rate -
        capacity``, keeping the minimum per channel.
        """
        caps = validate_capacities(capacities, self._channel_index, self._initial_tokens)
        n = self._num_actors
        m = self._num_channels
        observe_idx = self._observe_idx
        exec_times = self._exec_times
        producer = self._producer
        consumer = self._consumer
        # Read through the reference module so tests patching the guard
        # cover both engines.
        max_firings = _reference._MAX_FIRINGS_PER_INSTANT

        # Per-run specialisation: fold the capacity vector into the
        # per-actor structures once, so the hot loop does no capacity
        # lookups and carries its wakeup targets inline.
        #   in_updates[i]:  (channel, rate, producer-to-wake or -1)
        #   out_updates[i]: (channel, rate, consumer-to-wake)
        #   in_checks[i]:   (channel, needed tokens)
        #   out_checks[i]:  (channel, max tokens before the firing) —
        #                   bounded channels only; `capacity - rate`
        #                   may be negative, which (correctly) blocks
        #                   the producer forever.
        in_updates = [
            tuple(
                (c, r, producer[c] if caps[c] is not None else -1)
                for c, r in self._inputs[i]
            )
            for i in range(n)
        ]
        out_updates = [
            tuple((c, r, consumer[c]) for c, r in self._outputs[i]) for i in range(n)
        ]
        in_checks = self._inputs
        out_checks = [
            tuple((c, caps[c] - r) for c, r in self._outputs[i] if caps[c] is not None)
            for i in range(n)
        ]

        deficits: dict[int, int] | None = {} if space_blocking else None
        token_blocked: set[int] | None = set() if token_blocking else None
        # A check records what it sees, so which checks run matters.
        # The worklist skips only idle actors whose channels did not
        # change since their last check, and such a check records
        # nothing new.  A zero-time firing, however, moves tokens in the
        # middle of an instant: then every pass of a blocking run checks
        # the idle actors in index order, as the reference executor
        # does, and the queued flags stay set so wakeups append nothing.
        rescan = (space_blocking or token_blocking) and self._has_zero_time
        scan_order = range(n - 1, -1, -1)  # popped in index order

        tokens = list(self._initial_tokens)
        completion = [-1] * n  # absolute completion time; -1 = idle
        # Events are packed as `completion_time * n + actor`, so the
        # calendar is a heap of plain ints (cheaper than tuples).
        calendar: list[int] = []
        queued = bytearray(b"\x01") * n
        worklist = [] if rescan else list(range(n))
        completions: list[int] = []

        distances: list[int] = []
        firing_counts: list[int] = []
        # Packed reduced state -> record index, in recording order.
        seen: dict[bytes, int] = {}
        full_seen: set[bytes] | None = None
        scratch = [0] * (n + m + 2)

        time = 0
        instants = 0
        instants_since_firing = 0
        last_firing_time = 0
        first_firing_time: int | None = None

        while True:
            # -- complete due firings --------------------------------
            observed = 0
            for i in completions:
                completion[i] = -1
                for c, r, j in in_updates[i]:
                    tokens[c] -= r
                    if j >= 0 and not queued[j]:
                        queued[j] = 1
                        worklist.append(j)
                for c, r, j in out_updates[i]:
                    tokens[c] += r
                    if not queued[j]:
                        queued[j] = 1
                        worklist.append(j)
                if not queued[i]:
                    queued[i] = 1
                    worklist.append(i)
                if i == observe_idx:
                    observed += 1

            # -- start enabled firings (worklist fixpoint) ------------
            fired = 0
            cascade = True
            while cascade:
                # One pass; with rescan, another follows every pass
                # that fired a zero-time actor.
                cascade = False
                if rescan:
                    worklist.extend(scan_order)
                while worklist:
                    i = worklist.pop()
                    queued[i] = rescan
                    if completion[i] >= 0:
                        continue  # busy; re-checked when its event fires
                    starved = False
                    for c, r in in_checks[i]:
                        if tokens[c] < r:
                            starved = True
                            break
                    if starved:
                        if token_blocked is not None:
                            token_blocked.update(c for c, r in in_checks[i] if tokens[c] < r)
                        continue
                    full = False
                    for c, limit in out_checks[i]:
                        if tokens[c] > limit:
                            full = True
                            break
                    if full:
                        if deficits is not None:
                            for c, limit in out_checks[i]:
                                excess = tokens[c] - limit
                                if excess > 0:
                                    known = deficits.get(c)
                                    if known is None or excess < known:
                                        deficits[c] = excess
                        continue
                    fired += 1
                    if fired > max_firings:
                        raise EngineError(
                            f"more than {max_firings} firings in one time instant;"
                            " a zero-execution-time cascade diverges (unbounded channel?)"
                        )
                    duration = exec_times[i]
                    if duration == 0:
                        for c, r, j in in_updates[i]:
                            tokens[c] -= r
                            if j >= 0 and not queued[j]:
                                queued[j] = 1
                                worklist.append(j)
                        for c, r, j in out_updates[i]:
                            tokens[c] += r
                            if not queued[j]:
                                queued[j] = 1
                                worklist.append(j)
                        if not queued[i]:
                            queued[i] = 1
                            worklist.append(i)
                        if i == observe_idx:
                            observed += 1
                        cascade = rescan
                    else:
                        until = time + duration
                        completion[i] = until
                        heappush(calendar, until * n + i)

            # -- record / stall bookkeeping ---------------------------
            if observed:
                if first_firing_time is None:
                    first_firing_time = time
                distance = time - last_firing_time
                last_firing_time = time
                instants_since_firing = 0
                full_seen = None
                for i in range(n):
                    c = completion[i]
                    scratch[i] = c - time if c >= 0 else 0
                scratch[n : n + m] = tokens
                scratch[n + m] = distance
                scratch[n + m + 1] = observed
                try:
                    key = array("q", scratch).tobytes()
                except OverflowError:
                    raise KernelLimitError(_KEY_OVERFLOW) from None
                distances.append(distance)
                firing_counts.append(observed)
                cycle_start = seen.get(key)
                if cycle_start is not None:
                    return _Trace(
                        seen,
                        distances,
                        firing_counts,
                        cycle_start,
                        first_firing_time,
                        None,
                        deficits,
                        token_blocked,
                    )
                seen[key] = len(seen)
            else:
                instants_since_firing += 1
                if instants_since_firing >= stall_threshold:
                    if full_seen is None:
                        full_seen = set()
                    for i in range(n):
                        c = completion[i]
                        scratch[i] = c - time if c >= 0 else 0
                    scratch[n : n + m] = tokens
                    try:
                        full_key = array("q", scratch[: n + m]).tobytes()
                    except OverflowError:
                        raise KernelLimitError(_KEY_OVERFLOW) from None
                    if full_key in full_seen:
                        # The graph loops without ever firing the
                        # observed actor again: starvation.
                        return _Trace(
                            seen,
                            distances,
                            firing_counts,
                            None,
                            first_firing_time,
                            None,
                            deficits,
                            token_blocked,
                        )
                    full_seen.add(full_key)

            # -- advance to the next completion event -----------------
            if not calendar:
                return _Trace(
                    seen,
                    distances,
                    firing_counts,
                    None,
                    first_firing_time,
                    time,
                    deficits,
                    token_blocked,
                )
            instants += 1
            if max_instants is not None and instants > max_instants:
                raise EngineError(f"execution exceeded {max_instants} time instants")
            time = calendar[0] // n
            bound = (time + 1) * n  # all events of this instant are below it
            completions = []
            while calendar and calendar[0] < bound:
                completions.append(heappop(calendar) - time * n)

    # ------------------------------------------------------------------
    # Result assembly (cold path)
    # ------------------------------------------------------------------
    def _unpack_record(self, key: bytes) -> ReducedState:
        values = array("q")
        values.frombytes(key)
        n, m = self._num_actors, self._num_channels
        state = SDFState(tuple(values[:n]), tuple(values[n : n + m]))
        return ReducedState(state, values[n + m], values[n + m + 1])


#: Weak per-graph kernel cache: {graph: (shape, {observe: kernel})}.
#: Keyed weakly, and a kernel keeps only index data, never its graph, so
#: exploring many graphs leaks nothing; the shape pair invalidates
#: kernels when actors/channels are added after compiling.
_KERNELS: "weakref.WeakKeyDictionary[SDFGraph, tuple[tuple[int, int], dict[str, FastKernel]]]" = (
    weakref.WeakKeyDictionary()
)


def kernel_for(graph: SDFGraph, observe: str | None = None) -> FastKernel:
    """The (cached) compiled kernel of *graph* for *observe*.

    Graphs are treated as structurally immutable once analysed — the
    same contract the consistency-verdict memo in
    :mod:`repro.analysis.consistency` relies on.  Adding actors or
    channels afterwards recompiles; in-place rate mutation is
    unsupported.
    """
    shape = (graph.num_actors, graph.num_channels)
    cached = _KERNELS.get(graph)
    if cached is None or cached[0] != shape:
        cached = (shape, {})
        _KERNELS[graph] = cached
    kernels = cached[1]
    key = observe if observe is not None else graph.actor_names[-1] if graph.num_actors else ""
    kernel = kernels.get(key)
    if kernel is None:
        kernel = FastKernel(graph, observe)
        kernels[key] = kernel
    return kernel


def fast_execute(
    graph: SDFGraph,
    capacities: Mapping[str, int] | None = None,
    observe: str | None = None,
    *,
    max_instants: int | None = None,
    stall_threshold: int = _DEFAULT_STALL_THRESHOLD,
    track_blocking: bool = False,
) -> ExecutionResult:
    """One fast-kernel execution (kernel compiled or reused per graph)."""
    return kernel_for(graph, observe).run(
        capacities,
        max_instants=max_instants,
        stall_threshold=stall_threshold,
        track_blocking=track_blocking,
    )
