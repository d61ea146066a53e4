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

The simulation mirrors the reference executor's semantics exactly
(:mod:`repro.engine.executor`): an actor may start when every input
holds its consumption rate *and* every output has room for its
production rate under the storage distribution (the paper's
conservative claim model); tokens move at the *end* of a firing;
enabled actors start simultaneously, zero-execution-time firings
cascade within the instant, and time advances to the next completion.
The only difference is the per-actor firing quota — an actor whose
quota is met stops firing, which is precisely the barrier.

Because one iteration returns every channel to its initial marking,
the makespan is also the exact period of the *barriered* (non-
pipelined) repetition of the scenario, which is what the worst-case
cycle ratios of :mod:`repro.sadf.throughput` sum up.
"""

from __future__ import annotations

from typing import NamedTuple
from collections.abc import Mapping

from repro.analysis.repetitions import repetition_vector
from repro.engine.executor import validate_capacities
from repro.exceptions import EngineError
from repro.graph.graph import SDFGraph

#: Guard against zero-execution-time cascades that diverge (mirrors the
#: reference executor's guard; a quota'd run cannot exceed the quota
#: sum, so this only trips on internal errors).
_MAX_FIRINGS_PER_INSTANT = 1_000_000


class MakespanResult(NamedTuple):
    """Outcome of one quota'd self-timed execution.

    ``time`` is ``None`` when the iteration deadlocks under the given
    storage distribution (the scenario is infeasible at that sizing).
    ``space_blocked`` / ``space_deficits`` record every channel whose
    lack of space delayed an otherwise-enabled firing, with the minimal
    observed shortfall — the growth hints of the all-scenario sweep.
    """

    time: int | None
    deadlocked: bool
    space_blocked: frozenset[str]
    space_deficits: Mapping[str, int]


def iteration_makespan(
    graph: SDFGraph,
    capacities: Mapping[str, int],
    repetitions: Mapping[str, int] | None = None,
) -> MakespanResult:
    """Makespan of one repetition-vector iteration of *graph* under
    *capacities* (``None`` time on deadlock)."""
    channel_names = graph.channel_names
    channel_index = {name: i for i, name in enumerate(channel_names)}
    tokens = {name: graph.channels[name].initial_tokens for name in channel_names}
    validated = validate_capacities(capacities, channel_index, list(tokens.values()))
    if repetitions is None:
        repetitions = repetition_vector(graph)

    actors = list(graph.actors.values())
    caps = {name: validated[channel_index[name]] for name in channel_names}
    inputs = {
        actor.name: [(c.name, c.consumption) for c in graph.incoming(actor.name)]
        for actor in actors
    }
    outputs = {
        actor.name: [(c.name, c.production) for c in graph.outgoing(actor.name)]
        for actor in actors
    }
    remaining = {actor.name: int(repetitions[actor.name]) for actor in actors}
    clocks = {actor.name: 0 for actor in actors}  # 0 idle, >0 time left
    exec_time = {actor.name: actor.execution_time for actor in actors}

    space_blocked: set[str] = set()
    space_deficits: dict[str, int] = {}
    time = 0
    last_completion = 0

    def can_start(name: str) -> bool:
        for channel, rate in inputs[name]:
            if tokens[channel] < rate:
                return False
        blocked = []
        for channel, rate in outputs[name]:
            capacity = caps[channel]
            if capacity is not None and tokens[channel] + rate > capacity:
                blocked.append((channel, tokens[channel] + rate - capacity))
        if blocked:
            for channel, deficit in blocked:
                space_blocked.add(channel)
                known = space_deficits.get(channel)
                if known is None or deficit < known:
                    space_deficits[channel] = deficit
            return False
        return True

    def finish(name: str) -> None:
        for channel, rate in inputs[name]:
            tokens[channel] -= rate
        for channel, rate in outputs[name]:
            tokens[channel] += rate

    while True:
        # Start every enabled quota-holding actor; zero-time firings
        # complete immediately and may cascade within the instant.
        fired_this_instant = 0
        progress = True
        while progress:
            progress = False
            for actor in actors:
                name = actor.name
                if clocks[name] != 0 or remaining[name] <= 0:
                    continue
                if not can_start(name):
                    continue
                fired_this_instant += 1
                if fired_this_instant > _MAX_FIRINGS_PER_INSTANT:
                    raise EngineError(
                        "zero-execution-time cascade diverges in makespan"
                        " simulation (internal error)"
                    )
                remaining[name] -= 1
                if exec_time[name] == 0:
                    finish(name)
                    last_completion = time
                    progress = True
                else:
                    clocks[name] = exec_time[name]

        if all(count == 0 for count in remaining.values()) and not any(
            clock > 0 for clock in clocks.values()
        ):
            return MakespanResult(
                last_completion, False, frozenset(space_blocked), dict(space_deficits)
            )

        busy = [clock for clock in clocks.values() if clock > 0]
        if not busy:
            # Quotas unmet and nothing running: the iteration deadlocks.
            return MakespanResult(
                None, True, frozenset(space_blocked), dict(space_deficits)
            )
        delta = min(busy)
        time += delta
        for name in clocks:
            if clocks[name] > 0:
                clocks[name] -= delta
                if clocks[name] == 0:
                    finish(name)
                    last_completion = time
