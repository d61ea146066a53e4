"""Unit tests for the CSDF execution engine."""

import random

from fractions import Fraction

import pytest

from repro.csdf.executor import CSDFExecutor
from repro.csdf.graph import CSDFGraph, from_sdf
from repro.engine.executor import Executor
from repro.exceptions import CapacityError
from repro.gallery.random_graphs import random_consistent_graph


def downsampler():
    graph = CSDFGraph("down")
    graph.add_actor("src", (1,))
    graph.add_actor("ds", (2, 1))
    graph.add_actor("snk", (1,))
    graph.add_channel("src", "ds", (1,), (1, 1), name="a")
    graph.add_channel("ds", "snk", (0, 1), (1,), name="b")
    return graph


class TestCSDFSemantics:
    def test_downsampler_throughput(self):
        # ds alternates a 2-step phase and a 1-step phase; snk gets one
        # token per full cycle (3 steps of ds work, pipelined with src).
        result = CSDFExecutor(downsampler(), {"a": 2, "b": 1}, "snk").run()
        assert result.throughput == Fraction(1, 3)

    def test_zero_rate_phase_skips_channel_conditions(self):
        # Phase 0 of ds produces nothing on b, so a full b never blocks it.
        graph = downsampler()
        result = CSDFExecutor(graph, {"a": 2, "b": 1}, "ds", record_schedule=True).run()
        assert result.throughput > 0
        # ds fires twice per cycle: phases alternate.
        assert result.firings_in_cycle % 2 == 0 or result.throughput == Fraction(2, 3)

    def test_phase_cycle_advances(self):
        graph = downsampler()
        executor = CSDFExecutor(graph, {"a": 2, "b": 1}, "snk")
        executor.run()
        state = executor.state()
        assert len(state.phases) == 3

    def test_deadlock_on_tiny_capacity(self):
        result = CSDFExecutor(downsampler(), {"a": 0, "b": 1}, "snk").run()
        assert result.deadlocked
        assert result.throughput == 0

    def test_blocking_tracked(self):
        result = CSDFExecutor(
            downsampler(), {"a": 1, "b": 1}, "snk", track_blocking=True
        ).run()
        assert result.throughput > 0 or result.space_blocked

    def test_capacity_validation(self):
        with pytest.raises(CapacityError):
            CSDFExecutor(downsampler(), {"zz": 1})

    def test_tick_event_equivalent(self):
        caps = {"a": 2, "b": 1}
        tick = CSDFExecutor(downsampler(), caps, "snk", mode="tick").run()
        event = CSDFExecutor(downsampler(), caps, "snk", mode="event").run()
        assert tick.throughput == event.throughput
        assert tick.first_firing_time == event.first_firing_time

    def test_schedule_recording(self):
        result = CSDFExecutor(
            downsampler(), {"a": 2, "b": 1}, "snk", record_schedule=True
        ).run()
        schedule = result.schedule
        assert schedule.num_firings("ds") >= 2
        durations = {event.duration for event in schedule.firings("ds")}
        assert durations == {1, 2}  # the two phase execution times


class TestSDFEquivalence:
    """Single-phase CSDF must behave exactly like the SDF engine."""

    def test_fig1_equivalence(self, fig1):
        caps = {"alpha": 4, "beta": 2}
        sdf = Executor(fig1, caps, "c").run()
        csdf = CSDFExecutor(from_sdf(fig1), caps, "c").run()
        assert csdf.throughput == sdf.throughput == Fraction(1, 7)
        assert csdf.first_firing_time == sdf.first_firing_time
        assert csdf.cycle_duration == sdf.cycle_duration

    @pytest.mark.parametrize("seed", range(10))
    def test_random_graph_equivalence(self, seed):
        rng = random.Random(seed)
        graph = random_consistent_graph(rng)
        caps = {
            channel.name: max(
                channel.initial_tokens,
                channel.production + channel.consumption + rng.randint(0, 3),
            )
            for channel in graph.channels.values()
        }
        sdf = Executor(graph, caps).run()
        csdf = CSDFExecutor(from_sdf(graph), caps).run()
        assert csdf.throughput == sdf.throughput
        assert csdf.deadlocked == sdf.deadlocked


# -- a seeded multi-phase corpus ----------------------------------------------


def split(rng: random.Random, total: int, parts: int) -> list[int]:
    """*total* split into *parts* non-negative integers, in order."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [high - low for low, high in zip([0, *cuts], [*cuts, total])]


def phased_case(seed: int) -> tuple[CSDFGraph, dict[str, int], str]:
    """A random consistent graph whose actors get 1-3 phases each.

    Each phase gets an execution time of 0-3 (at least one of them
    positive, so no zero-time cascade diverges), and each rate is split
    over the phases of its endpoint, keeping its sum: the phase cycles
    balance as the SDF rates did.  Capacities sit just below or at the
    tightest sizes, so about half the cases deadlock.
    """
    rng = random.Random(seed)
    sdf = random_consistent_graph(rng)
    graph = CSDFGraph(sdf.name)
    phases = {name: rng.randint(1, 3) for name in sdf.actor_names}
    for name in sdf.actor_names:
        times = [rng.randint(0, 3) for _ in range(phases[name])]
        if not any(times):
            times[rng.randrange(len(times))] = rng.randint(1, 3)
        graph.add_actor(name, times)
    for channel in sdf.channels.values():
        graph.add_channel(
            channel.source,
            channel.destination,
            split(rng, channel.production, phases[channel.source]),
            split(rng, channel.consumption, phases[channel.destination]),
            channel.initial_tokens,
            name=channel.name,
        )
    capacities = {}
    for channel in graph.channels.values():
        least = max(channel.productions) + max(channel.consumptions)
        slack = least - 1 + rng.randint(0, 2) if seed % 2 else rng.randint(0, least + 2)
        capacities[channel.name] = channel.initial_tokens + slack
    return graph, capacities, rng.choice(graph.actor_names)


#: Per seed of :func:`phased_case`: throughput, ``states_stored``,
#: ``deadlocked``, ``first_firing_time``, ``space_deficits`` (its keys are
#: ``space_blocked``) and ``token_blocked``.  Generated by a separate CSDF
#: simulator, so they check this one independently; event and tick mode
#: agree on all of them.
PHASED_CORPUS = {
    0: ("0", 0, True, None, {"c0": 1}, ("c0", "c1", "c2", "c3", "c4")),
    1: ("1/9", 2, False, 2, {"c0": 1}, ("c0", "c1", "c2")),
    2: ("0", 0, True, None, {"c0": 1}, ("c0",)),
    3: ("3/4", 4, False, 3, {"c1": 1, "c2": 1}, ("c1", "c2")),
    4: ("3/10", 4, False, 3, {"c1": 1}, ("c0", "c1", "c3")),
    5: ("4/13", 4, False, 7, {}, ("c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7")),
    6: ("0", 4, True, 2, {"c0": 1}, ("c0",)),
    7: ("1/8", 2, False, 3, {"c0": 1, "c4": 1}, ("c0", "c1", "c2", "c3", "c4")),
    8: ("0", 0, True, None, {"c0": 2, "c1": 1}, ("c0", "c1")),
    9: ("4/15", 4, False, 5, {"c0": 1, "c4": 1}, ("c0", "c1", "c2", "c3", "c4", "c5")),
    10: ("0", 0, True, None, {"c0": 2}, ("c0",)),
    11: ("1/2", 7, False, 1, {}, ("c0", "c1", "c2", "c3", "c4", "c6")),
    12: ("0", 0, True, None, {"c1": 2, "c4": 1, "c5": 6}, ("c0", "c1", "c2", "c3", "c4", "c5")),
    13: ("4/29", 4, False, 14, {"c0": 1, "c3": 1}, ("c0", "c1", "c2", "c3")),
    14: ("3/8", 6, False, 3, {"c0": 1}, ("c0",)),
    15: ("1/6", 3, False, 3, {"c2": 1}, ("c0", "c1", "c2")),
    16: ("0", 3, True, 8, {"c0": 1, "c3": 1}, ("c0", "c1", "c2", "c3")),
    17: ("0", 3, True, 0, {"c4": 1}, ("c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7")),
    18: ("0", 0, True, None, {"c0": 4}, ("c0", "c1")),
    19: ("3/13", 4, False, 0, {"c0": 1}, ("c0",)),
    20: ("0", 2, True, 0, {"c0": 1}, ("c0", "c2")),
    21: ("1/6", 5, False, 8, {}, ("c0", "c1")),
    22: ("1", 7, False, 0, {"c0": 2}, ("c1", "c2")),
    23: ("9/19", 11, False, 0, {"c2": 1, "c3": 1}, ("c0", "c1", "c2", "c3", "c4", "c5")),
    24: ("0", 1, True, 6, {"c1": 1, "c2": 1, "c4": 1}, ("c0", "c1", "c2", "c3", "c4")),
    25: ("1/19", 3, False, 12, {"c1": 2, "c2": 3}, ("c0", "c1", "c2", "c3", "c5")),
    26: ("0", 2, True, 3, {"c0": 1, "c1": 2}, ("c0", "c1")),
    27: ("1/5", 4, False, 3, {"c1": 1}, ("c0", "c1", "c2", "c3", "c5", "c7", "c8")),
    28: ("0", 0, True, None, {"c0": 1}, ("c0",)),
    29: ("1/3", 1, False, 3, {}, ("c0",)),
    30: ("0", 1, True, 2, {"c0": 2, "c3": 2}, ("c0", "c2", "c3")),
    31: ("1/8", 1, False, 8, {}, ("c0",)),
    32: ("1/3", 3, False, 2, {}, ("c0", "c1")),
    33: ("9/19", 10, False, 2, {"c0": 1, "c1": 1}, ("c0", "c1")),
    34: ("0", 6, True, 1, {"c2": 2}, ("c0", "c1", "c2", "c3", "c4", "c5")),
    35: ("0", 0, True, None, {"c0": 1, "c3": 2}, ("c0", "c1", "c2", "c3")),
    36: ("0", 0, True, None, {"c0": 2, "c1": 2}, ("c1", "c2")),
    37: ("1", 4, False, 7, {"c0": 1}, ("c0",)),
    38: ("0", 9, True, 1, {"c1": 2}, ("c0", "c1", "c2", "c3", "c4", "c5")),
    39: ("4/17", 5, False, 8, {"c0": 1}, ("c0", "c1", "c2")),
}


@pytest.mark.parametrize("mode", ["event", "tick"])
@pytest.mark.parametrize("seed", sorted(PHASED_CORPUS))
def test_phased_corpus_is_pinned(seed, mode):
    graph, capacities, observe = phased_case(seed)
    throughput, states, deadlocked, first_firing, deficits, token_blocked = PHASED_CORPUS[seed]
    result = CSDFExecutor(graph, capacities, observe, mode=mode, track_blocking=True).run()
    assert result.throughput == Fraction(throughput)
    assert result.states_stored == states
    assert result.deadlocked == deadlocked
    assert result.first_firing_time == first_firing
    assert dict(result.space_deficits) == deficits
    assert result.space_blocked == frozenset(deficits)
    assert result.token_blocked == frozenset(token_blocked)
    plain = CSDFExecutor(graph, capacities, observe, mode=mode).run()
    assert (plain.throughput, plain.states_stored) == (result.throughput, states)
    assert not plain.space_blocked and not plain.token_blocked
