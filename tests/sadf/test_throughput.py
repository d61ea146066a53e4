"""Unit tests for the all-scenario worst-case throughput analysis."""

from fractions import Fraction

import pytest

from repro.exceptions import GraphError
from repro.sadf.fsm import ScenarioFSM
from repro.sadf.graph import SADFGraph, from_sdf
from repro.sadf.throughput import worst_case_throughput


def two_mode(fsm: ScenarioFSM | None = None) -> SADFGraph:
    sadf = SADFGraph("toy")
    sadf.add_actor("a")
    sadf.add_actor("b")
    sadf.add_channel("a", "b", name="c")
    sadf.add_scenario("fast", execution_times={"a": 1, "b": 1})
    sadf.add_scenario("slow", execution_times={"a": 2, "b": 3})
    if fsm is not None:
        sadf.set_fsm(fsm)
    return sadf


class TestWorstCase:
    def test_switching_cycle_binds(self):
        # No residence: every accepted sequence alternates fast / slow.
        fsm = ScenarioFSM("fast", [("fast", "slow", 1), ("slow", "fast", 2)])
        report = worst_case_throughput(two_mode(fsm), {"c": 3}, "b")
        # One tour: makespans 2 (fast) + 5 (slow) + delays 3, 2 firings.
        assert report.worst_case == Fraction(2, 10)
        assert report.makespans == {"fast": 2, "slow": 5}
        assert report.cycle.states == ("fast", "slow")
        assert report.cycle.firings == 2
        assert report.cycle.duration == 10
        assert report.cycle.delay == 3
        assert report.critical == "switching cycle fast -> slow"

    def test_residence_beats_cycle_when_slower(self):
        # Zero-delay self-loop on slow: residing there pays the
        # pipelined steady state of the slow scenario, 1/3 with cap 1...
        fsm = ScenarioFSM(
            "fast",
            [("fast", "fast", 0), ("fast", "slow", 0), ("slow", "slow", 0),
             ("slow", "fast", 0)],
        )
        report = worst_case_throughput(two_mode(fsm), {"c": 1}, "b")
        slow_steady = report.per_scenario["slow"]
        assert report.worst_case <= slow_steady
        assert report.worst_case > 0

    def test_residence_wins_a_tie_with_the_cycle(self):
        fsm = ScenarioFSM(
            "fast", [("fast", "slow", 1), ("slow", "slow", 0), ("slow", "fast", 2)]
        )
        report = worst_case_throughput(two_mode(fsm), {"c": 1}, "b")
        # Residing in slow and touring fast -> slow both give 1/5.
        assert report.per_scenario["slow"] == report.cycle.ratio == Fraction(1, 5)
        assert report.critical == "residence in scenario 'slow'"

    def test_default_fsm_is_any_order(self):
        report = worst_case_throughput(two_mode(), {"c": 2}, "b")
        # Complete zero-delay FSM: both residences and both switching
        # directions are candidates; the worst is the slow-heavy tour.
        assert report.worst_case > 0
        assert report.per_scenario.keys() == {"fast", "slow"}

    def test_deadlock_pins_zero(self):
        sadf = SADFGraph("dead")
        sadf.add_actor("a")
        sadf.add_actor("b")
        sadf.add_channel("a", "b", name="c")
        sadf.add_scenario("wide", productions={"c": 4}, consumptions={"c": 4},
                          execution_times={"a": 1, "b": 1})
        report = worst_case_throughput(sadf, {"c": 2}, "b")
        assert report.worst_case == 0
        assert "deadlocks" in report.critical

    def test_complete_fsm_is_exact(self):
        # Five scenarios, fully connected: far more than 64 simple
        # cycles.  Residing anywhere is free, switching into s0 costs 9.
        sadf = SADFGraph("five")
        sadf.add_actor("a")
        sadf.add_actor("b")
        sadf.add_channel("a", "b", name="c")
        for index in range(5):
            sadf.add_scenario(f"s{index}", execution_times={"a": 1, "b": index + 1})
        fsm = ScenarioFSM("s0")
        for source in sadf.scenario_names:
            for target in sadf.scenario_names:
                fsm.add_transition(source, target, 9 if target == "s0" != source else 0)
        sadf.set_fsm(fsm)
        report = worst_case_throughput(sadf, {"c": 2}, "b")
        # Barriered iterations of s_i take i + 2; the slowest tour is
        # s0 -> s4 -> s0: 2 firings over 2 + 6 + 9.  Pricing every
        # switch at the largest delay would give only 1 / (6 + 9).
        assert report.worst_case == Fraction(2, 17)
        assert report.cycle.states == ("s0", "s4")
        assert report.critical == "switching cycle s0 -> s4"

    def test_dead_end_fsm_flagged(self):
        # No cycle and no self-loop: only finite sequences, rejected.
        fsm = ScenarioFSM("fast", [("fast", "slow", 1)])
        with pytest.raises(GraphError, match="no long-run throughput"):
            worst_case_throughput(two_mode(fsm), {"c": 3}, "b")

    def test_degenerate_equals_sdf_throughput(self, fig1):
        from repro.engine.executor import Executor

        sadf = from_sdf(fig1)
        capacities = {"alpha": 4, "beta": 2}
        report = worst_case_throughput(sadf, capacities, "c")
        assert report.worst_case == Executor(fig1, capacities, "c").run().throughput
        assert report.critical == "residence in scenario 'default'"

    def test_unknown_observe(self):
        with pytest.raises(GraphError, match="no actor"):
            worst_case_throughput(two_mode(), {"c": 2}, "zz")

    def test_summary_mentions_everything(self):
        fsm = ScenarioFSM("fast", [("fast", "slow", 1), ("slow", "fast", 2)])
        text = worst_case_throughput(two_mode(fsm), {"c": 3}, "b").summary()
        assert "worst-case throughput" in text
        assert "scenario fast" in text and "scenario slow" in text
        assert "cycle fast -> slow: 2 firing(s) / 10 (+3 delay) = 1/5" in text
        assert "binding constraint" in text

    def test_memoised_oracles_are_used(self):
        from repro.sadf.makespan import iteration_makespan

        sadf = two_mode(ScenarioFSM("fast", [("fast", "slow", 1), ("slow", "fast", 2)]))
        calls = []

        def throughputs(name):
            calls.append(name)
            from repro.engine.executor import Executor

            return Executor(sadf.scenario_graph(name), {"c": 3}, "b").run().throughput

        def makespans(name):
            return iteration_makespan(
                sadf.scenario_graph(name), {"c": 3}, sadf.scenario_repetitions(name)
            )

        report = worst_case_throughput(
            sadf, {"c": 3}, "b", throughputs=throughputs, makespans=makespans
        )
        assert report.worst_case == Fraction(1, 5)
        assert sorted(calls) == ["fast", "slow"]
