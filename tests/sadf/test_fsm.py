"""Unit tests for the scenario FSM and its structural queries."""

import pytest

from repro.exceptions import GraphError
from repro.sadf.fsm import ScenarioFSM, ScenarioTransition


class TestConstruction:
    def test_transition_validation(self):
        with pytest.raises(GraphError, match="non-empty"):
            ScenarioTransition("", "b")
        with pytest.raises(GraphError, match=">= 0"):
            ScenarioTransition("a", "b", delay=-1)
        with pytest.raises(GraphError, match="must be int"):
            ScenarioTransition("a", "b", delay=True)

    def test_one_edge_per_ordered_pair(self):
        fsm = ScenarioFSM("a")
        fsm.add_transition("a", "b", 1)
        with pytest.raises(GraphError, match="duplicate transition"):
            fsm.add_transition("a", "b", 2)
        fsm.add_transition("b", "a")  # the reverse direction is distinct

    def test_single(self):
        fsm = ScenarioFSM.single("s")
        assert fsm.states == ("s",)
        assert fsm.has_zero_delay_self_loop("s")
        assert fsm.is_fully_connected()

    def test_complete(self):
        fsm = ScenarioFSM.complete(("a", "b", "c"), delay=2)
        assert len(fsm.transitions) == 9
        assert fsm.is_fully_connected()
        assert {t.delay for t in fsm.transitions} == {2}
        assert not fsm.has_zero_delay_self_loop("a")


class TestStructure:
    def test_reachable_ignores_disconnected(self):
        fsm = ScenarioFSM("a")
        fsm.add_transition("a", "b")
        fsm.add_transition("c", "d")  # not reachable from a
        assert fsm.reachable() == ("a", "b")
        assert not fsm.is_fully_connected()

    def test_successors_and_lookup(self):
        fsm = ScenarioFSM("a")
        fsm.add_transition("a", "b", 3)
        fsm.add_transition("a", "a")
        assert [t.target for t in fsm.successors("a")] == ["b", "a"]
        assert fsm.transition("a", "b").delay == 3
        assert fsm.transition("b", "a") is None


    def test_infinite_run_needs_a_reachable_cycle(self):
        assert ScenarioFSM.single("s").has_infinite_run()
        assert ScenarioFSM("s", [("s", "s", 4)]).has_infinite_run()
        assert ScenarioFSM("a", [("a", "b"), ("b", "c"), ("c", "b", 1)]).has_infinite_run()
        # Dead ends, and a cycle that only unreachable states close.
        assert not ScenarioFSM("a").has_infinite_run()
        assert not ScenarioFSM("a", [("a", "b"), ("b", "c")]).has_infinite_run()
        assert not ScenarioFSM("a", [("a", "b"), ("x", "y"), ("y", "x")]).has_infinite_run()

    def test_describe(self):
        fsm = ScenarioFSM("a", [("a", "b", 2)])
        assert fsm.describe() == "initial=a; a->b(2)"
