"""Unit tests for repro.analysis.throughput."""

from fractions import Fraction

import pytest

from repro.analysis.throughput import analyze, max_throughput, throughput
from repro.exceptions import AnalysisError, InconsistentGraphError
from repro.graph.builder import GraphBuilder


class TestThroughput:
    def test_paper_headline_numbers(self, fig1):
        assert throughput(fig1, {"alpha": 4, "beta": 2}, "c") == Fraction(1, 7)
        assert throughput(fig1, {"alpha": 6, "beta": 2}, "c") == Fraction(1, 6)
        assert throughput(fig1, {"alpha": 5, "beta": 2}, "c") == Fraction(1, 7)

    def test_deadlocking_distribution(self, fig1):
        assert throughput(fig1, {"alpha": 3, "beta": 2}, "c") == 0

    def test_default_observe_is_last_actor(self, fig1):
        assert throughput(fig1, {"alpha": 4, "beta": 2}) == Fraction(1, 7)

    def test_throughputs_of_actors_relate_by_repetition_vector(self, fig1):
        caps = {"alpha": 4, "beta": 2}
        assert throughput(fig1, caps, "a") == 3 * throughput(fig1, caps, "c")
        assert throughput(fig1, caps, "b") == 2 * throughput(fig1, caps, "c")

    def test_analyze_exposes_cycle_structure(self, fig1):
        result = analyze(fig1, {"alpha": 4, "beta": 2}, "c")
        assert result.cycle_duration == 7
        assert result.firings_in_cycle == 1
        assert result.first_firing_time == 9
        assert not result.deadlocked

    def test_inconsistent_graph_rejected(self):
        graph = (
            GraphBuilder()
            .actors({"a": 1, "b": 1})
            .channel("a", "b", 1, 2)
            .channel("b", "a", 1, 1)
            .build()
        )
        with pytest.raises(InconsistentGraphError):
            throughput(graph, None)


class TestMaxThroughput:
    def test_fig1_both_methods(self, fig1):
        assert max_throughput(fig1, "c") == Fraction(1, 4)
        assert max_throughput(fig1, "c", method="mcm") == Fraction(1, 4)

    def test_methods_agree_on_gallery(self, fig6, samplerate_graph):
        for graph in (fig6, samplerate_graph):
            assert max_throughput(graph) == max_throughput(graph, method="mcm")

    def test_source_actor_rate(self, fig1):
        # a fires 3x per iteration of 4 b-steps -> 3/4.
        assert max_throughput(fig1, "a") == Fraction(3, 4)

    def test_unknown_method_rejected(self, fig1):
        with pytest.raises(AnalysisError, match="unknown"):
            max_throughput(fig1, method="magic")

    def test_cycle_limited_graph(self):
        # A feedback cycle with 1 token serialises a and b: period 5.
        graph = (
            GraphBuilder()
            .actors({"a": 2, "b": 3})
            .channel("a", "b")
            .channel("b", "a", initial_tokens=1)
            .build()
        )
        assert max_throughput(graph, "b") == Fraction(1, 5)
        assert max_throughput(graph, "b", method="mcm") == Fraction(1, 5)

    def test_more_tokens_relax_the_cycle(self):
        graph = (
            GraphBuilder()
            .actors({"a": 2, "b": 3})
            .channel("a", "b")
            .channel("b", "a", initial_tokens=2)
            .build()
        )
        # With two tokens the pipeline is limited only by b itself.
        assert max_throughput(graph, "b") == Fraction(1, 3)
        assert max_throughput(graph, "b", method="mcm") == Fraction(1, 3)

    def test_one_call_computes_the_repetition_vector_at_most_once(self, monkeypatch):
        """The size check, the MCM path and the HSDF expansion all take
        the vector from the consistency memo; none recomputes it."""
        from repro.analysis import consistency, repetitions
        from repro.gallery import modem

        computed = []
        original = repetitions.repetition_vector

        def counted(graph):
            computed.append(graph.name)
            return original(graph)

        for module in (repetitions, consistency):
            monkeypatch.setattr(module, "repetition_vector", counted)
        graph = modem()
        assert max_throughput(graph) == Fraction(1, 2)
        assert len(computed) <= 1
        assert max_throughput(graph, method="mcm") == Fraction(1, 2)
        assert len(computed) <= 1  # memoised per graph
