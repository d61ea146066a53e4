"""Cross-cutting edge-case tests collected from review of the modules."""

from fractions import Fraction

import pytest

from repro.codegen.pygen import generate_python, load_generated
from repro.csdf.executor import CSDFExecutor
from repro.csdf.graph import CSDFGraph
from repro.graph.builder import GraphBuilder
from repro.io.sdfxml import read_xml_string
from repro.io.vcd import schedule_to_vcd


class TestXmlEdgeCases:
    def test_initial_tokens_attribute_roundtrip(self):
        text = """
        <sdf3 type="sdf">
          <applicationGraph name="g">
            <sdf name="g" type="g">
              <actor name="a" type="a"><port name="o" type="out" rate="1"/></actor>
              <actor name="b" type="b"><port name="i" type="in" rate="1"/></actor>
              <channel name="c" srcActor="a" srcPort="o" dstActor="b" dstPort="i"
                       initialTokens="7"/>
            </sdf>
          </applicationGraph>
        </sdf3>
        """
        graph = read_xml_string(text)
        assert graph.channel("c").initial_tokens == 7

    def test_first_processor_execution_time_wins(self):
        text = """
        <sdf3 type="sdf">
          <applicationGraph name="g">
            <sdf name="g" type="g">
              <actor name="a" type="a"/>
            </sdf>
            <sdfProperties>
              <actorProperties actor="a">
                <processor type="arm" default="true"><executionTime time="5"/></processor>
              </actorProperties>
            </sdfProperties>
          </applicationGraph>
        </sdf3>
        """
        assert read_xml_string(text).actor("a").execution_time == 5


class TestGeneratedExplorerEdgeCases:
    def test_explore_respects_max_size(self, fig1):
        module = load_generated(generate_python(fig1, "c"), "gen_edge")
        points = module.explore(max_size=8)
        assert [size for size, _thr, _w in points] == [6, 8]

    def test_generated_deadlock_detection(self, fig1):
        module = load_generated(generate_python(fig1, "c"), "gen_edge2")
        assert module.exec_sdf_graph((3, 2)) == Fraction(0)


class TestCsdfScheduleTooling:
    def test_csdf_schedule_exports_to_vcd(self):
        graph = CSDFGraph("two")
        graph.add_actor("a", (1, 2))
        graph.add_actor("b", (1,))
        graph.add_channel("a", "b", (1, 0), (1,), name="c")
        result = CSDFExecutor(graph, {"c": 1}, "b", record_schedule=True).run()
        vcd = schedule_to_vcd(result.schedule)
        assert "busy_a" in vcd and "busy_b" in vcd
        assert vcd.count("$var wire") == 2

    def test_csdf_zero_execution_phase(self):
        graph = CSDFGraph("zp")
        graph.add_actor("a", (0, 2))
        graph.add_actor("b", (1,))
        graph.add_channel("a", "b", (1, 1), (1,), name="c")
        result = CSDFExecutor(graph, {"c": 2}, "b").run()
        # One phase cycle (0 + 2 steps) delivers 2 tokens; capacity 2
        # lets the zero-time phase overlap, giving 2 firings of b per
        # 3 steps in steady state.
        assert result.throughput == Fraction(2, 3)


class TestQuantizedSearchEdges:
    def test_grid_collapse(self, fig1):
        """When low and high quantise to the same level, no probe runs."""
        from repro.buffers.bounds import lower_bound_distribution, upper_bound_distribution
        from repro.buffers.evalcache import EvaluationService
        from repro.buffers.search import SizeSearch

        evaluator = EvaluationService(fig1, "c")
        search = SizeSearch(
            fig1,
            "c",
            lower_bound_distribution(fig1),
            upper_bound_distribution(fig1),
            evaluator,
        )
        probe = search.quantized_max_for_size(6, Fraction(1, 7), Fraction(1, 4), Fraction(1))
        assert probe.throughput == Fraction(1, 7)
        assert evaluator.stats.threshold_scans == 0


class TestBuilderVsDirectEquivalence:
    def test_builder_and_direct_graphs_behave_identically(self):
        from repro.engine.executor import execute
        from repro.graph.graph import SDFGraph

        built = (
            GraphBuilder("g")
            .actors({"a": 1, "b": 2})
            .channel("a", "b", 2, 3, name="c")
            .build()
        )
        direct = SDFGraph("g")
        direct.add_actor("a", 1)
        direct.add_actor("b", 2)
        direct.add_channel("a", "b", 2, 3, name="c")
        assert (
            execute(built, {"c": 5}, "b").throughput
            == execute(direct, {"c": 5}, "b").throughput
        )
