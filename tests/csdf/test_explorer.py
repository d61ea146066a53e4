"""Unit tests for the CSDF design-space exploration."""

import os
import random
import subprocess
import sys

from fractions import Fraction
from pathlib import Path

import pytest

from repro.buffers.explorer import explore_design_space, minimal_distribution_for_throughput
from repro.csdf.executor import CSDFExecutor
from repro.csdf.explorer import csdf_max_throughput, explore_csdf_design_space
from repro.csdf.graph import CSDFGraph, from_sdf
from repro.exceptions import ExplorationError
from repro.gallery import fig1_example, modem
from repro.gallery.random_graphs import random_consistent_graph
from repro.runtime import Budget, ExplorationConfig
from tests.csdf.test_sdf_lift import _phased_graph


def downsampler():
    graph = CSDFGraph("down")
    graph.add_actor("src", (1,))
    graph.add_actor("ds", (2, 1))
    graph.add_actor("snk", (1,))
    graph.add_channel("src", "ds", (1,), (1, 1), name="a")
    graph.add_channel("ds", "snk", (0, 1), (1,), name="b")
    return graph


class TestCSDFMaxThroughput:
    def test_downsampler(self):
        # ds needs 3 steps per output token; snk can keep up.
        assert csdf_max_throughput(downsampler(), "snk") == Fraction(1, 3)

    def test_matches_sdf_on_lifted_graphs(self, fig1):
        from repro.analysis.throughput import max_throughput

        assert csdf_max_throughput(from_sdf(fig1), "c") == max_throughput(fig1, "c")


class TestCSDFDesignSpace:
    def test_downsampler_front(self):
        result = explore_csdf_design_space(downsampler(), "snk")
        assert len(result.front) >= 1
        assert result.front.max_throughput_point.throughput == Fraction(1, 3)
        # Witnesses re-execute to their claimed throughput.
        for point in result.front:
            measured = CSDFExecutor(downsampler(), point.distribution, "snk").run().throughput
            assert measured == point.throughput

    def test_front_monotone(self):
        result = explore_csdf_design_space(downsampler(), "snk")
        sizes = result.front.sizes()
        assert sizes == sorted(set(sizes))
        throughputs = result.front.throughputs()
        assert throughputs == sorted(set(throughputs))

    def test_matches_sdf_front_on_lifted_fig1(self, fig1):
        sdf = explore_design_space(fig1, "c")
        csdf = explore_csdf_design_space(from_sdf(fig1), "c")
        assert [(p.size, p.throughput) for p in csdf.front] == [
            (p.size, p.throughput) for p in sdf.front
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_sdf_front_on_random_graphs(self, seed):
        graph = random_consistent_graph(
            random.Random(seed), max_actors=4, max_repetition=3, max_rate_factor=1
        )
        sdf = explore_design_space(graph)
        csdf = explore_csdf_design_space(from_sdf(graph))
        assert [(p.size, p.throughput) for p in csdf.front] == [
            (p.size, p.throughput) for p in sdf.front
        ]

    def test_max_size_restriction(self):
        full = explore_csdf_design_space(downsampler(), "snk")
        capped_size = full.front.min_positive.size
        capped = explore_csdf_design_space(downsampler(), "snk", max_size=capped_size)
        assert all(point.size <= capped_size for point in capped.front)


class TestCSDFMinimalDistribution:
    def test_constraint_query(self):
        found = minimal_distribution_for_throughput(downsampler(), Fraction(1, 3), "snk")
        assert found is not None
        distribution, value = found.distribution, found.throughput
        assert value >= Fraction(1, 3)
        measured = CSDFExecutor(downsampler(), distribution, "snk").run().throughput
        assert measured == value

    def test_unachievable_returns_none(self):
        assert minimal_distribution_for_throughput(downsampler(), Fraction(1, 2), "snk") is None

    def test_nonpositive_rejected(self):
        with pytest.raises(ExplorationError):
            minimal_distribution_for_throughput(downsampler(), Fraction(0), "snk")

    def test_query_stops_before_the_full_exploration(self, monkeypatch):
        runs = []
        original = CSDFExecutor.run

        def counted(self):
            runs.append(self)
            return original(self)

        monkeypatch.setattr(CSDFExecutor, "run", counted)
        lifted = from_sdf(modem())
        full = explore_design_space(lifted)
        explored = len(runs)
        runs.clear()
        point = minimal_distribution_for_throughput(lifted, full.front[0].throughput)
        assert point.size == full.front[0].size
        assert 0 < len(runs) < explored


#: CSDF graphs the shared pipeline must treat like SDF graphs.
GRAPHS = {
    "downsampler": downsampler,
    "phased": _phased_graph,
    "fig1-lift": lambda: from_sdf(fig1_example()),
}


def _front(result):
    """The front with its witnesses, for exact comparison."""
    return result.front.to_dicts()


@pytest.mark.parametrize("name", GRAPHS)
class TestSharedPipeline:
    def test_strategies_return_the_dependency_front(self, name):
        graph = GRAPHS[name]()
        dependency = explore_design_space(graph)
        assert dependency.stats.backend == "reference"
        for strategy in ("divide", "exhaustive"):
            other = explore_design_space(graph, strategy=strategy)
            assert other.front == dependency.front
            assert other.max_throughput == dependency.max_throughput

    def test_workers_return_the_identical_front(self, name):
        serial = explore_design_space(GRAPHS[name]())
        pooled = explore_design_space(GRAPHS[name](), config=ExplorationConfig(workers=2))
        assert _front(pooled) == _front(serial)

    def test_budget_resumes_to_the_identical_front(self, name, tmp_path):
        full = explore_design_space(GRAPHS[name]())
        checkpoint = tmp_path / "csdf.json"
        partial = explore_design_space(
            GRAPHS[name](),
            config=ExplorationConfig(budget=Budget(max_probes=3), checkpoint=checkpoint),
        )
        assert not partial.complete and partial.exhausted == "probes"
        for resume in (partial.resume_token, str(checkpoint)):
            resumed = explore_design_space(GRAPHS[name](), resume=resume)
            assert resumed.complete
            assert _front(resumed) == _front(full)


def test_sdf_exploration_leaves_the_csdf_package_unloaded():
    """The SDF/CSDF switch imports :mod:`repro.csdf` only for a CSDF
    graph (checked in a fresh interpreter: this one loaded it above)."""
    code = (
        "import sys\n"
        "import repro, repro.buffers.evalcache, repro.engine.backends\n"
        "from repro.buffers.explorer import explore_design_space\n"
        "from repro.gallery import fig1_example\n"
        "explore_design_space(fig1_example(), 'c')\n"
        "print('repro.csdf' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.strip() == "False"
