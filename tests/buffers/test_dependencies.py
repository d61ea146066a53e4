"""Unit tests for repro.buffers.dependencies."""

from fractions import Fraction

import pytest

from repro.buffers.bounds import lower_bound_distribution
from repro.buffers.dependencies import dependency_sweep, find_minimal_distribution
from repro.buffers.distribution import StorageDistribution
from repro.buffers.evalcache import EvaluationService
from repro.exceptions import ExplorationError
from repro.runtime.config import ExplorationConfig


class LoggedService(EvaluationService):
    """An evaluation service that logs every blocking query it answers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.asked = []

    def evaluate_blocking(self, distribution, reached=None):
        self.asked.append(distribution)
        return super().evaluate_blocking(distribution, reached)


class TestDependencySweep:
    def test_fig1_full_sweep(self, fig1):
        with EvaluationService(fig1, "c") as service:
            result = dependency_sweep(
                fig1, "c", stop_throughput=Fraction(1, 4),
                config=ExplorationConfig(evaluator=service),
            )
        values = set(result.evaluations.values())
        assert Fraction(1, 7) in values
        assert Fraction(1, 4) in values
        assert service.stats.evaluations == len(result.evaluations)

    def test_seed_is_lower_bound(self, fig1):
        result = dependency_sweep(fig1, "c", stop_throughput=Fraction(1, 4))
        assert lower_bound_distribution(fig1) in result.evaluations

    def test_requires_a_stop_criterion(self, fig1):
        with pytest.raises(ExplorationError, match="stop_throughput"):
            dependency_sweep(fig1, "c")

    def test_max_size_caps_exploration(self, fig1):
        result = dependency_sweep(fig1, "c", max_size=8)
        assert all(d.size <= 8 for d in result.evaluations)
        assert max(result.evaluations.values()) == Fraction(1, 6)

    def test_custom_start(self, fig1):
        start = StorageDistribution({"alpha": 6, "beta": 2})
        result = dependency_sweep(
            fig1, "c", stop_throughput=Fraction(1, 4), start=start
        )
        assert start in result.evaluations
        assert all(d.dominates(start) for d in result.evaluations)

    def test_ceiling_prunes_lattice(self, fig1):
        # Everything explored should stay at or below the first size
        # reaching the target.
        result = dependency_sweep(fig1, "c", stop_throughput=Fraction(1, 4))
        first = result.first_reaching_target
        assert first is not None
        assert all(d.size <= first.size for d in result.evaluations)

    def test_duplicates_are_skipped_not_reevaluated(self, fig1):
        with LoggedService(fig1, "c") as service:
            result = dependency_sweep(
                fig1, "c", stop_throughput=Fraction(1, 4),
                config=ExplorationConfig(evaluator=service),
            )
        # No distribution is asked for twice, so none is a cache hit.
        assert len(service.asked) == len(set(service.asked)) == len(result.evaluations)
        assert service.stats.cache_hits == 0


class TestFindMinimalDistribution:
    def test_paper_constraints(self, fig1):
        cases = {
            Fraction(1, 7): 6,
            Fraction(1, 6): 8,
            Fraction(1, 5): 9,
            Fraction(1, 4): 10,
        }
        for constraint, size in cases.items():
            found = find_minimal_distribution(fig1, constraint, "c")
            assert found is not None
            distribution, value = found
            assert distribution.size == size
            assert value >= constraint

    def test_intermediate_constraint_rounds_up(self, fig1):
        # 0.15 is between 1/7 and 1/6: the witness must reach 1/6.
        found = find_minimal_distribution(fig1, Fraction(3, 20), "c")
        distribution, value = found
        assert distribution.size == 8
        assert value == Fraction(1, 6)

    def test_unachievable_constraint(self, fig1):
        assert find_minimal_distribution(fig1, Fraction(1, 3), "c") is None

    def test_unachievable_within_max_size(self, fig1):
        assert find_minimal_distribution(fig1, Fraction(1, 4), "c", max_size=9) is None

    def test_witness_verifies(self, fig1):
        from repro.engine.executor import Executor

        distribution, value = find_minimal_distribution(fig1, Fraction(1, 6), "c")
        assert Executor(fig1, distribution, "c").run().throughput == value
