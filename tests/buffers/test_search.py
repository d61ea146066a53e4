"""Unit tests for repro.buffers.search (the paper's Sec. 9 strategies)."""

from fractions import Fraction

from repro.buffers.bounds import lower_bound_distribution, upper_bound_distribution
from repro.buffers.distribution import StorageDistribution
from repro.buffers.evalcache import EvaluationService
from repro.buffers.search import SizeSearch, divide_and_conquer, exhaustive_sweep


def make_search(graph, observe="c"):
    evaluator = EvaluationService(graph, observe)
    lower = lower_bound_distribution(graph)
    upper = upper_bound_distribution(graph)
    return SizeSearch(graph, observe, lower, upper, evaluator), evaluator, lower, upper


class TestMaxThroughputForSize:
    def test_minimal_size(self, fig1):
        search, *_ = make_search(fig1)
        probe = search.max_throughput_for_size(6)
        assert probe.throughput == Fraction(1, 7)
        assert probe.witnesses[0] == {"alpha": 4, "beta": 2}
        assert probe.exact

    def test_collects_tied_witnesses(self, fig1):
        search, *_ = make_search(fig1)
        probe = search.max_throughput_for_size(8)
        assert probe.throughput == Fraction(1, 6)
        assert {tuple(sorted(w.items())) for w in probe.witnesses} == {
            (("alpha", 5), ("beta", 3)),
            (("alpha", 6), ("beta", 2)),
        }

    def test_stop_at_short_circuits(self, fig1):
        search, evaluator, *_ = make_search(fig1)
        probe = search.max_throughput_for_size(12, stop_at=Fraction(1, 4))
        assert probe.throughput == Fraction(1, 4)
        # The scan ended before enumerating all size-12 distributions.
        assert evaluator.stats.evaluations < 5

    def test_deadlocking_size(self, fig1):
        search, *_ = make_search(fig1)
        # Size 6 exists but shrink the box lower bound artificially:
        probe = search.max_throughput_for_size(7)
        assert probe.throughput == Fraction(1, 7)


class TestThresholdScan:
    def test_finds_distribution(self, fig1):
        search, *_ = make_search(fig1)
        found = search.threshold_scan(8, Fraction(1, 6))
        assert found is not None
        assert found.size == 8

    def test_returns_none_when_unreachable(self, fig1):
        search, *_ = make_search(fig1)
        assert search.threshold_scan(6, Fraction(1, 6)) is None


class TestQuantizedSearch:
    def test_reaches_exact_levels_on_grid(self, fig1):
        search, *_ = make_search(fig1)
        probe = search.quantized_max_for_size(8, Fraction(0), Fraction(1, 4), Fraction(1, 24))
        # 1/6 = 4/24 lies on the grid, so the quantised search finds it.
        assert probe.throughput == Fraction(1, 6)
        assert not probe.exact

    def test_within_one_quantum(self, fig1):
        search, *_ = make_search(fig1)
        quantum = Fraction(1, 10)
        probe = search.quantized_max_for_size(8, Fraction(0), Fraction(1, 4), quantum)
        # Exact max for size 8 is 1/6; the result is achievable and at
        # most one quantum below the true maximum.
        assert Fraction(0) < probe.throughput <= Fraction(1, 6)
        assert Fraction(1, 6) - probe.throughput < quantum


class TestSweeps:
    def test_exhaustive_covers_until_max(self, fig1):
        lower = lower_bound_distribution(fig1)
        upper = upper_bound_distribution(fig1)
        probes, stats = exhaustive_sweep(
            fig1, "c", lower, upper, Fraction(1, 4), EvaluationService(fig1, "c")
        )
        assert sorted(probes) == list(range(6, 11))
        assert probes[10].throughput == Fraction(1, 4)
        assert stats.evaluations > 0

    def test_divide_and_conquer_agrees_with_exhaustive(self, fig1):
        lower = lower_bound_distribution(fig1)
        upper = upper_bound_distribution(fig1)
        exhaustive, _ = exhaustive_sweep(
            fig1, "c", lower, upper, Fraction(1, 4), EvaluationService(fig1, "c")
        )
        divided, _ = divide_and_conquer(
            fig1, "c", lower, upper, Fraction(1, 4), EvaluationService(fig1, "c")
        )
        for size, probe in divided.items():
            if size in exhaustive:
                assert probe.throughput == exhaustive[size].throughput

    def test_divide_and_conquer_probes_fewer_sizes_on_flat_regions(self, fig6):
        from repro.analysis.throughput import max_throughput

        lower = lower_bound_distribution(fig6)
        upper = upper_bound_distribution(fig6)
        target = max_throughput(fig6, "d")
        divided, stats = divide_and_conquer(
            fig6, "d", lower, upper, target, EvaluationService(fig6, "d")
        )
        assert stats.sizes_probed <= upper.size - lower.size + 1


class TestAscendingWalk:
    """The bounds-oracle walk of ``divide_and_conquer`` (PR 5)."""

    @staticmethod
    def bounded_service(graph, observe="c"):
        from repro.runtime.config import ExplorationConfig

        return EvaluationService(graph, observe, config=ExplorationConfig(bounds=True))

    def test_promote_rotates_over_channels_with_headroom(self, fig1):
        search, _, lower, upper = make_search(fig1)
        base = StorageDistribution(lower)
        first = search._promote(base, 0)
        second = search._promote(base, 1)
        assert first != second  # rotation seeds different cones
        assert first.size == second.size == base.size + 1
        assert search._promote(StorageDistribution(upper), 0) is None

    def test_promote_skips_saturated_channels(self, fig1):
        search, _, lower, upper = make_search(fig1)
        pinned = dict(upper)
        pinned["alpha"] = upper["alpha"]  # alpha saturated
        pinned["beta"] = lower["beta"]
        grown = search._promote(StorageDistribution(pinned), 0)
        assert grown is not None
        assert grown["alpha"] == upper["alpha"]
        assert grown["beta"] == lower["beta"] + 1

    def test_ascending_probe_without_oracle_counts_one_size(self, fig1):
        search, evaluator, *_ = make_search(fig1)
        probe = search.ascending_probe(8, Fraction(1, 7))
        assert probe == search.max_throughput_for_size(8)
        assert evaluator.stats.sizes_probed == 2  # one per scan above

    def test_ascending_probe_value_matches_full_scan(self, fig1):
        service = self.bounded_service(fig1)
        lower = lower_bound_distribution(fig1)
        upper = upper_bound_distribution(fig1)
        walk = SizeSearch(fig1, "c", lower, upper, service)
        full, _, _, _ = make_search(fig1)
        prev = walk.max_throughput_for_size(lower.size).throughput
        for size in range(lower.size + 1, upper.size + 1):
            probe = walk.ascending_probe(size, prev)
            reference = full.max_throughput_for_size(size)
            assert probe.throughput == reference.throughput
            assert probe.exact
            if probe.throughput > prev:
                # The only probes that can reach the front carry the
                # complete tie set, identical to the full scan's.
                assert probe.witnesses == reference.witnesses
            prev = probe.throughput

    def test_ascending_probe_without_oracle_falls_back(self, fig1):
        search, _, lower, _ = make_search(fig1)
        probe = search.ascending_probe(lower.size + 1, Fraction(0))
        reference = search.max_throughput_for_size(lower.size + 1)
        assert probe.throughput == reference.throughput
        assert probe.witnesses == reference.witnesses

    def test_divide_with_bounds_front_is_bit_identical(self, fig1, fig6):
        from repro.buffers.explorer import explore_design_space
        from repro.runtime.config import ExplorationConfig

        for graph, observe in ((fig1, "c"), (fig6, "d")):
            off = explore_design_space(
                graph, observe, strategy="divide", config=ExplorationConfig()
            )
            on = explore_design_space(
                graph, observe, strategy="divide", config=ExplorationConfig(bounds=True)
            )
            assert on.front == off.front  # sizes, throughputs AND witnesses
            assert on.max_throughput == off.max_throughput
            assert on.stats.evaluations <= off.stats.evaluations
