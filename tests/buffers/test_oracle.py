"""Unit tests for the monotone throughput-bounds oracle.

Covers the :class:`~repro.buffers.shared.DominanceFront` level
antichains, the interval/cut queries of
:class:`~repro.buffers.oracle.ThroughputBoundsOracle`, and the
service-level plumbing (``bounds_exact`` answers, ``cuts_below`` and
checkpoint round-trips with the oracle enabled).
"""

import sys
import threading
from fractions import Fraction

import pytest

from repro.buffers.distribution import StorageDistribution
from repro.buffers.evalcache import EvaluationMemo, EvaluationService
from repro.buffers.explorer import explore_design_space, minimal_distribution_for_throughput
from repro.buffers.oracle import ThroughputBoundsOracle
from repro.buffers.shared import DominanceFront
from repro.engine.executor import Executor
from repro.runtime.config import ExplorationConfig


class TestDominanceFront:
    def test_minimal_keeps_the_floor_antichain(self):
        front = DominanceFront("minimal")
        assert front.add((2, 2))
        assert not front.add((3, 3))  # dominated by (2, 2): redundant
        assert front.add((1, 4))  # incomparable: kept
        assert sorted(front) == [(1, 4), (2, 2)]

    def test_maximal_keeps_the_ceiling_antichain(self):
        front = DominanceFront("maximal")
        assert front.add((3, 3))
        assert not front.add((2, 2))  # below (3, 3): redundant
        assert front.add((4, 1))
        assert sorted(front) == [(3, 3), (4, 1)]

    def test_insert_evicts_newly_covered_members(self):
        front = DominanceFront("minimal")
        front.add((2, 3))
        front.add((3, 2))
        assert front.add((2, 2))  # covers both earlier members
        assert list(front) == [(2, 2)]

    def test_duplicate_insert_is_redundant(self):
        front = DominanceFront("maximal")
        assert front.add((2, 2))
        assert not front.add((2, 2))
        assert len(front) == 1

    def test_any_below_and_any_above(self):
        floor = DominanceFront("minimal")
        floor.add((2, 2))
        assert floor.any_below((2, 3))
        assert floor.any_below((2, 2))
        assert not floor.any_below((1, 5))
        ceil = DominanceFront("maximal")
        ceil.add((2, 2))
        assert ceil.any_above((1, 2))
        assert not ceil.any_above((3, 1))

    def test_distant_buckets_fall_back_to_dominance_scans(self):
        front = DominanceFront("minimal")
        front.add((1, 1))
        assert front.any_below((5, 5))  # four totals away
        assert not front.any_below((0, 9))

    def test_limit_evicts_oldest_member(self):
        front = DominanceFront("minimal", limit=2)
        front.add((0, 4))
        front.add((1, 3))
        front.add((2, 2))  # pairwise incomparable: eviction must fire
        assert len(front) == 2
        assert (0, 4) not in set(front)


class TestOracleIntervals:
    def test_exact_record_closes_the_interval(self):
        oracle = ThroughputBoundsOracle()
        oracle.observe((4, 2), Fraction(1, 7))
        assert oracle.interval((4, 2)) == (Fraction(1, 7), Fraction(1, 7))
        assert oracle.records == 1
        assert oracle.levels == 1

    def test_observe_is_idempotent_per_vector(self):
        oracle = ThroughputBoundsOracle()
        oracle.observe((4, 2), Fraction(1, 7))
        oracle.observe((4, 2), Fraction(1, 3))  # ignored
        assert oracle.index[(4, 2)] == Fraction(1, 7)

    def test_neighbour_records_bound_adjacent_slices(self):
        oracle = ThroughputBoundsOracle()
        oracle.observe((4, 2), Fraction(1, 7))
        oracle.observe((6, 3), Fraction(1, 4))
        # (5, 2) sits one token above (4, 2): floor from the shrunk
        # neighbour, ceiling from the level scan over (6, 3).
        low, high = oracle.interval((5, 2))
        assert low == Fraction(1, 7)
        assert high == Fraction(1, 4)

    def test_sandwich_between_equal_levels_is_exact(self):
        oracle = ThroughputBoundsOracle()
        oracle.observe((4, 2), Fraction(1, 7))
        oracle.observe((6, 4), Fraction(1, 7))
        low, high = oracle.interval((5, 3))
        assert low == high == Fraction(1, 7)

    def test_min_total_short_circuits_lower(self):
        oracle = ThroughputBoundsOracle()
        oracle.observe((4, 2), Fraction(1, 7))
        # Equal total but incomparable: nothing recorded can sit below.
        assert oracle.lower((2, 4)) == 0

    def test_max_total_short_circuits_upper(self):
        oracle = ThroughputBoundsOracle()
        oracle.observe((4, 2), Fraction(1, 7))
        assert oracle.upper((2, 4)) is None  # no ceiling known yet
        oracle.ceiling = Fraction(1, 4)
        assert oracle.upper((2, 4)) == Fraction(1, 4)

    def test_deadlock_records_never_enter_the_floor(self):
        oracle = ThroughputBoundsOracle()
        oracle.observe((2, 2), Fraction(0))
        oracle.observe((9, 9), Fraction(1, 4))
        # A zero floor level would be useless; lower() must not report
        # "provably >= 0" via the level scan, while the ceil side still
        # covers everything below the deadlocked record.
        assert oracle.lower((3, 3)) == 0
        assert oracle.ceil_covers(Fraction(0), (1, 2))
        assert not oracle.ceil_covers(Fraction(0), (3, 2))

    def test_floor_reaches_is_the_ceiling_squeeze(self):
        oracle = ThroughputBoundsOracle(ceiling=Fraction(1, 4))
        oracle.observe((7, 3), Fraction(1, 4))
        assert oracle.floor_reaches(Fraction(1, 4), (8, 4))
        assert not oracle.floor_reaches(Fraction(1, 4), (7, 2))


class TestOracleCuts:
    def test_upper_below_strict_and_non_strict(self):
        oracle = ThroughputBoundsOracle()
        oracle.observe((6, 3), Fraction(1, 7))
        query = (5, 3)  # dominated by the record via a grown neighbour
        assert oracle.upper_below(query, Fraction(1, 4))
        assert not oracle.upper_below(query, Fraction(1, 7))  # tie, strict
        assert oracle.upper_below(query, Fraction(1, 7), strict=False)
        assert not oracle.upper_below(query, Fraction(1, 8), strict=False)

    def test_ceiling_alone_cuts(self):
        oracle = ThroughputBoundsOracle(ceiling=Fraction(1, 7))
        assert oracle.upper_below((100, 100), Fraction(1, 4))
        assert not oracle.upper_below((100, 100), Fraction(1, 7))
        assert oracle.upper_below((100, 100), Fraction(1, 7), strict=False)

    def test_level_scan_cut_beyond_neighbours(self):
        oracle = ThroughputBoundsOracle()
        oracle.observe((6, 6), Fraction(1, 7))
        # (4, 4) is two slices below the record: only the level scan
        # (not the grown-neighbour lookup) can prove the cut.
        assert oracle.upper_below((4, 4), Fraction(1, 4))

    def test_eviction_only_loosens_never_misclassifies(self):
        oracle = ThroughputBoundsOracle(limit=1)
        oracle.observe((0, 9), Fraction(1, 7))
        oracle.observe((9, 0), Fraction(1, 7))  # evicts the first witness
        low, high = oracle.interval((9, 9))
        assert low in (Fraction(0), Fraction(1, 7))  # maybe lost, never wrong
        assert high is None

    def test_widen_keeps_members_the_cap_would_evict(self):
        oracle = ThroughputBoundsOracle(limit=1)
        oracle.observe((0, 9), Fraction(1, 7))
        oracle.widen(2)
        oracle.observe((9, 0), Fraction(1, 7))
        # Both witnesses stay: each proves a cut two slices below it.
        assert oracle.upper_below((0, 7), Fraction(1, 4))
        assert oracle.upper_below((7, 0), Fraction(1, 4))


@pytest.fixture()
def graph():
    from repro.gallery import fig1_example

    return fig1_example()


def dist(**capacities):
    return StorageDistribution(capacities)


class TestServiceBounds:
    def config(self, **changes):
        return ExplorationConfig(bounds=True).replaced(**changes)

    def test_closed_interval_answers_without_simulating(self, graph):
        service = EvaluationService(graph, "c", config=self.config())
        inner = dist(alpha=4, beta=2)
        outer = dist(alpha=4, beta=5)
        assert service(inner) == service(outer) == Fraction(1, 7)
        between = dist(alpha=4, beta=3)
        assert service(between) == Fraction(1, 7)
        assert service.stats.bounds_exact == 1
        assert service.stats.evaluations == 2  # the sandwich never ran
        # The oracle answer matches the simulator exactly.
        assert Executor(graph, between, "c").run().throughput == Fraction(1, 7)

    def test_bounds_disabled_by_default(self, graph):
        service = EvaluationService(graph, "c")
        assert not service.bounds_enabled
        service(dist(alpha=4, beta=2))
        service(dist(alpha=4, beta=5))
        service(dist(alpha=4, beta=3))
        assert service.stats.bounds_exact == 0
        assert service.stats.evaluations == 3

    def test_cuts_below_counts_and_spares_the_simulator(self, graph):
        service = EvaluationService(graph, "c", config=self.config())
        service(dist(alpha=6, beta=3))  # 1/5
        candidate = dist(alpha=5, beta=3)  # true 1/6 <= 1/5
        assert service.cuts_below(candidate, Fraction(1, 4))
        assert service.stats.bounds_cut == 1
        assert service.stats.evaluations == 1
        # Non-strict form: ties with the bound are cut too.
        assert service.cuts_below(candidate, Fraction(1, 5), strict=False)
        assert not service.cuts_below(candidate, Fraction(1, 5))

    def test_cuts_below_never_cuts_memoised_vectors(self, graph):
        service = EvaluationService(graph, "c", config=self.config())
        seen = dist(alpha=6, beta=3)
        service(seen)
        # The memo already holds the exact answer; cutting it would
        # hide a free cache hit from the caller.
        assert not service.cuts_below(seen, Fraction(1, 2))

    def test_cuts_below_requires_bounds(self, graph):
        service = EvaluationService(graph, "c")
        service(dist(alpha=6, beta=3))
        assert not service.cuts_below(dist(alpha=5, beta=3), Fraction(1, 2))
        assert service.stats.bounds_cut == 0

    def test_cached_throughput_peeks_without_evaluating(self, graph):
        service = EvaluationService(graph, "c", config=self.config())
        d = dist(alpha=4, beta=2)
        assert service.cached_throughput(d) is None
        assert service.stats.evaluations == 0
        value = service(d)
        assert service.cached_throughput(d) == value
        assert service.stats.cache_hits == 1  # the peek is a real hit

    def test_checkpoint_round_trip_preserves_oracle_and_counters(self, graph):
        service = EvaluationService(graph, "c", config=self.config())
        service(dist(alpha=4, beta=2))
        service(dist(alpha=4, beta=5))
        service(dist(alpha=4, beta=3))  # bounds_exact answer
        state = service.export_state()

        restored = EvaluationService(graph, "c", config=self.config())
        restored.restore_state(state)
        assert restored.stats.bounds_exact == service.stats.bounds_exact == 1
        assert restored.stats.bounds_cut == service.stats.bounds_cut
        # The rebuilt oracle answers the sandwich exactly again, with
        # no fresh simulation on top of the restored tally.
        before = restored.stats.evaluations
        assert restored(dist(alpha=4, beta=4)) == Fraction(1, 7)
        assert restored.stats.evaluations == before
        assert restored.stats.bounds_exact == 2

    def test_restore_keeps_witnesses_the_original_evicted(self, graph):
        # One witness per level: the second 1/7 record evicts the first,
        # the only one proving the cut below.  A resumed run retraces
        # the original's cuts, so the restored oracle must still prove
        # every cut the original proved at any point of its run.
        config = self.config()
        service = EvaluationService(graph, "c", config=config, memo=EvaluationMemo(limit=1))
        service(dist(alpha=4, beta=6))  # 1/7
        candidate = dist(alpha=4, beta=4)  # two slices below: level scan only
        assert service.cuts_below(candidate, Fraction(1, 6))
        service(dist(alpha=5, beta=2))  # 1/7, incomparable: evicts (4, 6)
        assert not service.cuts_below(candidate, Fraction(1, 6))

        restored = EvaluationService(graph, "c", config=config, memo=EvaluationMemo(limit=1))
        restored.restore_state(service.export_state())
        assert restored.cuts_below(candidate, Fraction(1, 6))

    def test_bounds_require_cache(self):
        from repro.exceptions import ExplorationError

        with pytest.raises(ExplorationError):
            ExplorationConfig(cache=False, bounds=True)

    def test_runs_without_bounds_index_nothing(self, graph, monkeypatch, tmp_path):
        def refuse(oracle, vector, throughput):
            raise AssertionError("a run without bounds indexed a record")

        monkeypatch.setattr(ThroughputBoundsOracle, "observe", refuse)
        checkpoint = tmp_path / "run.ckpt.json"
        for strategy in ("dependency", "divide", "exhaustive"):
            config = ExplorationConfig(checkpoint=checkpoint)
            first = explore_design_space(graph, "c", strategy=strategy, config=config)
            resumed = explore_design_space(graph, "c", strategy=strategy, resume=checkpoint)
            assert resumed.front.to_dicts() == first.front.to_dicts()
        memo = EvaluationMemo()
        with EvaluationService(graph, "c", memo=memo) as service:
            assert minimal_distribution_for_throughput(
                graph, Fraction(1, 6), "c", config=ExplorationConfig(evaluator=service)
            ).size == 8
        assert len(memo) and memo.ceiling == Fraction(1, 4)

    def test_bounds_service_on_a_filled_memo_sees_the_oracle_indexed_throughout(self):
        from repro.gallery.registry import gallery_graph

        graph = gallery_graph("modem")
        # A cap of two witnesses per level makes the index depend on
        # the order its records arrive in.
        filled, indexed = EvaluationMemo(limit=2), EvaluationMemo(limit=2)
        with indexed.lock:
            indexed.oracle  # built now: every record is indexed as it lands
        for memo in (filled, indexed):
            with EvaluationService(graph, memo=memo) as service:
                explore_design_space(graph, config=ExplorationConfig(evaluator=service))
        upper = {name: 2 * cap for name, cap in explore_design_space(graph).upper_bounds.items()}
        for memo in (filled, indexed):
            # The first bounds query builds the filled memo's index.
            with EvaluationService(graph, config=self.config(), memo=memo) as service:
                service(dist(**upper))
        assert len(filled) == len(indexed) > 200
        with filled.lock, indexed.lock:
            assert filled.oracle.snapshot() == indexed.oracle.snapshot()

    def test_bounds_services_sharing_a_memo_index_every_record(self):
        from repro.buffers.bounds import lower_bound_distribution
        from repro.gallery.registry import gallery_graph

        graph = gallery_graph("samplerate")
        cap = lower_bound_distribution(graph).size + 2
        memo = EvaluationMemo(limit=4)
        errors = []

        def explore(strategy):
            try:
                with EvaluationService(graph, config=self.config(), memo=memo) as service:
                    explore_design_space(
                        graph,
                        strategy=strategy,
                        max_size=cap,
                        config=ExplorationConfig(evaluator=service),
                    )
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [
            threading.Thread(target=explore, args=(strategy,))
            for strategy in ("divide", "exhaustive", "dependency", "divide")
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        # Whichever service built the index first, no record landed
        # unindexed: the index equals one built from the records now.
        rebuilt = ThroughputBoundsOracle(limit=4, ceiling=memo.ceiling)
        with memo.lock:
            for vector, record in memo.records.items():
                rebuilt.observe(vector, record.throughput)
            assert memo.oracle.snapshot() == rebuilt.snapshot()
