"""Unit tests for the all-scenario design-space exploration."""

from fractions import Fraction

import pytest

from repro.buffers.evalcache import EvaluationMemo
from repro.buffers.explorer import explore_design_space as explore_sdf
from repro.exceptions import BudgetExhausted, CheckpointError, ExplorationError
from repro.gallery import h263_frames, modem_modes
from repro.runtime.budget import Budget
from repro.runtime.checkpoint import CHECKPOINT_FORMAT, load_checkpoint
from repro.runtime.config import ExplorationConfig
from repro.sadf.explorer import (
    SADF_CHECKPOINT_FORMAT,
    SADF_STRATEGY,
    explore_design_space,
    max_worst_case_throughput,
    minimal_sadf_distribution_for_throughput,
)
from repro.sadf.fsm import ScenarioFSM
from repro.sadf.graph import SADFGraph, from_sdf
from repro.sadf.throughput import worst_case_throughput


def two_mode() -> SADFGraph:
    sadf = SADFGraph("toy")
    sadf.add_actor("a")
    sadf.add_actor("b")
    sadf.add_channel("a", "b", name="c")
    sadf.add_scenario("fast", execution_times={"a": 1, "b": 1})
    sadf.add_scenario("slow", execution_times={"a": 2, "b": 3})
    sadf.set_fsm(ScenarioFSM("fast", [("fast", "slow", 1), ("slow", "fast", 2)]))
    return sadf


class TestMultiScenarioSweep:
    def test_h263_frames_front(self):
        result = explore_design_space(h263_frames(), "mc")
        assert result.complete
        assert [(p.size, p.throughput) for p in result.front] == [
            (9, Fraction(1, 13)),
            (10, Fraction(1, 11)),
        ]
        assert result.max_throughput == Fraction(1, 11)
        assert result.stats.strategy == SADF_STRATEGY

    def test_front_points_reexecute_to_their_worst_case(self):
        frames = h263_frames()
        result = explore_design_space(frames, "mc")
        for point in result.front:
            fresh = worst_case_throughput(frames, point.distribution, "mc")
            assert fresh.worst_case == point.throughput

    def test_toy_front(self):
        result = explore_design_space(two_mode(), "b")
        assert result.complete
        assert [(p.size, p.throughput) for p in result.front] == [
            (1, Fraction(1, 5))
        ]

    def test_max_size_restricts(self):
        result = explore_design_space(h263_frames(), "mc", max_size=9)
        assert [(p.size, p.throughput) for p in result.front] == [
            (9, Fraction(1, 13))
        ]

    def test_strategy_rejected(self):
        with pytest.raises(ExplorationError, match="dependency"):
            explore_design_space(two_mode(), "b", strategy="exhaustive")

    def test_shared_evaluator_rejected(self):
        config = ExplorationConfig(evaluator=object())
        with pytest.raises(ExplorationError, match="evaluator"):
            explore_design_space(two_mode(), "b", config=config)

    def test_max_worst_case(self):
        assert max_worst_case_throughput(h263_frames(), "mc") == Fraction(1, 11)

    def test_minimal_distribution(self):
        point = minimal_sadf_distribution_for_throughput(
            h263_frames(), Fraction(1, 13), "mc"
        )
        assert point is not None and point.size == 9
        assert minimal_sadf_distribution_for_throughput(
            h263_frames(), Fraction(1, 2), "mc"
        ) is None
        with pytest.raises(ExplorationError, match="positive"):
            minimal_sadf_distribution_for_throughput(h263_frames(), Fraction(0), "mc")


class TestBudgetAndResume:
    def test_minimal_distribution_raises_when_the_budget_trips(self):
        # The partial front of a tripped budget holds the upper-bound
        # probe (size 400), which is no minimum; the true one is 51.
        constraint = Fraction(32, 161)
        config = ExplorationConfig(budget=Budget(max_probes=3))
        with pytest.raises(BudgetExhausted) as stop:
            minimal_sadf_distribution_for_throughput(modem_modes(), constraint, config=config)
        assert stop.value.reason == "probes"
        point = minimal_sadf_distribution_for_throughput(modem_modes(), constraint)
        assert point is not None and point.size == 51

    def test_budget_yields_partial_with_token(self):
        config = ExplorationConfig(budget=Budget(max_probes=3))
        result = explore_design_space(h263_frames(), "mc", config=config)
        assert not result.complete
        assert result.exhausted == "probes"
        assert result.resume_token is not None
        payload = result.resume_token.payload
        assert payload["format"] == SADF_CHECKPOINT_FORMAT
        assert set(payload["scenarios"]) == {"i", "p"}

    def test_pending_lists_the_interrupted_distribution(self):
        # The budget trips inside the worst-case evaluation of the seed,
        # which stays pending (as in the SDF sweep's checkpoints).  The
        # maximal worst case spends all six probes (three sizes, two
        # scenarios each), so the seed's first probe trips the budget.
        config = ExplorationConfig(budget=Budget(max_probes=6))
        result = explore_design_space(h263_frames(), "mc", config=config)
        assert result.resume_token.payload["pending"] == [dict(result.lower_bounds)]
        assert all(point.distribution != result.lower_bounds for point in result.front)

    def test_resume_reaches_full_front(self):
        config = ExplorationConfig(budget=Budget(max_probes=3))
        partial = explore_design_space(h263_frames(), "mc", config=config)
        resumed = explore_design_space(
            h263_frames(), "mc", resume=partial.resume_token
        )
        full = explore_design_space(h263_frames(), "mc")
        assert resumed.complete
        assert resumed.front.to_dicts() == full.front.to_dicts()

    def test_checkpoint_file_roundtrip(self, tmp_path):
        path = tmp_path / "sadf.ckpt.json"
        config = ExplorationConfig(budget=Budget(max_probes=3), checkpoint=path)
        partial = explore_design_space(h263_frames(), "mc", config=config)
        assert not partial.complete and path.exists()
        resumed = explore_design_space(h263_frames(), "mc", resume=str(path))
        full = explore_design_space(h263_frames(), "mc")
        assert resumed.front.to_dicts() == full.front.to_dicts()

    def test_sdf_checkpoint_rejected(self, tmp_path, fig1):
        path = tmp_path / "sdf.ckpt.json"
        explore_sdf(fig1, "c", config=ExplorationConfig(checkpoint=path))
        with pytest.raises(CheckpointError, match=SADF_CHECKPOINT_FORMAT):
            explore_design_space(h263_frames(), "mc", resume=str(path))

    def test_sadf_checkpoint_rejected_by_the_sdf_explorer(self, tmp_path, fig1):
        path = tmp_path / "sadf.ckpt.json"
        explore_design_space(h263_frames(), "mc", config=ExplorationConfig(checkpoint=path))
        with pytest.raises(CheckpointError, match=f"resumes a {CHECKPOINT_FORMAT} checkpoint"):
            explore_sdf(fig1, "c", resume=str(path))

    def test_other_observed_actor_rejected(self):
        partial = explore_design_space(
            h263_frames(), "mc", config=ExplorationConfig(budget=Budget(max_probes=3))
        )
        with pytest.raises(CheckpointError, match="observed 'mc', not 'idct'"):
            explore_design_space(h263_frames(), "idct", resume=partial.resume_token)

    def test_load_checkpoint_reads_the_sadf_format(self, tmp_path):
        path = tmp_path / "sadf.ckpt.json"
        config = ExplorationConfig(budget=Budget(max_probes=3), checkpoint=path)
        explore_design_space(h263_frames(), "mc", config=config)
        token = load_checkpoint(path)
        assert (token.graph_name, token.strategy, token.complete) == (
            "h263-frames", SADF_STRATEGY, False
        )
        resumed = explore_design_space(h263_frames(), "mc", resume=token)
        full = explore_design_space(h263_frames(), "mc")
        assert resumed.front.to_dicts() == full.front.to_dicts()

    def test_token_counts_the_records_of_every_scenario(self):
        partial = explore_design_space(
            modem_modes(), config=ExplorationConfig(budget=Budget(max_probes=40))
        )
        token = partial.resume_token
        banked = sum(len(state["memo"]) for state in token.payload["scenarios"].values())
        assert token.probes_recorded == banked == 40
        assert "40 probe(s) banked" in repr(token)

    def test_resume_restores_once_and_saves_like_an_sdf_run(self, tmp_path):
        partial = explore_design_space(
            h263_frames(), "mc", config=ExplorationConfig(budget=Budget(max_probes=3))
        )
        events = []
        path = tmp_path / "sadf.ckpt.json"
        config = ExplorationConfig(checkpoint=path, on_event=events.append)
        explore_design_space(h263_frames(), "mc", config=config, resume=partial.resume_token)
        restored = [event.data for event in events if event.name == "checkpoint_restored"]
        saved = [event.data for event in events if event.name == "checkpoint_saved"]
        assert restored == [
            {"graph": "h263-frames", "probes_banked": partial.resume_token.probes_recorded}
        ]
        assert saved == [
            {
                "path": str(path),
                "complete": True,
                "probes_banked": load_checkpoint(path).probes_recorded,
            }
        ]

    def test_wrong_graph_rejected(self):
        partial = explore_design_space(
            h263_frames(), "mc",
            config=ExplorationConfig(budget=Budget(max_probes=3)),
        )
        with pytest.raises(CheckpointError, match="was written for graph"):
            explore_design_space(two_mode(), "b", resume=partial.resume_token)


class TestSharedMemos:
    """Per-scenario memos shared between runs (the service plane's
    live banks)."""

    def test_memos_record_every_scenario(self):
        memos = {name: EvaluationMemo() for name in h263_frames().scenario_names}
        explore_design_space(h263_frames(), "mc", memos=memos)
        assert set(memos) == {"i", "p"}
        assert all(len(memo) for memo in memos.values())

    def test_shared_memos_warm_start(self):
        memos = {name: EvaluationMemo() for name in h263_frames().scenario_names}
        cold = explore_design_space(h263_frames(), "mc", memos=memos)
        warm = explore_design_space(h263_frames(), "mc", memos=memos)
        assert warm.front.to_dicts() == cold.front.to_dicts()
        assert warm.stats.evaluations == 0
        assert warm.stats.cache_hits > 0

    def test_partial_run_leaves_its_probes_in_the_memos(self):
        memos = {name: EvaluationMemo() for name in h263_frames().scenario_names}
        partial = explore_design_space(
            h263_frames(), "mc",
            config=ExplorationConfig(budget=Budget(max_probes=3)),
            memos=memos,
        )
        assert not partial.complete
        # Every probe paid is kept.
        assert sum(len(memo) for memo in memos.values()) >= partial.stats.evaluations > 0
        finished = explore_design_space(h263_frames(), "mc", memos=memos)
        full = explore_design_space(h263_frames(), "mc")
        assert finished.front.to_dicts() == full.front.to_dicts()
        assert finished.stats.evaluations == full.stats.evaluations - partial.stats.evaluations

    def test_degenerate_with_memos_still_bit_identical(self, fig1):
        sadf = from_sdf(fig1)
        memos = {"default": EvaluationMemo()}
        plain = explore_sdf(fig1, "c")
        result = explore_design_space(sadf, "c", memos=memos)
        assert result.front.to_dicts() == plain.front.to_dicts()
        assert len(memos["default"])
        warm = explore_design_space(sadf, "c", memos=memos)
        assert warm.front.to_dicts() == plain.front.to_dicts()
        assert warm.stats.evaluations == 0
