"""Checkpoint / resume: the round-trip identity guarantee.

The pinned property: interrupt a run anywhere, save a checkpoint,
resume from it — the final Pareto front (witnesses included) is
identical to an uninterrupted run.  Verified on the paper's running
example (Fig. 1) and the three BML99 application graphs (modem, sample
rate converter, satellite receiver).
"""

import json

import pytest

from repro.buffers.explorer import explore_design_space
from repro.exceptions import CheckpointError
from repro.gallery.registry import gallery_graph
from repro.runtime import Budget, ExplorationConfig, ResumeToken, load_checkpoint, save_checkpoint
from repro.runtime.checkpoint import CHECKPOINT_FORMAT, CHECKPOINT_VERSION, coerce_resume


def fronts_identical(a, b):
    """Equality including witnesses (ParetoFront.__eq__ ignores them)."""
    if len(a) != len(b):
        return False
    for left, right in zip(a, b):
        if (left.size, left.throughput, left.witnesses) != (
            right.size,
            right.throughput,
            right.witnesses,
        ):
            return False
    return True


def run_interrupted_then_resume(graph, observe, tmp_path, *, max_probes, strategy="dependency"):
    """Budget-interrupt a run, persist the checkpoint, resume from disk."""
    partial = explore_design_space(
        graph,
        observe,
        strategy=strategy,
        config=ExplorationConfig(
            budget=Budget(max_probes=max_probes),
            checkpoint=tmp_path / "run.ckpt.json",
        ),
    )
    assert not partial.complete
    resumed = explore_design_space(
        graph, observe, strategy=strategy, resume=str(tmp_path / "run.ckpt.json")
    )
    assert resumed.complete
    return partial, resumed


class TestRoundTripIdentity:
    def test_fig1_example_round_trip(self, tmp_path):
        graph = gallery_graph("example")
        full = explore_design_space(graph, "c")
        _, resumed = run_interrupted_then_resume(graph, "c", tmp_path, max_probes=4)
        assert fronts_identical(resumed.front, full.front)
        assert resumed.max_throughput == full.max_throughput

    @pytest.mark.parametrize("max_probes", [1, 3, 5, 8])
    def test_fig1_example_any_interruption_point(self, tmp_path, max_probes):
        graph = gallery_graph("example")
        full = explore_design_space(graph, "c")
        _, resumed = run_interrupted_then_resume(
            graph, "c", tmp_path, max_probes=max_probes
        )
        assert fronts_identical(resumed.front, full.front)

    def test_fig1_example_divide_strategy_round_trip(self, tmp_path):
        graph = gallery_graph("example")
        full = explore_design_space(graph, "c", strategy="divide")
        _, resumed = run_interrupted_then_resume(
            graph, "c", tmp_path, max_probes=5, strategy="divide"
        )
        assert fronts_identical(resumed.front, full.front)

    def test_modem_round_trip(self, tmp_path):
        graph = gallery_graph("modem")
        full = explore_design_space(graph)
        _, resumed = run_interrupted_then_resume(
            graph, None, tmp_path, max_probes=full.stats.evaluations // 2
        )
        assert fronts_identical(resumed.front, full.front)
        assert resumed.max_throughput == full.max_throughput

    @pytest.mark.slow
    def test_sample_rate_converter_round_trip(self, tmp_path):
        graph = gallery_graph("samplerate")
        full = explore_design_space(graph)
        _, resumed = run_interrupted_then_resume(
            graph, None, tmp_path, max_probes=full.stats.evaluations // 2
        )
        assert fronts_identical(resumed.front, full.front)
        assert resumed.max_throughput == full.max_throughput

    @pytest.mark.slow
    def test_satellite_receiver_round_trip(self, tmp_path):
        graph = gallery_graph("satellite")
        full = explore_design_space(graph)
        _, resumed = run_interrupted_then_resume(
            graph, None, tmp_path, max_probes=full.stats.evaluations // 2
        )
        assert fronts_identical(resumed.front, full.front)
        assert resumed.max_throughput == full.max_throughput

    def test_resume_replays_prefix_as_cache_hits(self, tmp_path):
        graph = gallery_graph("example")
        partial, resumed = run_interrupted_then_resume(graph, "c", tmp_path, max_probes=4)
        # The resumed leg re-asks the interrupted prefix; all of it must
        # come from the restored memo, not re-execution.
        assert resumed.stats.cache_hits >= partial.stats.evaluations

    def test_in_memory_token_equivalent_to_file(self, tmp_path):
        graph = gallery_graph("example")
        partial = explore_design_space(
            graph, "c", config=ExplorationConfig(budget=Budget(max_probes=4))
        )
        via_token = explore_design_space(graph, "c", resume=partial.resume_token)
        path = save_checkpoint(partial.resume_token, tmp_path / "ck.json")
        via_file = explore_design_space(graph, "c", resume=path)
        assert fronts_identical(via_token.front, via_file.front)


class TestCheckpointFiles:
    def make_partial(self, tmp_path):
        graph = gallery_graph("example")
        return explore_design_space(
            graph,
            "c",
            config=ExplorationConfig(
                budget=Budget(max_probes=4), checkpoint=tmp_path / "ck.json"
            ),
        )

    def test_checkpoint_written_and_loadable(self, tmp_path):
        result = self.make_partial(tmp_path)
        token = load_checkpoint(tmp_path / "ck.json")
        assert token.graph_name == "example"
        assert token.strategy == "dependency"
        assert not token.complete
        assert token.exhausted == "probes"
        assert token.probes_recorded == result.stats.evaluations

    def test_payload_schema(self, tmp_path):
        self.make_partial(tmp_path)
        payload = json.loads((tmp_path / "ck.json").read_text())
        assert payload["format"] == CHECKPOINT_FORMAT
        assert payload["version"] == CHECKPOINT_VERSION
        for key in ("graph", "observe", "strategy", "channels", "memo", "frontier", "stats"):
            assert key in payload
        entry = payload["memo"][0]
        assert set(entry) == {"caps", "throughput", "states", "blocked", "deficits"}

    def test_token_frontier_and_pending_views(self, tmp_path):
        result = self.make_partial(tmp_path)
        token = result.resume_token
        assert fronts_identical(token.frontier, result.front)
        # The sweep was cut mid-frontier: queued work is observable.
        assert all(hasattr(d, "size") for d in token.pending)

    def test_complete_run_also_checkpointable(self, tmp_path):
        graph = gallery_graph("example")
        result = explore_design_space(
            graph, "c", config=ExplorationConfig(checkpoint=tmp_path / "done.json")
        )
        assert result.complete
        assert result.resume_token is None  # nothing to resume
        token = load_checkpoint(tmp_path / "done.json")
        assert token.complete
        # Resuming a complete checkpoint is a free full replay.
        replay = explore_design_space(graph, "c", resume=token)
        assert replay.stats.evaluations == result.stats.evaluations  # cumulative, no new work
        assert fronts_identical(replay.front, result.front)

    def test_save_accepts_result_directly(self, tmp_path):
        result = self.make_partial(tmp_path)
        save_checkpoint(result, tmp_path / "direct.json")
        assert load_checkpoint(tmp_path / "direct.json").graph_name == "example"

    def test_stats_of_removed_counters_still_resume(self, tmp_path):
        """Checkpoints written before probe waves and speculation were
        removed carry their counters in ``stats``; such a checkpoint
        loads and resumes exactly like one without them."""
        self.make_partial(tmp_path)
        payload = json.loads((tmp_path / "ck.json").read_text())
        payload["stats"].update(
            speculative_issued=3, speculative_useful=2, batch_calls=4, batch_lanes=9
        )
        (tmp_path / "old.json").write_text(json.dumps(payload))
        graph = gallery_graph("example")
        old = explore_design_space(graph, "c", resume=str(tmp_path / "old.json"))
        current = explore_design_space(graph, "c", resume=str(tmp_path / "ck.json"))
        assert old.complete
        assert fronts_identical(old.front, explore_design_space(graph, "c").front)
        assert fronts_identical(old.front, current.front)
        assert old.stats.to_dict() | {"wall_time_s": 0} == current.stats.to_dict() | {"wall_time_s": 0}


class TestCheckpointErrors:
    def test_not_json(self, tmp_path):
        (tmp_path / "bad.json").write_text("{nope")
        with pytest.raises(CheckpointError, match="not valid checkpoint JSON"):
            load_checkpoint(tmp_path / "bad.json")

    def test_wrong_format(self, tmp_path):
        (tmp_path / "alien.json").write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(tmp_path / "alien.json")

    def test_unsupported_version(self, tmp_path):
        (tmp_path / "future.json").write_text(
            json.dumps({"format": CHECKPOINT_FORMAT, "version": 99})
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(tmp_path / "future.json")

    def test_missing_section(self, tmp_path):
        (tmp_path / "cut.json").write_text(
            json.dumps({"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION})
        )
        with pytest.raises(CheckpointError, match="misses"):
            load_checkpoint(tmp_path / "cut.json")

    def test_wrong_graph_rejected_on_resume(self, tmp_path):
        graph = gallery_graph("example")
        partial = explore_design_space(
            graph, "c", config=ExplorationConfig(budget=Budget(max_probes=3))
        )
        other = gallery_graph("modem")
        with pytest.raises(CheckpointError, match="written for graph"):
            explore_design_space(other, resume=partial.resume_token)

    def test_other_observed_actor_rejected_on_resume(self, tmp_path):
        graph = gallery_graph("example")
        explore_design_space(
            graph,
            "c",
            config=ExplorationConfig(budget=Budget(max_probes=4), checkpoint=tmp_path / "c.json"),
        )
        with pytest.raises(CheckpointError, match="observed 'c', not 'a'"):
            explore_design_space(graph, "a", resume=tmp_path / "c.json")

    def test_resume_type_error(self):
        with pytest.raises(CheckpointError, match="cannot resume"):
            coerce_resume(42)

    def test_save_rejects_tokenless_object(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot checkpoint"):
            save_checkpoint(object(), tmp_path / "x.json")

    def test_resume_requires_cache(self):
        graph = gallery_graph("example")
        partial = explore_design_space(
            graph, "c", config=ExplorationConfig(budget=Budget(max_probes=3))
        )
        with pytest.raises(CheckpointError, match="cache"):
            explore_design_space(
                graph,
                "c",
                config=ExplorationConfig(cache=False),
                resume=partial.resume_token,
            )

    def test_raw_mapping_payload_accepted(self):
        graph = gallery_graph("example")
        partial = explore_design_space(
            graph, "c", config=ExplorationConfig(budget=Budget(max_probes=4))
        )
        payload = dict(partial.resume_token.payload)
        resumed = explore_design_space(graph, "c", resume=payload)
        assert resumed.complete

    def test_token_repr_mentions_state(self):
        graph = gallery_graph("example")
        partial = explore_design_space(
            graph, "c", config=ExplorationConfig(budget=Budget(max_probes=3))
        )
        text = repr(partial.resume_token)
        assert "example" in text and "partial" in text
