"""Unit tests for the content-addressed graph registry and memo banks."""

import json

import pytest

from repro.buffers.evalcache import EvaluationService
from repro.exceptions import ParseError, ServiceError
from repro.gallery import h263_frames
from repro.graph.builder import GraphBuilder
from repro.io.jsonio import graph_fingerprint, graph_to_dict
from repro.io.sadfjson import sadf_to_dict
from repro.service.registry import GraphRegistry, MemoBank


#: h263-frames with an FSM that has no infinite run.
DEAD_END = {
    **sadf_to_dict(h263_frames()),
    "fsm": {"initial": "i", "transitions": [{"source": "i", "target": "p", "delay": 1}]},
}


def renamed_fig1():
    return (
        GraphBuilder("someone-elses-name")
        .actor("a", 1)
        .actor("b", 2)
        .actor("c", 2)
        .channel("a", "b", 2, 3, name="alpha")
        .channel("b", "c", 1, 2, name="beta")
        .build()
    )


class TestGraphRegistry:
    def test_add_returns_fingerprint_and_known_flag(self, fig1):
        registry = GraphRegistry()
        fingerprint, known = registry.add(fig1)
        assert fingerprint == graph_fingerprint(fig1)
        assert not known
        again, known = registry.add(fig1)
        assert again == fingerprint and known

    def test_identical_graphs_share_one_entry(self, fig1):
        registry = GraphRegistry()
        fingerprint, _ = registry.add(fig1)
        other, known = registry.add(renamed_fig1())
        assert other == fingerprint and known
        assert len(registry) == 1
        # the first-submitted graph is the canonical entry
        assert registry.get(fingerprint).name == fig1.name

    def test_accepts_json_documents(self, fig1):
        registry = GraphRegistry()
        fingerprint, _ = registry.add(graph_to_dict(fig1))
        assert registry.get(fingerprint).channel_names == fig1.channel_names

    def test_unknown_fingerprint_is_404(self):
        registry = GraphRegistry()
        with pytest.raises(ServiceError, match="unknown graph") as caught:
            registry.get("deadbeef")
        assert caught.value.status == 404

    def test_persistence_survives_restart(self, tmp_path, fig1):
        fingerprint, _ = GraphRegistry(tmp_path).add(fig1)
        reloaded = GraphRegistry(tmp_path)
        assert reloaded.fingerprints() == [fingerprint]
        assert reloaded.get(fingerprint).actor_names == fig1.actor_names

    @pytest.mark.parametrize("content, reason", [
        ("{not json", "Expecting property name"),
        # An FSM without an infinite run, stored before such FSMs were
        # rejected.
        (json.dumps(DEAD_END), "no long-run throughput"),
    ])
    def test_stored_graph_that_no_longer_parses_names_its_file(
        self, tmp_path, content, reason
    ):
        path = tmp_path / "graphs" / "0123abcd.json"
        path.parent.mkdir()
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ParseError, match=reason) as caught:
            GraphRegistry(tmp_path)
        assert str(caught.value).startswith(f"stored graph {path}: ")

    def test_bank_is_per_graph_and_observe(self, fig1):
        registry = GraphRegistry()
        fingerprint, _ = registry.add(fig1)
        bank_c = registry.bank(fingerprint, "c")
        assert registry.bank(fingerprint, "c") is bank_c
        assert registry.bank(fingerprint, "b") is not bank_c


class TestMemoBank:
    def evaluate_everything(self, fig1, distributions):
        service = EvaluationService(fig1, "c")
        for distribution in distributions:
            service.evaluate_blocking(distribution)
        return service

    def test_absorb_then_snapshot_roundtrips_records(self, fig1):
        from repro.buffers.distribution import StorageDistribution

        service = self.evaluate_everything(
            fig1, [StorageDistribution({"alpha": 4, "beta": 2})]
        )
        bank = MemoBank()
        bank.absorb(service.export_state())
        assert len(bank) == 1
        snapshot = bank.snapshot()
        assert "stats" not in snapshot  # restoring must not inflate counters
        restored = EvaluationService(fig1, "c")
        restored.restore_state(snapshot)
        assert restored.cache_size == 1
        assert restored.stats.evaluations == 0

    def test_full_records_never_replaced_by_thin_ones(self):
        bank = MemoBank()
        full = {"caps": [4, 2], "throughput": "1/7", "states": 9,
                "blocked": ["alpha"], "deficits": {"alpha": 1}}
        thin = {"caps": [4, 2], "throughput": "1/7", "states": 0,
                "blocked": None, "deficits": None}
        bank.absorb({"memo": [full]})
        bank.absorb({"memo": [thin]})
        (entry,) = bank.snapshot()["memo"]
        assert entry["blocked"] == ["alpha"]

    def test_thin_records_upgraded_by_full_ones(self):
        bank = MemoBank()
        thin = {"caps": [4, 2], "throughput": "1/7", "states": 0,
                "blocked": None, "deficits": None}
        full = dict(thin, blocked=["alpha"], deficits={"alpha": 1})
        bank.absorb({"memo": [thin]})
        bank.absorb({"memo": [full]})
        (entry,) = bank.snapshot()["memo"]
        assert entry["blocked"] == ["alpha"]

    def test_ceiling_kept_once_established(self):
        bank = MemoBank()
        bank.absorb({"memo": [], "ceiling": "1/4"})
        bank.absorb({"memo": []})  # a later job without a ceiling
        assert bank.snapshot()["ceiling"] == "1/4"
