"""A run's counters have one home: its telemetry hub.

``ExplorationStats``, the evaluation service's ``stats``, a checkpoint's
``stats`` section and the ``--stats-json`` payload (``result.telemetry``)
all render the hub, so wherever two of them show a count they agree.
The hub's ``counters`` are what this process ran; its ``stats`` section
adds the earlier legs of a resumed run, as ``ExplorationStats`` does.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from repro.buffers.explorer import explore_design_space
from repro.cli import main
from repro.engine.backends import resolve_backend
from repro.gallery.registry import gallery_graph, sadf_gallery_graph
from repro.runtime.budget import Budget
from repro.runtime.config import ExplorationConfig
from repro.runtime.telemetry import RunStats, TelemetryHub
from repro.sadf.explorer import explore_design_space as explore_sadf

CHECKPOINTS = Path(__file__).parent / "checkpoints"

#: ExplorationStats fields shown under the same name in the payload's
#: ``stats`` section (docs/RUNTIME.md, "The counters a run keeps").
SAME_NAME = (
    "evaluations",
    "cache_hits",
    "sizes_probed",
    "bounds_exact",
    "bounds_cut",
    "parallel_batches",
    "pool_restarts",
    "pool_fallback_reason",
    "max_states_stored",
    "workers",
)


def assert_payload_agrees(telemetry, stats):
    shown = telemetry["stats"]
    for name in SAME_NAME:
        assert shown[name] == getattr(stats, name), name


def test_stats_json_of_a_pooled_run_counts_every_probe(tmp_path):
    stats_path, result_path = tmp_path / "stats.json", tmp_path / "result.json"
    argv = ["gallery:samplerate", "--workers", "2", "--stats-json", str(stats_path)]
    assert main(argv + ["--output-json", str(result_path)]) == 0
    payload = json.loads(stats_path.read_text())
    stats = json.loads(result_path.read_text())["stats"]
    assert stats["evaluations"] == 1639 and stats["parallel_batches"] > 0
    for name in SAME_NAME:
        assert payload["stats"][name] == stats[name], name
    # Pooled probes are events like inline ones.
    assert payload["counters"]["probe_start"] == payload["counters"]["probe_finish"] == 1639
    assert payload["counters"]["parallel_batches"] == stats["parallel_batches"]


def test_resumed_run_reports_every_leg_but_counts_its_own(tmp_path):
    checkpoint = tmp_path / "modem.ckpt.json"
    first = explore_design_space(
        gallery_graph("modem"),
        config=ExplorationConfig(budget=Budget(max_probes=40), checkpoint=checkpoint),
    )
    assert not first.complete and first.stats.evaluations == 40
    assert json.loads(checkpoint.read_text())["stats"] == first.telemetry["stats"]

    resumed = explore_design_space(gallery_graph("modem"), resume=checkpoint)
    assert resumed.complete
    assert resumed.stats.evaluations == 233 and resumed.stats.cache_hits == 40
    assert_payload_agrees(resumed.telemetry, resumed.stats)
    assert resumed.telemetry["counters"]["probe_start"] == 233 - 40


#: Graph, observed actor, strategy, quantum, the budget of an interrupted
#: first leg, and the ``sizes_probed`` / ``threshold_scans`` an
#: uninterrupted run reports.
REPLAYED = [
    ("modem", None, "dependency", None, 40, 7, 0),
    ("example", "c", "divide", None, 4, 7, 0),
    ("example", "c", "divide", "1/20", 4, 7, 11),
    pytest.param("modem", None, "divide", "1/50", 40, 12, 19, marks=pytest.mark.slow),
]


@pytest.mark.parametrize("name, observe, strategy, quantum, budget, sizes, scans", REPLAYED)
def test_resumed_run_counts_its_replayed_sizes_once(
    tmp_path, name, observe, strategy, quantum, budget, sizes, scans
):
    """The replay rescans every size of the earlier leg, so the leg's
    ``sizes_probed`` and ``threshold_scans`` are not added again."""
    graph = gallery_graph(name)
    run = {"strategy": strategy, "quantum": Fraction(quantum) if quantum else None}
    checkpoint = tmp_path / "leg.ckpt.json"
    first = explore_design_space(
        graph,
        observe,
        config=ExplorationConfig(budget=Budget(max_probes=budget), checkpoint=checkpoint),
        **run,
    )
    assert not first.complete
    resumed = explore_design_space(graph, observe, resume=checkpoint, **run)
    shown = resumed.telemetry["stats"]
    assert (resumed.stats.sizes_probed, shown["threshold_scans"]) == (sizes, scans)
    assert_payload_agrees(resumed.telemetry, resumed.stats)


def test_resumed_sadf_run_counts_its_sizes_once(tmp_path):
    checkpoint = tmp_path / "leg.ckpt.json"
    config = ExplorationConfig(budget=Budget(max_probes=40), checkpoint=checkpoint)
    assert not explore_sadf(sadf_gallery_graph("modem-modes"), config=config).complete
    resumed = explore_sadf(sadf_gallery_graph("modem-modes"), resume=checkpoint)
    assert resumed.stats.sizes_probed == 11
    assert explore_sadf(sadf_gallery_graph("modem-modes")).stats.sizes_probed == 11


def test_sadf_run_sums_its_scenarios():
    result = explore_sadf(sadf_gallery_graph("modem-modes"))
    assert (result.stats.evaluations, result.stats.cache_hits) == (774, 4)
    assert_payload_agrees(result.telemetry, result.stats)
    assert result.telemetry["counters"]["probe_start"] == 774


def test_service_stats_and_checkpoint_section_render_the_hub():
    from repro.buffers.evalcache import EvaluationService

    with EvaluationService(gallery_graph("example"), "c") as service:
        explore_design_space(
            gallery_graph("example"), "c", config=ExplorationConfig(evaluator=service)
        )
        assert service.stats == service.telemetry.stats()
        assert service.export_state()["stats"] == service.stats._asdict()
        assert service.stats.evaluations == service.telemetry.counters["probe_start"] == 9


class TestHubAggregation:
    def test_carried_legs_count_in_stats_not_in_counters(self):
        hub = TelemetryHub()
        hub.emit("probe_start")
        hub.peak("max_states_stored", 3)
        hub.carry({"evaluations": 4, "cache_hits": 2, "max_states_stored": 7, "workers": 8})
        stats = hub.stats()
        assert (stats.evaluations, stats.cache_hits, stats.max_states_stored) == (5, 2, 7)
        assert stats.workers == 0  # a leg's pool size is its own
        assert hub.counters == {"probe_start": 1}
        server = TelemetryHub().merge(hub)
        assert server.counters == {"probe_start": 1}

    def test_merging_hubs_adds_counts_and_keeps_peaks_and_the_first_note(self):
        run = TelemetryHub()
        for workers, states, reason in ((1, 9, None), (2, 4, "worker died"), (1, 1, "later")):
            scenario = TelemetryHub()
            scenario.emit("probe_start")
            scenario.peak("workers", workers)
            scenario.peak("max_states_stored", states)
            if reason:
                scenario.note("pool_fallback_reason", reason)
            run.merge(scenario)
        stats = run.stats()
        assert (stats.evaluations, stats.workers, stats.max_states_stored) == (3, 2, 9)
        assert stats.pool_fallback_reason == "worker died"

    def test_snapshot_merges_only_what_ran(self):
        leg = TelemetryHub()
        leg.carry({"evaluations": 5})
        leg.emit("probe_start")
        snapshot = leg.snapshot()
        assert snapshot["stats"]["evaluations"] == 6
        assert TelemetryHub().merge(snapshot).counters == {"probe_start": 1}
        assert set(snapshot["stats"]) == set(RunStats._fields)


#: The resumed results of the two checkpoints under ``checkpoints/``,
#: written by this package before its counters moved into the hub
#: (budgets of 4 and 3 probes).  ``backend`` and ``wall_time_s`` aside.
RESUMED = {
    "fig1-partial.ckpt.json": (
        [
            (6, "1/7", [{"alpha": 4, "beta": 2}]),
            (8, "1/6", [{"alpha": 5, "beta": 3}, {"alpha": 6, "beta": 2}]),
            (9, "1/5", [{"alpha": 6, "beta": 3}]),
            (10, "1/4", [{"alpha": 7, "beta": 3}]),
        ],
        {"evaluations": 9, "cache_hits": 4, "max_states_stored": 2, "sizes_probed": 5},
    ),
    "h263-frames-partial.ckpt.json": (
        [
            (9, "1/13", [{"h1": 4, "h2": 1, "h3": 4}]),
            (10, "1/11", [{"h1": 4, "h2": 2, "h3": 4}]),
        ],
        {"evaluations": 8, "cache_hits": 15, "max_states_stored": 2, "sizes_probed": 5},
    ),
}


@pytest.mark.parametrize("name", sorted(RESUMED))
def test_older_checkpoints_resume_to_the_same_front_and_stats(name):
    path = CHECKPOINTS / name
    if name.startswith("fig1"):
        result = explore_design_space(gallery_graph("example"), "c", resume=path)
        strategy = "dependency"
    else:
        result = explore_sadf(sadf_gallery_graph("h263-frames"), "mc", resume=path)
        strategy = "sadf-dependency"
    front, counts = RESUMED[name]
    assert result.complete
    shown = result.to_dict()["pareto_front"]
    assert [(point["size"], point["throughput"], point["witnesses"]) for point in shown] == front
    stats = result.stats.to_dict()
    assert stats.pop("backend") == resolve_backend("auto")
    stats.pop("wall_time_s")
    assert stats == {
        "strategy": strategy,
        "search_space": None,
        "workers": 1,
        "parallel_batches": 0,
        "pool_restarts": 0,
        "pool_fallback_reason": None,
        "bounds_exact": 0,
        "bounds_cut": 0,
        **counts,
    }
    assert_payload_agrees(result.telemetry, result.stats)
