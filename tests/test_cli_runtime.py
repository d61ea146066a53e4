"""CLI coverage for the run-controller flags.

``--deadline`` / ``--max-probes`` budget the run (exit code 3 flags a
partial result), ``--checkpoint`` / ``--resume`` round-trip it, and
``--stats-json`` dumps the telemetry snapshot.
"""

import json

from repro import cli
from repro.cli import main


class TestBudgetFlags:
    def test_max_probes_partial_exit_code(self, capsys):
        code = main(["gallery:example", "--observe", "c", "--max-probes", "4"])
        assert code == 3
        out = capsys.readouterr().out
        assert "INCOMPLETE" in out
        assert "probes" in out

    def test_zero_deadline_partial(self, capsys):
        code = main(["gallery:example", "--observe", "c", "--deadline", "0"])
        assert code == 3
        assert "deadline" in capsys.readouterr().out

    def test_unconstrained_run_still_exits_zero(self, capsys):
        assert main(["gallery:example", "--observe", "c"]) == 0
        assert "Pareto points: 4" in capsys.readouterr().out


class TestConstraintQuery:
    def test_budget_trip_exits_like_a_partial_run(self, capsys):
        code = main(["gallery:modem", "--throughput", "1/3", "--max-probes", "2"])
        assert code == 3
        out = capsys.readouterr().out
        assert "budget exhausted" in out and "size" not in out

    def test_unknown_backend_fails_up_front(self, capsys):
        code = main(
            ["gallery:example", "--observe", "c", "--throughput", "1/7", "--backend", "nonexistent"]
        )
        assert code == 1
        assert "unknown probe backend 'nonexistent'" in capsys.readouterr().err

    def test_runtime_flags_reach_the_query(self, monkeypatch, capsys):
        seen = []
        query = cli.minimal_distribution_for_throughput

        def spy(graph, constraint, observe, *, config):
            seen.append(config)
            return query(graph, constraint, observe, config=config)

        monkeypatch.setattr(cli, "minimal_distribution_for_throughput", spy)
        code = main(
            [
                "gallery:example", "--observe", "c", "--throughput", "1/6",
                "--backend", "reference", "--workers", "2", "--bounds-oracle",
                "--max-probes", "50",
            ]
        )
        assert code == 0
        assert "size 8" in capsys.readouterr().out
        (config,) = seen
        assert config.backend == "reference" and config.workers == 2
        assert config.bounds and config.budget.max_probes == 50


class TestCheckpointFlags:
    def test_checkpoint_resume_round_trip(self, tmp_path, capsys):
        checkpoint = tmp_path / "run.ckpt.json"
        code = main(
            [
                "gallery:example",
                "--observe",
                "c",
                "--max-probes",
                "4",
                "--checkpoint",
                str(checkpoint),
            ]
        )
        assert code == 3
        assert checkpoint.exists()
        first = capsys.readouterr().out
        assert "resume checkpoint written" in first

        code = main(
            ["gallery:example", "--observe", "c", "--resume", str(checkpoint)]
        )
        assert code == 0
        resumed = capsys.readouterr().out
        assert "Pareto points: 4" in resumed
        assert "INCOMPLETE" not in resumed

    def test_resume_output_matches_uninterrupted(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck.json"
        main(["gallery:example", "--observe", "c", "--max-probes", "3", "--checkpoint", str(checkpoint)])
        capsys.readouterr()
        direct_json = tmp_path / "direct.json"
        resumed_json = tmp_path / "resumed.json"
        assert main(["gallery:example", "--observe", "c", "--output-json", str(direct_json)]) == 0
        assert (
            main(
                [
                    "gallery:example",
                    "--observe",
                    "c",
                    "--resume",
                    str(checkpoint),
                    "--output-json",
                    str(resumed_json),
                ]
            )
            == 0
        )
        capsys.readouterr()
        direct = json.loads(direct_json.read_text())
        resumed = json.loads(resumed_json.read_text())
        assert resumed["pareto_front"] == direct["pareto_front"]
        assert resumed["max_throughput"] == direct["max_throughput"]

    def test_wrong_graph_checkpoint_is_a_cli_error(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck.json"
        main(["gallery:example", "--observe", "c", "--max-probes", "3", "--checkpoint", str(checkpoint)])
        capsys.readouterr()
        code = main(["gallery:modem", "--resume", str(checkpoint)])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestStatsJson:
    def test_stats_json_written(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        assert main(["gallery:example", "--observe", "c", "--stats-json", str(stats)]) == 0
        assert "telemetry snapshot written" in capsys.readouterr().out
        snapshot = json.loads(stats.read_text())
        assert snapshot["counters"]["run_finish"] == 1
        assert snapshot["counters"]["probe_start"] >= 1
        assert "probe" in snapshot["timers"]

    def test_partial_run_stats_include_budget_event(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        main(
            [
                "gallery:example",
                "--observe",
                "c",
                "--max-probes",
                "2",
                "--stats-json",
                str(stats),
            ]
        )
        capsys.readouterr()
        snapshot = json.loads(stats.read_text())
        assert snapshot["counters"]["budget_exhausted"] == 1


class TestOutputJsonSchema:
    def test_partial_flagging_round_trips_through_json(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        main(
            [
                "gallery:example",
                "--observe",
                "c",
                "--max-probes",
                "4",
                "--output-json",
                str(target),
            ]
        )
        capsys.readouterr()
        data = json.loads(target.read_text())
        assert data["complete"] is False
        assert data["exhausted"] == "probes"

        from repro.io.frontjson import read_result_json

        result = read_result_json(target)
        assert not result.complete
        assert result.stats.evaluations == 4
