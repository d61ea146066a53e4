"""CLI tests for the extension flags (VCD/SVG, shared, latency, window, CSDF)."""

import json

import pytest

from repro.cli import main
from repro.csdf.graph import CSDFGraph
from repro.io.csdfjson import write_csdf_json


@pytest.fixture
def csdf_file(tmp_path):
    graph = CSDFGraph("decimator")
    graph.add_actor("src", (1,))
    graph.add_actor("decim", (2, 1))
    graph.add_actor("snk", (1,))
    graph.add_channel("src", "decim", (1,), (1, 1), name="a")
    graph.add_channel("decim", "snk", (1, 0), (1,), name="b")
    path = tmp_path / "decimator.json"
    write_csdf_json(graph, path)
    return path


class TestTraceExports:
    def test_vcd_export(self, tmp_path, capsys):
        target = tmp_path / "trace.vcd"
        code = main(
            ["gallery:example", "--observe", "c", "--capacities", "alpha=4,beta=2", "--vcd", str(target)]
        )
        assert code == 0
        text = target.read_text()
        assert "$enddefinitions $end" in text
        assert "busy_c" in text
        assert "VCD trace written" in capsys.readouterr().out

    def test_svg_export(self, tmp_path, capsys):
        target = tmp_path / "gantt.svg"
        code = main(
            ["gallery:example", "--observe", "c", "--capacities", "alpha=4,beta=2", "--svg", str(target)]
        )
        assert code == 0
        assert target.read_text().startswith("<svg")


class TestSharedFlag:
    def test_with_capacities(self, capsys):
        code = main(
            ["gallery:example", "--observe", "c", "--capacities", "alpha=4,beta=2", "--shared"]
        )
        assert code == 0
        assert "shared-memory requirement" in capsys.readouterr().out

    def test_with_exploration(self, capsys):
        code = main(["gallery:example", "--observe", "c", "--shared"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shared-memory requirement per Pareto point" in out
        assert "size 6:" in out


class TestLatencyFlag:
    def test_latency_report(self, capsys):
        code = main(
            [
                "gallery:example",
                "--observe",
                "c",
                "--capacities",
                "alpha=4,beta=2",
                "--latency",
                "a:c",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "latency a -> c" in out
        assert "initial 9" in out


class TestThroughputWindow:
    def test_min_throughput(self, capsys):
        code = main(["gallery:example", "--observe", "c", "--min-throughput", "1/6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Pareto points: 3" in out

    def test_max_throughput(self, capsys):
        code = main(["gallery:example", "--observe", "c", "--max-throughput", "1/6"])
        assert code == 0
        assert "Pareto points: 2" in capsys.readouterr().out

    def test_invalid_window(self, capsys):
        code = main(
            ["gallery:example", "--observe", "c", "--min-throughput", "1/4", "--max-throughput", "1/7"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestCsdfMode:
    def test_explore(self, csdf_file, capsys):
        code = main([str(csdf_file), "--csdf", "--observe", "snk", "--chart"])
        assert code == 0
        out = capsys.readouterr().out
        assert "design space of 'decimator'" in out
        assert "maximal throughput: 1/3" in out
        assert "distribution size" in out  # chart rendered

    def test_probe_budget_gives_a_partial_result(self, csdf_file, capsys):
        code = main([str(csdf_file), "--csdf", "--observe", "snk", "--max-probes", "2"])
        assert code == 3
        assert "INCOMPLETE: budget exhausted (probes)" in capsys.readouterr().out

    def test_unknown_backend_is_rejected(self, csdf_file, capsys):
        assert main([str(csdf_file), "--csdf", "--backend", "nonexistent"]) == 1
        assert "unknown probe backend 'nonexistent'" in capsys.readouterr().err

    def test_checkpoint_resumes_to_the_uninterrupted_front(self, csdf_file, tmp_path, capsys):
        def front_lines(out):
            return [line for line in out.splitlines() if "size=" in line]

        assert main([str(csdf_file), "--csdf", "--observe", "snk"]) == 0
        uninterrupted = front_lines(capsys.readouterr().out)
        checkpoint = tmp_path / "ck.json"
        common = [str(csdf_file), "--csdf", "--observe", "snk"]
        assert main(common + ["--max-probes", "2", "--checkpoint", str(checkpoint)]) == 3
        assert json.loads(checkpoint.read_text())["format"] == "repro-checkpoint"
        capsys.readouterr()
        assert main(common + ["--resume", str(checkpoint)]) == 0
        assert front_lines(capsys.readouterr().out) == uninterrupted

    def test_stats_and_output_json(self, csdf_file, tmp_path):
        stats, output = tmp_path / "stats.json", tmp_path / "out.json"
        code = main(
            [
                str(csdf_file),
                "--csdf",
                "--observe",
                "snk",
                "--stats-json",
                str(stats),
                "--output-json",
                str(output),
            ]
        )
        assert code == 0
        assert json.loads(stats.read_text())["counters"]
        result = json.loads(output.read_text())
        assert result["graph"] == "decimator" and result["complete"]
        assert result["stats"]["backend"] == "reference"

    def test_shared_is_rejected(self, csdf_file, capsys):
        assert main([str(csdf_file), "--csdf", "--shared"]) == 1
        assert "--shared" in capsys.readouterr().err

    def test_evaluate_distribution(self, csdf_file, capsys):
        code = main([str(csdf_file), "--csdf", "--observe", "snk", "--capacities", "a=2,b=1"])
        assert code == 0
        assert "throughput of 'snk': 1/3" in capsys.readouterr().out

    def test_malformed_csdf_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"actors": []}))
        assert main([str(path), "--csdf"]) == 1
        assert "error" in capsys.readouterr().err
