"""End-to-end tests for the buffy command line."""

import pytest

from repro.cli import main, parse_capacities, parse_fraction
from repro.io.sdfxml import write_xml
from repro.io.jsonio import write_json


class TestHelpers:
    def test_parse_fraction(self):
        from fractions import Fraction

        assert parse_fraction("1/6") == Fraction(1, 6)
        assert parse_fraction("0.25") == Fraction(1, 4)

    def test_parse_capacities(self):
        assert dict(parse_capacities("alpha=4, beta=2")) == {"alpha": 4, "beta": 2}


class TestExploration:
    def test_gallery_exploration(self, capsys):
        assert main(["gallery:example", "--observe", "c"]) == 0
        out = capsys.readouterr().out
        assert "Pareto points: 4" in out
        assert "1/4" in out

    def test_chart(self, capsys):
        assert main(["gallery:example", "--observe", "c", "--chart"]) == 0
        assert "distribution size" in capsys.readouterr().out

    def test_table(self, capsys):
        assert main(["gallery:example", "--observe", "c", "--table"]) == 0
        assert "#pareto" in capsys.readouterr().out

    def test_strategy_and_max_size(self, capsys):
        assert main(["gallery:example", "--observe", "c", "--strategy", "divide", "--max-size", "8"]) == 0
        out = capsys.readouterr().out
        assert "Pareto points: 2" in out

    def test_quantum(self, capsys):
        assert main(["gallery:example", "--observe", "c", "--quantum", "1/10"]) == 0
        assert "Pareto points: 2" in capsys.readouterr().out


class TestQueries:
    def test_throughput_constraint(self, capsys):
        assert main(["gallery:example", "--observe", "c", "--throughput", "1/6"]) == 0
        out = capsys.readouterr().out
        assert "size 8" in out

    def test_unachievable_constraint_exit_code(self, capsys):
        assert main(["gallery:example", "--observe", "c", "--throughput", "2/3"]) == 1
        assert "not achievable" in capsys.readouterr().out

    def test_capacities_and_schedule(self, capsys):
        assert main(
            ["gallery:example", "--observe", "c", "--capacities", "alpha=4,beta=2", "--schedule", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "throughput of 'c': 1/7" in out
        assert "| time |" in out

    def test_deadlocking_capacities_reported(self, capsys):
        assert main(["gallery:example", "--observe", "c", "--capacities", "alpha=3,beta=2"]) == 0
        assert "deadlocks" in capsys.readouterr().out

    def test_bounds(self, capsys):
        assert main(["gallery:example", "--bounds"]) == 0
        out = capsys.readouterr().out
        assert "(size 6)" in out
        assert "(size 16)" in out


class TestInputsAndExports:
    def test_xml_file_input(self, tmp_path, fig1, capsys):
        path = tmp_path / "g.xml"
        write_xml(fig1, path)
        assert main([str(path), "--observe", "c", "--max-size", "6"]) == 0
        assert "Pareto points: 1" in capsys.readouterr().out

    def test_json_file_input(self, tmp_path, fig1, capsys):
        path = tmp_path / "g.json"
        write_json(fig1, path)
        assert main([str(path), "--observe", "c", "--max-size", "6"]) == 0

    def test_dot_export(self, capsys):
        assert main(["gallery:example", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_export_files(self, tmp_path, capsys):
        xml_path = tmp_path / "out.xml"
        json_path = tmp_path / "out.json"
        assert main(
            ["gallery:example", "--export-xml", str(xml_path), "--export-json", str(json_path), "--bounds"]
        ) == 0
        assert xml_path.exists()
        assert json_path.exists()

    def test_list_gallery(self, capsys):
        assert main(["--list-gallery"]) == 0
        assert "modem" in capsys.readouterr().out


class TestErrors:
    def test_missing_graph_argument(self, capsys):
        assert main([]) == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_gallery_graph(self, capsys):
        assert main(["gallery:nope"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["/does/not/exist.xml"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_capacities_channel(self, capsys):
        assert main(["gallery:example", "--capacities", "zz=3"]) == 1
        assert "error" in capsys.readouterr().err


class TestBackendFlag:
    def test_backend_selects_probe_backend(self, capsys):
        assert main(["gallery:example", "--observe", "c", "--backend", "fastcore"]) == 0
        assert "Pareto points: 4" in capsys.readouterr().out

    def test_unknown_backend_fails_up_front(self, capsys):
        # "batch-numpy" and "tiered" name backends that no longer exist.
        for name in ("warp", "batch-numpy", "tiered"):
            assert main(["gallery:example", "--backend", name]) == 1
            err = capsys.readouterr().err
            assert f"unknown probe backend {name!r}" in err
            assert "registered backends: cc, fastcore, reference\n" in err  # the registry is listed

    def test_probe_wave_flags_are_gone(self, capsys):
        for flag in ("--batch=8", "--speculate"):
            with pytest.raises(SystemExit) as exited:
                main(["gallery:example", flag])
            assert exited.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
