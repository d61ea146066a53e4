"""CLI coverage for the scenario-aware (SADF) code paths."""

import json

import pytest

from repro.cli import main
from repro.gallery import h263_frames
from repro.io.sadfjson import sadf_to_dict, write_sadf_json


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_list_gallery_marks_scenario_graphs(capsys):
    code, out = run(capsys, "--list-gallery")
    assert code == 0
    assert "h263-frames  (scenarios)" in out
    assert "modem-modes  (scenarios)" in out


def test_gallery_sadf_exploration(capsys):
    code, out = run(capsys, "gallery:h263-frames", "--observe", "mc")
    assert code == 0
    assert "design space of 'h263-frames'" in out
    assert "maximal throughput: 1/11" in out
    assert "Pareto points: 2" in out
    assert "size=9 throughput=1/13" in out
    assert "(sadf-dependency)" in out


def test_gallery_sadf_worst_case_summary(capsys):
    code, out = run(
        capsys, "gallery:h263-frames", "--observe", "mc",
        "--capacities", "h1=8,h2=2,h3=8",
    )
    assert code == 0
    assert "worst-case throughput of 'mc': 1/11" in out
    assert "binding constraint: switching cycle i -> p" in out


def test_gallery_sadf_minimal_distribution(capsys):
    code, out = run(
        capsys, "gallery:h263-frames", "--observe", "mc", "--throughput", "1/13"
    )
    assert code == 0
    assert "size 9" in out and "(throughput 1/13)" in out
    code, out = run(
        capsys, "gallery:h263-frames", "--observe", "mc", "--throughput", "2/3"
    )
    assert code == 1
    assert "not achievable" in out


def test_sadf_minimal_distribution_honours_the_runtime_flags(capsys):
    code, out = run(
        capsys, "gallery:modem-modes", "--throughput", "32/161", "--max-probes", "3"
    )
    assert code == 3
    assert "budget exhausted" in out and "size" not in out
    code = main(
        ["gallery:h263-frames", "--observe", "mc", "--throughput", "1/13", "--backend", "warp"]
    )
    assert code == 1
    assert "unknown probe backend 'warp'" in capsys.readouterr().err


def test_sadfjson_file_is_autodetected(tmp_path, capsys):
    path = tmp_path / "frames.json"
    write_sadf_json(h263_frames(), path)
    code, out = run(capsys, str(path), "--observe", "mc")
    assert code == 0
    assert "(sadf-dependency)" in out
    assert "Pareto points: 2" in out


def test_fsm_without_an_infinite_run_exits_1(tmp_path, capsys):
    document = sadf_to_dict(h263_frames())
    document["fsm"]["transitions"] = [{"source": "i", "target": "p", "delay": 1}]
    path = tmp_path / "frames.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main([str(path), "--observe", "mc"]) == 1
    error = capsys.readouterr().err
    assert error.startswith("buffy: error: invalid SADF graph in document:")
    assert "no long-run throughput" in error


def test_scenarios_flag_forces_sadf_path(tmp_path, capsys):
    # Even with a generic filename the explicit flag selects the SADF
    # pipeline; a plain SDF document then fails to parse as sadfjson.
    path = tmp_path / "frames.dat"
    write_sadf_json(h263_frames(), path)
    code, out = run(capsys, str(path), "--scenarios", "--observe", "mc")
    assert code == 0
    assert "maximal throughput: 1/11" in out


def test_sadf_output_json(tmp_path, capsys):
    target = tmp_path / "front.json"
    code, out = run(
        capsys, "gallery:h263-frames", "--observe", "mc",
        "--output-json", str(target),
    )
    assert code == 0
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert [point["size"] for point in payload["pareto_front"]] == [9, 10]
    assert payload["max_throughput"] == "1/11"


def test_sadf_checkpoint_resume_via_cli(tmp_path, capsys):
    ckpt = tmp_path / "sadf.ckpt.json"
    code, out = run(
        capsys, "gallery:h263-frames", "--observe", "mc",
        "--checkpoint", str(ckpt), "--max-probes", "3",
    )
    assert code == 3
    assert ckpt.exists()
    code, out = run(
        capsys, "gallery:h263-frames", "--observe", "mc", "--resume", str(ckpt)
    )
    assert code == 0
    assert "Pareto points: 2" in out
