"""CLI tests: ``repro submit`` / ``repro jobs`` against an in-process
server, plus one real ``repro serve`` subprocess smoke test."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.gallery import h263_frames
from repro.io.jsonio import write_json
from repro.io.sadfjson import sadf_to_dict
from repro.service.cli import main
from repro.service.server import AnalysisServer


@pytest.fixture()
def server():
    with AnalysisServer(workers=1) as running:
        yield running


@pytest.fixture()
def graph_file(tmp_path, fig1):
    path = tmp_path / "fig1.json"
    write_json(fig1, path)
    return str(path)


class TestSubmit:
    def test_dse_wait_prints_front_and_exits_zero(self, server, graph_file, capsys):
        code = main(
            ["submit", graph_file, "--url", server.url, "--observe", "c", "--wait"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "-> done" in out
        assert "Pareto points: 4" in out
        assert "size=6 throughput=1/7" in out
        assert "9 evaluations" in out

    def test_json_output_is_machine_readable(self, server, graph_file, capsys):
        code = main(
            ["submit", graph_file, "--url", server.url, "--observe", "c",
             "--wait", "--json"]
        )
        assert code == 0
        job = json.loads(capsys.readouterr().out)
        assert job["state"] == "done"
        assert job["result"]["schema"] == 1
        assert [p["size"] for p in job["result"]["pareto_front"]] == [6, 8, 9, 10]

    def test_throughput_kind(self, server, graph_file, capsys):
        code = main(
            ["submit", graph_file, "--url", server.url, "--observe", "c",
             "--kind", "throughput", "--capacities", "alpha=4,beta=2", "--wait"]
        )
        assert code == 0
        assert "throughput: 1/7" in capsys.readouterr().out

    def test_minimal_distribution_kind(self, server, graph_file, capsys):
        code = main(
            ["submit", graph_file, "--url", server.url, "--observe", "c",
             "--kind", "minimal-distribution", "--throughput", "1/5", "--wait"]
        )
        assert code == 0
        assert "minimal size 9" in capsys.readouterr().out

    def test_partial_exits_3(self, server, graph_file, capsys):
        code = main(
            ["submit", graph_file, "--url", server.url, "--observe", "c",
             "--max-probes", "3", "--wait"]
        )
        assert code == 3
        assert "partial" in capsys.readouterr().out

    def test_missing_constraint_exits_2(self, server, graph_file, capsys):
        code = main(
            ["submit", graph_file, "--url", server.url,
             "--kind", "minimal-distribution"]
        )
        assert code == 2
        assert "--throughput is required" in capsys.readouterr().err

    def test_unreachable_server_exits_1(self, graph_file, capsys):
        code = main(
            ["submit", graph_file, "--url", "http://127.0.0.1:1", "--observe", "c"]
        )
        assert code == 1
        assert "cannot reach the server" in capsys.readouterr().err


class TestJobsVerb:
    def test_empty_table(self, server, capsys):
        assert main(["jobs", "--url", server.url]) == 0
        assert "no jobs" in capsys.readouterr().out

    def test_list_show_and_cancel(self, server, graph_file, capsys):
        main(["submit", graph_file, "--url", server.url, "--observe", "c", "--wait"])
        capsys.readouterr()

        assert main(["jobs", "--url", server.url]) == 0
        table = capsys.readouterr().out
        assert "done" in table and "dse" in table

        job_id = table.split()[0]
        assert main(["jobs", job_id, "--url", server.url, "--json"]) == 0
        job = json.loads(capsys.readouterr().out)
        assert job["id"] == job_id and job["state"] == "done"

    def test_cancel_needs_job_id(self, server, capsys):
        assert main(["jobs", "--cancel", "--url", server.url]) == 2
        assert "needs a job id" in capsys.readouterr().err


class TestBackendsVerb:
    def test_local_listing(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "reference: available" in out
        assert "blocking" in out
        assert "cc:" in out  # available or unavailable — but listed
        assert "tiered:" not in out

    def test_local_json(self, capsys):
        from repro.engine.backends import backend_names

        assert main(["backends", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["name"] for row in rows] == list(backend_names())
        assert all({"name", "capabilities", "available", "reason"} <= set(row) for row in rows)

    def test_remote_listing_via_url(self, server, capsys):
        assert main(["backends", "--url", server.url, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(row["name"] == "fastcore" and row["available"] for row in rows)


def test_serve_names_a_stored_graph_that_no_longer_parses(tmp_path, capsys):
    # An FSM without an infinite run, stored before such FSMs were
    # rejected.
    document = sadf_to_dict(h263_frames())
    document["fsm"]["transitions"] = [{"source": "i", "target": "p", "delay": 1}]
    path = tmp_path / "graphs" / "0123abcd.json"
    path.parent.mkdir()
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["serve", "--port", "0", "--data-dir", str(tmp_path)]) == 1
    error = capsys.readouterr().err
    assert f"repro: error: stored graph {path}: " in error
    assert "no long-run throughput" in error


class TestServeSubprocess:
    def test_serve_smoke_sigterm_drains(self, tmp_path, graph_file):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.service.cli", "serve",
             "--port", "0", "--data-dir", str(tmp_path / "state")],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            assert "repro serve: listening on " in line
            url = line.strip().rsplit(" ", 1)[-1]

            from repro.service.client import ServiceClient

            client = ServiceClient(url)
            deadline = time.monotonic() + 10
            while True:
                try:
                    health = client.healthz()
                    break
                except OSError:
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
            assert health["status"] == "ok"

            job = client.submit_job(
                json.loads(Path(graph_file).read_text()), kind="dse", observe="c"
            )
            assert client.wait(job["id"])["state"] == "done"

            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
            rest = process.stdout.read()
            assert "repro serve: stopped" in rest
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
