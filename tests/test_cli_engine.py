"""CLI: --backend selects the probe kernel; --capacities picks its own."""

import io

import pytest

from repro.cli import build_parser, main
from repro.engine.executor import Executor


def run_cli(args):
    import contextlib

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


@pytest.mark.parametrize("backend", ["auto", "fastcore", "reference"])
def test_explore_output_identical_across_engines(backend):
    code, text = run_cli(
        ["gallery:example", "--observe", "c", "--strategy", "divide", "--backend", backend]
    )
    assert code == 0
    assert "size=6 throughput=1/7" in text
    assert "size=10 throughput=1/4" in text


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_evaluate_distribution_across_engines(engine, monkeypatch):
    # One concrete run picks its kernel itself: the fast kernel for a
    # plain run, the reference executor once a schedule is rendered.
    reference_runs = []
    run = Executor.run
    monkeypatch.setattr(Executor, "run", lambda self: reference_runs.append(self) or run(self))
    schedule = ["--schedule", "4"] if engine == "reference" else []
    code, text = run_cli(["gallery:example", "--capacities", "alpha=4,beta=2", *schedule])
    assert code == 0
    assert "throughput of 'c': 1/7" in text
    assert len(reference_runs) == (engine == "reference")


def test_unknown_engine_rejected_by_argparse(capsys):
    # --backend is the one selector: --engine is no option at all.
    assert "--engine" not in build_parser().format_help()
    with pytest.raises(SystemExit):
        main(["gallery:example", "--engine", "reference"])
    assert "unrecognized arguments: --engine" in capsys.readouterr().err
