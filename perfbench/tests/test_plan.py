"""Every seed plans the same work: each throughput window keeps one
reference point (none below the first) and answers the next."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import fronts  # noqa: E402
from explore import ExploreWorkload  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_each_window_keeps_one_point_and_answers_the_next(seed):
    from repro.exceptions import ConfigError

    try:
        bench = ExploreWorkload("explore-divide-cc", seed, 5)
    except ConfigError as error:
        pytest.skip(f"no cc backend: {error}")
    windows = [op for op in bench.plan() if op.kind == "window"]
    capped = {graph: fronts.cut_at(bench.reference[graph], bench.caps[graph]) for graph in bench.graphs}
    assert len(windows) == sum(len(front) for front in capped.values())
    for op in windows:
        front = capped[op.graph]
        answer = next(i for i, point in enumerate(front) if Fraction(point[1]) >= op.target)
        kept = [point for point in front if op.low <= Fraction(point[1]) < op.target]
        assert kept == front[answer - 1 : answer]
