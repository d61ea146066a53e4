"""The bounds oracle's probe savings on capped ``divide``, pinned exactly.

Each case study is explored with the ``divide`` strategy, capped at its
lower-bound corner plus a slack, with the bounds oracle off (midpoint
recursion) and on (the ascending walk with oracle cuts and promotion
seeding).  The serial scans are deterministic, so every count in
``ExplorationStats`` is exact: one extra simulation fails the pin, and
so does a counter that stops counting.  The fronts, witnesses included,
are identical either way.
"""

import pytest

from repro.buffers.bounds import lower_bound_distribution
from repro.buffers.explorer import explore_design_space
from repro.gallery.registry import gallery_graph
from repro.runtime.config import ExplorationConfig

#: graph: (slack, evaluations off, evaluations on, exact answers, cuts)
PINNED = {
    "example": (6, 13, 13, 0, 0),
    "modem": (1, 15_700, 6_002, 0, 8_649),
    "samplerate": (3, 970, 374, 2, 236),
    "satellite": (1, 5_573, 2_521, 0, 2_475),
}


def explore(graph, max_size, bounds):
    return explore_design_space(
        graph, strategy="divide", max_size=max_size, config=ExplorationConfig(bounds=bounds)
    )


def counts(result):
    return result.stats.evaluations, result.stats.bounds_exact, result.stats.bounds_cut


def front(result):
    return [
        (point.size, point.throughput, [dict(witness) for witness in point.witnesses])
        for point in result.front
    ]


@pytest.mark.parametrize(
    "name",
    [
        "example",
        "modem",
        "samplerate",
        pytest.param("satellite", marks=pytest.mark.slow),
    ],
)
def test_capped_divide_counts_are_pinned(name):
    slack, off_count, on_count, exact, cuts = PINNED[name]
    graph = gallery_graph(name)
    max_size = lower_bound_distribution(graph).size + slack
    off = explore(graph, max_size, bounds=False)
    on = explore(graph, max_size, bounds=True)
    assert counts(off) == (off_count, 0, 0)
    assert counts(on) == (on_count, exact, cuts)
    assert front(on) == front(off)
