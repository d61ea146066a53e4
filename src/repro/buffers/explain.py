"""Interpretability: which channels pin each Pareto point.

At a Pareto point the witness distribution cannot shrink without
losing throughput; the channels that actually *block* firings during
its schedule (the storage dependencies of the dependency-guided
strategy) are the ones a designer would enlarge to move right along
the front, and the token-blocked channels indicate where the graph is
compute- rather than storage-limited.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.buffers.pareto import ParetoFront, ParetoPoint
from repro.engine.executor import execute
from repro.graph.graph import SDFGraph
from repro.reporting.tables import render_table


@dataclass(frozen=True)
class PointExplanation:
    """Blocking analysis of one Pareto point's witness schedule."""

    point: ParetoPoint
    space_blocked: frozenset[str]
    token_blocked: frozenset[str]
    deficits: dict[str, int]

    @property
    def storage_limited(self) -> bool:
        """Whether enlarging some channel could still raise throughput."""
        return bool(self.space_blocked)


def explain_front(
    graph: SDFGraph, front: ParetoFront, observe: str | None = None
) -> list[PointExplanation]:
    """Blocking analysis for every point of *front*."""
    explanations = []
    for point in front:
        result = execute(graph, point.distribution, observe, track_blocking=True)
        explanations.append(
            PointExplanation(
                point=point,
                space_blocked=result.space_blocked,
                token_blocked=result.token_blocked,
                deficits=dict(result.space_deficits),
            )
        )
    return explanations


def render_explanations(explanations: list[PointExplanation]) -> str:
    """Aligned text table of the blocking analysis."""
    rows = [["size", "throughput", "space-blocked (deficit)", "token-blocked"]]
    for explanation in explanations:
        blocked = ", ".join(
            f"{name} (+{explanation.deficits.get(name, '?')})"
            for name in sorted(explanation.space_blocked)
        )
        starving = ", ".join(sorted(explanation.token_blocked))
        rows.append(
            [
                str(explanation.point.size),
                str(explanation.point.throughput),
                blocked or "-",
                starving or "-",
            ]
        )
    return render_table(rows)
