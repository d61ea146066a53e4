"""Gallery graphs, committed reference fronts and the output checks.

``reference_fronts.json`` holds the exact Pareto fronts (sizes,
throughputs and witnesses) of the BML99 gallery graphs and of the SADF
``modem-modes`` graph under the default configuration; regenerate it
with ``python3 perfbench/make_reference.py``.  Every answer a workload
produces is checked against it.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference_fronts.json")

#: The BML99 case studies, by gallery function name.
BML99 = {
    "modem": "modem",
    "samplerate": "sample_rate_converter",
    "satellite": "satellite_receiver",
}

#: Size slack above the lower-bound corner for the capped ``divide``
#: explorations: the values of ``SLACKS`` in
#: ``benchmarks/bench_probe_oracle.py``, copied so that retiring that
#: script cannot change this benchmark.
SLACKS = {"modem": 1, "samplerate": 3, "satellite": 1}

#: A front as compared: ``[(size, "p/q", [witness as sorted pairs])]``.
Canonical = list


def bml99_graph(name: str):
    from repro import gallery

    return getattr(gallery, BML99[name])()


def canonical(front) -> Canonical:
    """The comparable form of a ``ParetoFront``."""
    return [
        [
            point.size,
            str(point.throughput),
            sorted(sorted(dict(w).items()) for w in point.witnesses),
        ]
        for point in front
    ]


def as_json(front: Canonical) -> list:
    return [[size, thr, [dict(w) for w in ws]] for size, thr, ws in front]


def from_json(front: list) -> Canonical:
    return [[size, thr, sorted(sorted(w.items()) for w in ws)] for size, thr, ws in front]


def load_reference() -> dict[str, Canonical]:
    raw = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return {name: from_json(front) for name, front in raw["fronts"].items()}


def cut_at(front: Canonical, max_size: int) -> Canonical:
    """The points of *front* no larger than *max_size*."""
    return [point for point in front if point[0] <= max_size]


def draw_in(rng: random.Random, low: Fraction, high: Fraction) -> Fraction:
    """A seeded rational in ``(low, high]`` on a grid of 1000 steps."""
    return low + (high - low) * Fraction(rng.randint(1, 1000), 1000)


def segment_targets(rng: random.Random, front: Canonical) -> list[Fraction]:
    """One seeded target just below each Pareto point of *front*: in the
    top twentieth of the segment ``(thr[i-1], thr[i]]``, so that each
    point answers exactly one target.

    How much a constraint query explores depends on which point answers
    it and on how close the target lies to that point; drawing close to
    each point keeps the work of a run nearly the same for every seed.
    """
    targets = []
    previous = Fraction(0)
    for _size, throughput, _witnesses in front:
        level = Fraction(throughput)
        targets.append(draw_in(rng, level - (level - previous) / 20, level))
        previous = level
    return targets


def check_front(got: Canonical, want: Canonical, label: str) -> str | None:
    """``None`` when equal, else a one-line description of the mismatch."""
    if got == want:
        return None
    return f"{label}: front {[(s, t) for s, t, _ in got]} != reference {[(s, t) for s, t, _ in want]} (or witnesses differ)"


def check_constraint(
    target: Fraction, size: int | None, throughput: Fraction | None, reference: Canonical, label: str
) -> str | None:
    """A minimal-distribution answer must have the size of the cheapest
    reference point at or above *target*, and a throughput between the
    target and that point's (the sweep returns the first distribution of
    that size to reach the target, which need not be the best one)."""
    cheapest = next(
        (point for point in reference if Fraction(point[1]) >= target), None
    )
    if cheapest is None:
        return None if size is None else f"{label}: answered {size} for an unreachable target"
    if size != cheapest[0] or throughput is None:
        return f"{label}: target {target} answered size {size}, reference {cheapest[0]}"
    if not target <= throughput <= Fraction(cheapest[1]):
        return f"{label}: target {target} answered throughput {throughput}, outside [target, {cheapest[1]}]"
    return None


def check_window(
    got: Canonical, low: Fraction, high: Fraction, reference: Canonical, label: str
) -> str | None:
    """A throughput-window front keeps the reference points in
    ``[low, high)`` and then one point: the cheapest at or above
    *high*, whose throughput may stop short of that point's maximum."""
    below = [p for p in reference if low <= Fraction(p[1]) < high]
    if got[: len(below)] != below:
        return f"{label}: window [{low}, {high}) points differ from the reference"
    rest = got[len(below):]
    error = check_constraint(
        high,
        rest[0][0] if rest else None,
        Fraction(rest[0][1]) if rest else None,
        reference,
        label,
    )
    if error is None and len(rest) > 1:
        error = f"{label}: window kept {len(rest)} points at or above {high}"
    return error
