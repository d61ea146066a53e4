"""Order statistics and means with a sample floor.

A percentile is reported only when at least :data:`FLOOR` samples lie
beyond it: the median needs 20 samples, the 90th percentile 100.  Below
that the value is an order statistic of a handful of samples and moves
from run to run with nothing changed in the program.  A mean asks for
as many samples as the median.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

#: Samples that must lie beyond a reported percentile.
FLOOR = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of fewer samples than its floor."""


def min_samples(q: float) -> int:
    """Smallest sample count with :data:`FLOOR` samples beyond quantile *q*."""
    if not 0 < q < 1:
        raise ValueError("quantile must lie strictly between 0 and 1")
    # round() keeps 10 / 0.1 == 100.00000000000001 from becoming 101
    return math.ceil(round(FLOOR / (1 - q), 9))


def percentile(samples: Sequence[float], q: float) -> float:
    """Quantile *q* of *samples* (linear interpolation between order
    statistics); raises :class:`InsufficientSamples` below the floor."""
    needed = min_samples(q)
    if len(samples) < needed:
        raise InsufficientSamples(
            f"p{round(100 * q)} needs at least {needed} samples"
            f" ({FLOOR} beyond it), got {len(samples)}"
        )
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean of *samples*; raises :class:`InsufficientSamples`
    below the median's floor.

    A shared host can change speed by a third within a second.  A
    median of operations that differ a hundredfold in cost is the cost
    of the one or two operations in the middle, timed over a fraction of
    a second; the mean is their total time, which averages the host's
    speed over all of them.
    """
    needed = min_samples(0.5)
    if len(samples) < needed:
        raise InsufficientSamples(f"a mean needs at least {needed} samples, got {len(samples)}")
    return math.fsum(samples) / len(samples)
