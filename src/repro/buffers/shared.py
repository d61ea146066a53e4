"""Shared buffer-layer primitives: dominance helpers and the
shared-memory storage model (the alternative model of Sec. 3).

Dominance
---------
Throughput is monotone non-decreasing under component-wise capacity
increase, so "vector ``a`` dominates vector ``b``" (``a >= b`` in every
component) is the ordering every exact acceleration in this package
rests on: the :class:`~repro.buffers.oracle.ThroughputBoundsOracle`
and the Pareto-front invariant.  :func:`dominates` /
:func:`strictly_dominates` are the one shared definition, and
:class:`DominanceFront` the oracle's bounded-antichain container.

Shared-memory model
-------------------
The paper sizes each channel separately — the right model when
channels cannot share memory (distributed memories, multiprocessors),
and a conservative bound otherwise.  Sec. 3 also describes the
single-memory alternative used by Murthy et al. [MB00]: all channels
share one memory and the requirement is the *maximum number of tokens
stored at the same time* during the execution.
:func:`shared_memory_requirement` measures that metric for a graph
under a storage distribution: the peak, over all time instants of the
transient and periodic phases, of the summed channel occupancy (stored
tokens plus output space claimed by running firings, consistent with
the claim-at-start semantics).  As the paper notes, the shared-memory
requirement never exceeds the distribution size; the gap quantifies
how much memory a shared implementation could save.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING
from collections.abc import Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.buffers.pareto import ParetoFront
    from repro.graph.graph import SDFGraph


def dominates(a: Sequence, b: Sequence) -> bool:
    """Component-wise ``a >= b`` (the monotonicity ordering)."""
    return all(x >= y for x, y in zip(a, b))


def strictly_dominates(a: Sequence, b: Sequence) -> bool:
    """Component-wise ``a > b`` in *every* coordinate.

    This is the Pareto-front invariant: each point must strictly beat
    its predecessor in both size and throughput.
    """
    return all(x > y for x, y in zip(a, b))


def shrunk_neighbours(vector: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All vectors exactly one token below *vector*.

    These are precisely the proper subsets of *vector* with total size
    ``sum(vector) - 1``: a vector ``w <= v`` with ``sum(w) == sum(v) - 1``
    must equal ``v`` minus one unit on one coordinate.
    """
    return [
        vector[:i] + (value - 1,) + vector[i + 1 :]
        for i, value in enumerate(vector)
        if value > 0
    ]


def grown_neighbours(vector: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All vectors exactly one token above *vector* (dual of
    :func:`shrunk_neighbours`)."""
    return [
        vector[:i] + (value + 1,) + vector[i + 1 :] for i, value in enumerate(vector)
    ]


class DominanceFront:
    """Bounded antichain of capacity vectors under dominance.

    ``keep="minimal"`` retains only vectors no other member is
    dominated by (the minimal elements — witnesses for "is something
    at or below this query?"); ``keep="maximal"`` the dual.  The cap of
    *limit* entries evicts the oldest member: evicting a witness only
    loses answer opportunities, never exactness.

    Entries are bucketed by total size, which turns the common access
    patterns of slice-by-slice scans into near-constant work: two
    vectors of equal total never dominate one another (so same-total
    inserts skip dominance checks entirely), and a vector relates to
    the adjacent total by exactly a one-coordinate step (so those
    checks are set lookups of the ``+-1`` neighbours instead of
    component-wise comparisons).  Only buckets two or more totals away
    fall back to :func:`dominates` scans.
    """

    __slots__ = ("keep", "limit", "_entries", "_buckets")

    def __init__(self, keep: str = "minimal", limit: int = 128):
        if keep not in ("minimal", "maximal"):
            raise ValueError(f"keep must be 'minimal' or 'maximal', not {keep!r}")
        self.keep = keep
        self.limit = max(1, int(limit))
        self._entries: list[tuple[int, tuple[int, ...]]] = []  # insertion order
        self._buckets: dict[int, set[tuple[int, ...]]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return (vector for _total, vector in self._entries)

    def _insert(self, total: int, vector: tuple[int, ...]) -> None:
        self._entries.append((total, vector))
        self._buckets.setdefault(total, set()).add(vector)

    def _remove(self, entry: tuple[int, tuple[int, ...]]) -> None:
        self._entries.remove(entry)
        total, vector = entry
        bucket = self._buckets[total]
        bucket.discard(vector)
        if not bucket:
            del self._buckets[total]

    def add(self, vector: tuple[int, ...]) -> bool:
        """Insert *vector*, keeping the antichain minimal/maximal.

        Returns whether the vector was actually added (an existing
        member already covering it makes the insert redundant).
        """
        vector = tuple(vector)
        total = sum(vector)
        bucket = self._buckets.get(total)
        if bucket is not None and vector in bucket:
            return False
        if self.keep == "minimal":
            if self._exists_le(vector, total):
                return False
            victims = self._covered(vector, total, above=True)
        else:
            if self._exists_ge(vector, total):
                return False
            victims = self._covered(vector, total, above=False)
        for entry in victims:
            self._remove(entry)
        self._insert(total, vector)
        if len(self._entries) > self.limit:
            self._remove(self._entries[0])
        return True

    def _exists_le(
        self,
        vector: tuple[int, ...],
        total: int,
        below: list[tuple[int, ...]] | None = None,
    ) -> bool:
        for t, bucket in self._buckets.items():
            if t > total:
                continue
            if t == total:
                if vector in bucket:
                    return True
            elif t == total - 1:
                if below is None:
                    below = shrunk_neighbours(vector)
                if any(neighbour in bucket for neighbour in below):
                    return True
            elif any(dominates(vector, w) for w in bucket):
                return True
        return False

    def _exists_ge(
        self,
        vector: tuple[int, ...],
        total: int,
        above: list[tuple[int, ...]] | None = None,
    ) -> bool:
        for t, bucket in self._buckets.items():
            if t < total:
                continue
            if t == total:
                if vector in bucket:
                    return True
            elif t == total + 1:
                if above is None:
                    above = grown_neighbours(vector)
                if any(neighbour in bucket for neighbour in above):
                    return True
            elif any(dominates(w, vector) for w in bucket):
                return True
        return False

    def _covered(
        self, vector: tuple[int, ...], total: int, above: bool
    ) -> list[tuple[int, tuple[int, ...]]]:
        """Members strictly dominated by (or dominating) *vector* —
        the entries a successful insert makes redundant."""
        victims: list[tuple[int, tuple[int, ...]]] = []
        if above:
            near = self._buckets.get(total + 1)
            if near:
                victims.extend(
                    (total + 1, n) for n in grown_neighbours(vector) if n in near
                )
            victims.extend(
                (t, w)
                for t, w in self._entries
                if t > total + 1 and dominates(w, vector)
            )
        else:
            near = self._buckets.get(total - 1)
            if near:
                victims.extend(
                    (total - 1, n) for n in shrunk_neighbours(vector) if n in near
                )
            victims.extend(
                (t, w)
                for t, w in self._entries
                if t < total - 1 and dominates(vector, w)
            )
        return victims

    def any_below(
        self,
        vector: tuple[int, ...],
        total: int | None = None,
        below: list[tuple[int, ...]] | None = None,
    ) -> bool:
        """Is some member dominated by *vector* (member ``<=`` query)?

        *below* optionally passes precomputed :func:`shrunk_neighbours`
        of the vector so repeated queries (one per level of the bounds
        oracle) build them once.
        """
        if total is None:
            total = sum(vector)
        return self._exists_le(vector, total, below)

    def any_above(
        self,
        vector: tuple[int, ...],
        total: int | None = None,
        above: list[tuple[int, ...]] | None = None,
    ) -> bool:
        """Is some member dominating *vector* (member ``>=`` query)?"""
        if total is None:
            total = sum(vector)
        return self._exists_ge(vector, total, above)


@dataclass(frozen=True)
class SharedMemoryReport:
    """Shared vs. distributed storage for one distribution."""

    distribution_size: int
    peak_shared_tokens: int
    throughput: Fraction

    @property
    def saving(self) -> int:
        """Tokens a single shared memory saves over per-channel memories."""
        return self.distribution_size - self.peak_shared_tokens


def shared_memory_requirement(
    graph: "SDFGraph",
    capacities: Mapping[str, int],
    observe: str | None = None,
) -> SharedMemoryReport:
    """Peak concurrent token storage under *capacities* (shared model)."""
    from repro.engine.executor import Executor

    result = Executor(graph, capacities, observe, track_occupancy=True).run()
    assert result.peak_shared_tokens is not None
    size = sum(capacities.values())
    return SharedMemoryReport(size, result.peak_shared_tokens, result.throughput)


def compare_storage_models(
    graph: "SDFGraph",
    front: "ParetoFront",
    observe: str | None = None,
) -> list[SharedMemoryReport]:
    """Shared-memory requirement of every Pareto point's witness.

    The returned reports parallel the front's points; each report's
    ``peak_shared_tokens`` is what a single shared memory would need to
    realise the same schedule that the per-channel distribution admits.
    """
    return [
        shared_memory_requirement(graph, point.distribution, observe)
        for point in front
    ]
