"""Monotone throughput-bounds oracle over the dominance lattice.

Throughput is monotone non-decreasing under component-wise capacity
increase (Sec. 9 of the paper), so every recorded probe brackets an
entire dominance cone: a record ``(w, thr(w))`` proves

* ``thr(d) >= thr(w)`` for every query ``d >= w`` (a *floor* witness),
* ``thr(d) <= thr(w)`` for every query ``d <= w`` (a *ceiling*
  witness).

:class:`ThroughputBoundsOracle` indexes every observed evaluation
twice:

* an exact map ``vector -> throughput`` over *all* records.  Besides
  answering repeat queries for free, it makes the distance-1 cone
  checks constant-time: for a query ``d``, the strongest bounds
  available from the adjacent size slices come from the one-token
  neighbours ``d ± e_i`` — if any deeper record ``w >= d + e_i`` were
  recorded, monotonicity gives ``thr(d + e_i) <= thr(w)`` whenever the
  neighbour is recorded too, so looking the neighbours up directly
  captures those bounds in ``O(channels)`` hash probes.
* two level structures keyed by throughput value, covering records
  more than one slice away:

  - ``floor`` levels — per throughput ``t``, the *minimal* antichain
    of recorded vectors achieving ``t``.  The greatest level owning a
    witness at or below a query is the query's lower bound ``lo(d)``.
  - ``ceil`` levels — per throughput ``t``, the *maximal* antichain of
    recorded vectors achieving ``t``.  The smallest level owning a
    witness at or above the query, capped by the graph-wide throughput
    ceiling, is the upper bound ``hi(d)``.

Real explorations collapse thousands of records into very few distinct
throughput levels, so the level scans are short; the antichains bound
the per-level work.  A closed interval (``lo == hi``) is an exact,
free answer; an open one still cuts search branches: a scan looking
for something better than ``best`` can skip every candidate with
``hi < best`` without simulating (see
:meth:`ThroughputBoundsOracle.upper_below`).  Both uses are exact —
bounds derived from exact records via monotonicity never misclassify —
so fronts and witnesses are bit-identical with the oracle on or off.

The oracle serves ``config.bounds`` only: an
:class:`~repro.buffers.evalcache.EvaluationMemo` builds one from its
records on the first bounds query or cut and indexes every later
record, so a run without bounds indexes nothing.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction

from repro.buffers.shared import DominanceFront, grown_neighbours, shrunk_neighbours

_ZERO = Fraction(0)


class ThroughputBoundsOracle:
    """Interval bounds ``[lo(d), hi(d)]`` on unseen distributions.

    Parameters
    ----------
    limit:
        Cap per level antichain.  Eviction only loosens bounds (fewer
        witnesses), never exactness; the exact map is never evicted.
    ceiling:
        The graph's maximal throughput over all distributions, once
        known; caps every upper bound.  Assign :attr:`ceiling` later if
        it is discovered mid-run.
    """

    __slots__ = (
        "ceiling",
        "index",
        "_min_total",
        "_max_total",
        "_limit",
        "_floor",
        "_floor_levels",
        "_ceil",
        "_ceil_levels",
    )

    def __init__(self, *, limit: int = 128, ceiling: Fraction | None = None):
        self.ceiling = ceiling
        self.index: dict[tuple[int, ...], Fraction] = {}
        self._min_total: int | None = None
        self._max_total: int | None = None
        self._limit = max(1, int(limit))
        self._floor: dict[Fraction, DominanceFront] = {}
        self._floor_levels: list[Fraction] = []  # ascending; scanned reversed
        self._ceil: dict[Fraction, DominanceFront] = {}
        self._ceil_levels: list[Fraction] = []  # ascending

    def __len__(self) -> int:
        return len(self.index)

    @property
    def records(self) -> int:
        """Distinct evaluations indexed."""
        return len(self.index)

    @property
    def levels(self) -> int:
        """Distinct throughput values indexed (cost factor of a query)."""
        return len(self._ceil_levels)

    def observe(self, vector: tuple[int, ...], throughput: Fraction) -> None:
        """Index one exact evaluation result (idempotent per vector)."""
        if vector in self.index:
            return
        self.index[vector] = throughput
        total = sum(vector)
        if self._min_total is None or total < self._min_total:
            self._min_total = total
        if self._max_total is None or total > self._max_total:
            self._max_total = total
        if throughput > 0:
            front = self._floor.get(throughput)
            if front is None:
                front = self._floor[throughput] = DominanceFront("minimal", self._limit)
                insort(self._floor_levels, throughput)
            front.add(vector)
        front = self._ceil.get(throughput)
        if front is None:
            front = self._ceil[throughput] = DominanceFront("maximal", self._limit)
            insort(self._ceil_levels, throughput)
        front.add(vector)

    def widen(self, limit: int) -> None:
        """Raise the per-level antichain cap to *limit* (never lowers it).

        Applies to the levels already indexed and to those created
        later.  While at most *limit* records are indexed, no level
        evicts a member.
        """
        if limit <= self._limit:
            return
        self._limit = limit
        for fronts in (self._floor, self._ceil):
            for front in fronts.values():
                front.limit = limit

    def snapshot(self) -> dict:
        """Deterministic rendering of everything the oracle knows.

        Differential tests compare two runs' oracles for equality (the
        memo and the oracle must not depend on *how* probes ran — pooled
        or inline).  Fronts are rendered as sorted tuples:
        antichain membership is order-independent even though insertion
        order is not.
        """
        return {
            "index": dict(self.index),
            "floor": {
                level: tuple(sorted(self._floor[level]))
                for level in self._floor_levels
            },
            "ceil": {
                level: tuple(sorted(self._ceil[level]))
                for level in self._ceil_levels
            },
            "ceiling": self.ceiling,
        }

    # -- point queries on single levels ----------------------------------
    def floor_reaches(
        self, throughput: Fraction, vector: tuple[int, ...], total: int | None = None
    ) -> bool:
        """Is a recorded ``w <= vector`` with ``thr(w) == throughput`` known?"""
        front = self._floor.get(throughput)
        return front is not None and front.any_below(vector, total)

    def ceil_covers(
        self, throughput: Fraction, vector: tuple[int, ...], total: int | None = None
    ) -> bool:
        """Is a recorded ``w >= vector`` with ``thr(w) == throughput`` known?"""
        front = self._ceil.get(throughput)
        return front is not None and front.any_above(vector, total)

    # -- interval queries --------------------------------------------------
    def lower(self, vector: tuple[int, ...], total: int | None = None) -> Fraction:
        """Greatest recorded throughput provably reached by *vector*."""
        exact = self.index.get(vector)
        if exact is not None:
            return exact
        if total is None:
            total = sum(vector)
        # A strict sub-vector has a strictly smaller total, so nothing
        # at or below the smallest recorded slice can bound the query.
        if self._min_total is None or total <= self._min_total:
            return _ZERO
        best = _ZERO
        below = shrunk_neighbours(vector)
        for neighbour in below:
            throughput = self.index.get(neighbour)
            if throughput is not None and throughput > best:
                best = throughput
        for throughput in reversed(self._floor_levels):
            if throughput <= best:
                break
            if self._floor[throughput].any_below(vector, total, below):
                return throughput
        return best

    def upper(self, vector: tuple[int, ...], total: int | None = None) -> Fraction | None:
        """Least provable upper bound on *vector*'s throughput.

        ``None`` means unbounded — nothing recorded dominates the query
        and no ceiling is known yet.
        """
        exact = self.index.get(vector)
        if exact is not None:
            return exact
        if total is None:
            total = sum(vector)
        # A strict super-vector has a strictly larger total.
        if self._max_total is None or total >= self._max_total:
            return self.ceiling
        best = self.ceiling
        above = grown_neighbours(vector)
        for neighbour in above:
            throughput = self.index.get(neighbour)
            if throughput is not None and (best is None or throughput < best):
                best = throughput
        for throughput in self._ceil_levels:
            if best is not None and throughput >= best:
                break
            if self._ceil[throughput].any_above(vector, total, above):
                return throughput
        return best

    def interval(
        self, vector: tuple[int, ...], total: int | None = None
    ) -> tuple[Fraction, Fraction | None]:
        """The bracket ``[lo, hi]``; ``lo == hi`` is an exact free answer."""
        exact = self.index.get(vector)
        if exact is not None:
            return exact, exact
        if total is None:
            total = sum(vector)
        return self.lower(vector, total), self.upper(vector, total)

    def upper_below(
        self, vector: tuple[int, ...], bound: Fraction, strict: bool = True
    ) -> bool:
        """Provably ``thr(vector) < bound`` (or ``<= bound``) without
        simulating?

        This is the cut query of the per-size scans: a candidate whose
        upper bound already sits below the running best (or a threshold)
        cannot contribute a witness.  Cheaper than :meth:`upper` — the
        ascending level scan stops at *bound*.  With ``strict=False``
        the test is ``thr(vector) <= bound``, the form the ascending
        walk uses against the previous size's exact maximum, where ties
        are dominated rather than witnesses.
        """
        if self.ceiling is not None:
            if self.ceiling < bound or (not strict and self.ceiling == bound):
                return True
        exact = self.index.get(vector)
        if exact is not None:
            return exact < bound if strict else exact <= bound
        total = sum(vector)
        if self._max_total is None or total >= self._max_total:
            return False
        above = grown_neighbours(vector)
        for neighbour in above:
            throughput = self.index.get(neighbour)
            if throughput is not None and (
                throughput < bound or (not strict and throughput == bound)
            ):
                return True
        for throughput in self._ceil_levels:
            if throughput > bound or (strict and throughput == bound):
                break
            if self._ceil[throughput].any_above(vector, total, above):
                return True
        return False
