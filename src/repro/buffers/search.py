"""The paper's design-space search strategies (Sec. 9).

Two cooperating searches:

* **size dimension** — either a plain sweep over every size in
  ``[lb, ub]`` or the paper's divide-and-conquer: compute the maximal
  throughput at both interval ends; equal values mean (by monotonicity
  of throughput in capacity) that no Pareto point lies strictly
  inside, otherwise recurse on the halves;

* **throughput dimension** — for one size, find the maximal
  throughput over all distributions of that size.  The exact variant
  scans the full enumeration (early-exiting when the global maximum is
  reached); the quantised variant performs the paper's binary search
  over a throughput grid, where each probe only scans until *some*
  distribution reaches the threshold.

Both strategies take the run's
:class:`~repro.buffers.evalcache.EvaluationService` as their evaluator,
so a distribution is never simulated twice.  With workers configured,
the per-size scans fan their independent probes out to the worker pool
in enumeration-ordered waves, so results (including early exits and
witness selection) are bit-identical to the serial scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING
from collections.abc import Callable, Iterator, Mapping

from repro.buffers.distribution import StorageDistribution
from repro.buffers.enumerate import distributions_of_size
from repro.buffers.quantize import quantize_down
from repro.graph.graph import SDFGraph
from repro.runtime.telemetry import RunStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.buffers.evalcache import EvaluationService


@dataclass
class SizeProbe:
    """Maximal throughput found for one distribution size."""

    size: int
    throughput: Fraction
    witnesses: tuple[StorageDistribution, ...]
    exact: bool


class SizeSearch:
    """Throughput-dimension search for a fixed channel bound box."""

    def __init__(
        self,
        graph: SDFGraph,
        observe: str | None,
        lower: Mapping[str, int],
        upper: Mapping[str, int],
        evaluator: EvaluationService,
    ):
        self.graph = graph
        self.channels = graph.channel_names
        self.lower = dict(lower)
        self.upper = dict(upper)
        self.evaluator = evaluator

    def _cutter(self) -> Callable[[StorageDistribution, Fraction], bool] | None:
        """The evaluator's bounds-oracle cut test, if the oracle is on."""
        if self.evaluator.bounds_enabled:
            return self.evaluator.cuts_below
        return None

    def _serial(self) -> bool:
        """Whether the evaluator probes one distribution at a time."""
        return self.evaluator.workers <= 1

    def _scan(
        self,
        size: int,
        skip: Callable[[StorageDistribution], bool] | None = None,
    ) -> Iterator[tuple[StorageDistribution, Fraction]]:
        """Yield ``(distribution, throughput)`` in enumeration order.

        With a serial evaluator this is the serial loop.  With workers
        configured the enumeration is consumed in growing waves whose
        members are evaluated as one pooled batch; yielding still
        follows enumeration order, so callers that stop early (the
        ``stop_at`` exit, a threshold hit) make identical decisions
        either way — at most the tail of the current wave is evaluated
        ahead of need, and those results land in the shared cache
        rather than being lost.

        *skip* drops candidates without evaluating (or yielding) them —
        the bounds-oracle cut.  Serially it is consulted per candidate
        with the caller's freshest state; in wave mode at wave-build
        time, which is merely conservative (fewer cuts, same results).
        """
        generator = distributions_of_size(self.channels, size, self.lower, self.upper)
        if self._serial():
            for distribution in generator:
                if skip is not None and skip(distribution):
                    continue
                yield distribution, self.evaluator(distribution)
            return
        workers = self.evaluator.workers
        wave, cap = 4 * workers, 64 * workers
        while True:
            chunk = list(islice(generator, wave))
            if not chunk:
                return
            batch = chunk if skip is None else [d for d in chunk if not skip(d)]
            if batch:
                yield from zip(batch, self.evaluator.evaluate_many(batch))
            wave = min(2 * wave, cap)

    # -- exact scan -----------------------------------------------------
    def max_throughput_for_size(self, size: int, stop_at: Fraction | None = None) -> SizeProbe:
        """Exact maximum over all distributions of *size*.

        *stop_at* is an a-priori upper bound (the graph's maximal
        throughput); reaching it ends the scan early.
        """
        self.evaluator.telemetry.count("sizes_probed")
        best = Fraction(0)
        witnesses: list[StorageDistribution] = []
        cut = self._cutter()
        skip = None
        if cut is not None:
            # Strictly-below cut: a candidate provably below the running
            # best cannot become a witness (ties are never cut), so the
            # probe value and witness tuple are identical with or
            # without the oracle.
            def skip(distribution: StorageDistribution) -> bool:
                return best > 0 and cut(distribution, best)

        for distribution, value in self._scan(size, skip):
            if value > best:
                best = value
                witnesses = [distribution]
            elif value == best and value > 0:
                witnesses.append(distribution)
            if stop_at is not None and best >= stop_at:
                break
        return SizeProbe(size, best, tuple(witnesses), exact=True)

    def _promote(
        self, distribution: StorageDistribution, rotation: int = 0
    ) -> StorageDistribution | None:
        """*distribution* plus one token on one channel with headroom.

        The walk's seeding move: evaluating this superset either proves
        the candidate dominated (and its record covers the candidate's
        sibling candidates for oracle cuts) or costs one extra
        simulation.  *rotation* round-robins the chosen channel across
        promotions: a fixed channel choice makes consecutive slices
        shadow each other — every record one slice's promotions create
        is exactly a vector the next slice's promotions have already
        memoised, so no cut ever lands on a fresh candidate.  Rotating
        the channel spreads the records' dominance cones over the whole
        slice instead.
        """
        names = self.channels
        count = len(names)
        for offset in range(count):
            name = names[(rotation + offset) % count]
            if distribution[name] < self.upper[name]:
                return distribution.incremented(name)
        return None

    def ascending_probe(
        self, size: int, prev: Fraction, stop_at: Fraction | None = None
    ) -> SizeProbe:
        """Exact maximum at *size*, given the exact maximum *prev* of
        ``size - 1``.

        Monotonicity gives ``max(size) >= prev``, and any witness of
        this size merely tying a value already reached at a smaller
        size is dominated on the front.  Together these license a
        *non-strict* oracle cut against *prev* on top of the strict cut
        against the running best: a candidate provably ``<= prev``
        cannot change the probe value (which is at least *prev*) and
        cannot be a front witness.  The value returned is exact either
        way, and whenever it exceeds *prev* — the only case in which
        the probe can appear on the front — the witness tuple is the
        complete tie set, identical to the full scan's.

        When a candidate is not yet covered, its *promotion* (one token
        added, :meth:`_promote`) is evaluated first: a promoted result
        at or below *prev* settles the candidate for the same single
        simulation a direct evaluation would have cost, and its record
        additionally covers the candidate's remaining in-box neighbours
        below it, so later candidates fall to the oracle cut for free.
        A short failure budget disables promotion on slices where the
        level above carries mostly higher throughput.
        """
        cut = self._cutter()
        if cut is None:
            return self.max_throughput_for_size(size, stop_at)
        self.evaluator.telemetry.count("sizes_probed")
        best = Fraction(0)
        witnesses: list[StorageDistribution] = []

        def skip(distribution: StorageDistribution) -> bool:
            if cut(distribution, prev, strict=False):
                return True
            return best > prev and cut(distribution, best)

        if self._serial():
            peek = self.evaluator.cached_throughput
            promotions = 0
            failures = 0
            for distribution in distributions_of_size(
                self.channels, size, self.lower, self.upper
            ):
                value = peek(distribution)
                if value is None:
                    if skip(distribution):
                        continue
                    if failures <= 16 + promotions // 4:
                        grown = self._promote(distribution, promotions)
                        if grown is not None:
                            promotions += 1
                            above = self.evaluator(grown)
                            if above <= prev or above < best:
                                continue
                            failures += 1
                    value = self.evaluator(distribution)
                if value > best:
                    best = value
                    witnesses = [distribution]
                elif value == best and value > 0:
                    witnesses.append(distribution)
                if stop_at is not None and best >= stop_at:
                    break
        else:
            # The parallel wave path keeps its existing cut semantics;
            # promotion is a serial-scan refinement (it would serialise
            # the waves).
            for distribution, value in self._scan(size, skip):
                if value > best:
                    best = value
                    witnesses = [distribution]
                elif value == best and value > 0:
                    witnesses.append(distribution)
                if stop_at is not None and best >= stop_at:
                    break
        if best < prev:
            # Every candidate was either cut (provably <= prev) or
            # evaluated below prev, yet max(size) >= max(size-1): the
            # maximum is exactly prev, achieved only by cut candidates.
            # Such a probe is dominated by the smaller size's, so it
            # never reaches the front and needs no witnesses.
            return SizeProbe(size, prev, (), exact=True)
        return SizeProbe(size, best, tuple(witnesses), exact=True)

    # -- quantised binary search (the paper's formulation) ---------------
    def threshold_scan(self, size: int, threshold: Fraction) -> StorageDistribution | None:
        """First distribution of *size* with throughput >= *threshold*."""
        self.evaluator.telemetry.count("threshold_scans")
        cut = self._cutter()
        skip = None
        if cut is not None:
            # A candidate provably below the threshold can never be the
            # first to reach it, so skipping preserves the answer.
            def skip(distribution: StorageDistribution) -> bool:
                return cut(distribution, threshold)

        for distribution, value in self._scan(size, skip):
            if value >= threshold:
                return distribution
        return None

    def quantized_max_for_size(
        self,
        size: int,
        low: Fraction,
        high: Fraction,
        quantum: Fraction,
    ) -> SizeProbe:
        """Binary search over the throughput grid ``k * quantum``.

        *low* is a throughput known to be achievable at this size (0
        initially, or the value of a smaller size — the paper's
        incremental lower bound); *high* the maximal throughput of the
        graph.  Returns the best distribution found; its throughput is
        exact, and no distribution of this size exceeds it by a full
        quantum.
        """
        self.evaluator.telemetry.count("sizes_probed")
        best = low
        witness: StorageDistribution | None = None
        grid_low = quantize_down(best, quantum)
        grid_high = quantize_down(high, quantum)
        while grid_low < grid_high:
            middle = quantize_down(grid_low + (grid_high - grid_low + quantum) / 2, quantum)
            found = self.threshold_scan(size, middle)
            if found is not None:
                best = max(best, self.evaluator(found))
                witness = found
                grid_low = quantize_down(best, quantum)
                if best >= high:
                    break
            else:
                grid_high = middle - quantum
        witnesses = (witness,) if witness is not None else ()
        return SizeProbe(size, best, witnesses, exact=False)


def exhaustive_sweep(
    graph: SDFGraph,
    observe: str | None,
    lower: Mapping[str, int],
    upper: Mapping[str, int],
    max_throughput: Fraction,
    evaluator: EvaluationService,
    stop_early: bool = True,
) -> tuple[dict[int, SizeProbe], RunStats]:
    """Scan every size in ``[sz(lb), sz(ub)]``; stop once the maximum is hit.

    With ``stop_early`` disabled each size is scanned to completion, so
    every tied witness of the per-size maximum is collected (needed to
    exhibit non-unique minimal storage distributions, Fig. 6).
    """
    search = SizeSearch(graph, observe, lower, upper, evaluator)
    low_size = sum(lower.values())
    high_size = sum(upper.values())
    probes: dict[int, SizeProbe] = {}
    for size in range(low_size, high_size + 1):
        probe = search.max_throughput_for_size(
            size, stop_at=max_throughput if stop_early else None
        )
        probes[size] = probe
        if probe.throughput >= max_throughput:
            break
    return probes, evaluator.stats


def divide_and_conquer(
    graph: SDFGraph,
    observe: str | None,
    lower: Mapping[str, int],
    upper: Mapping[str, int],
    max_throughput: Fraction,
    evaluator: EvaluationService,
    quantum: Fraction | None = None,
) -> tuple[dict[int, SizeProbe], RunStats]:
    """The paper's strategy: recursive halving of the size interval.

    The maximal throughput is computed for both ends of the meaningful
    size interval; when they agree, monotonicity guarantees no Pareto
    point lies strictly inside and the interval is skipped.  With a
    *quantum*, the per-size search uses the quantised binary search in
    the throughput dimension, with the smaller size's result serving
    as the incremental lower bound (Sec. 9).
    """
    search = SizeSearch(graph, observe, lower, upper, evaluator)
    low_size = sum(lower.values())
    high_size = sum(upper.values())
    probes: dict[int, SizeProbe] = {}
    # With the bounds oracle on, the midpoint recursion is replaced by
    # an ascending walk: each size is scanned knowing the exact maximum
    # of the size below, which licenses the non-strict oracle cut and
    # promotion seeding of ascending_probe.  The walk stops at the
    # first size reaching the box maximum (all larger sizes are then
    # dominated by it).  Probe values are exact in both modes and the
    # minimal size of each throughput value carries its complete
    # witness tuple, so the resulting front is bit-identical.
    bounds_first = quantum is None and evaluator.bounds_enabled

    def probe(size: int, known_low: Fraction) -> SizeProbe:
        if size not in probes:
            if quantum is None:
                probes[size] = search.max_throughput_for_size(size, stop_at=max_throughput)
            else:
                probes[size] = search.quantized_max_for_size(size, known_low, max_throughput, quantum)
        return probes[size]

    if bounds_first:
        last = probe(high_size, Fraction(0))
        previous = probe(low_size, Fraction(0))
        for size in range(low_size + 1, high_size):
            if previous.throughput >= last.throughput:
                break
            previous = probes[size] = search.ascending_probe(
                size, previous.throughput, stop_at=max_throughput
            )
        return probes, evaluator.stats

    first = probe(low_size, Fraction(0))
    last = probe(high_size, first.throughput)

    def recurse(left: SizeProbe, right: SizeProbe) -> None:
        if right.size - left.size <= 1 or left.throughput == right.throughput:
            return
        middle_size = (left.size + right.size) // 2
        middle = probe(middle_size, left.throughput)
        recurse(left, middle)
        recurse(middle, right)

    recurse(first, last)
    return probes, evaluator.stats
