"""Shared evaluation service: exact memo cache, bounds oracle, fan-out.

Every exploration strategy ultimately reduces to throughput queries on
storage distributions, answered by a cold-start state-space execution.
:class:`EvaluationService` is the single funnel all strategies route
those queries through.  It layers three exact accelerations on top of
the raw probe backends of :mod:`repro.engine.backends`:

**Memo cache.**  Results are memoised under the canonical form of the
distribution (the capacity vector in the graph's channel order), so a
distribution is never executed twice — across strategies, across the
upper-bound probes of the explorer, across repeated queries.  The
records and the graph's maximal throughput live in one
:class:`EvaluationMemo`, which services may share (``memo=``).

**Bounds oracle (``config.bounds``).**  Throughput is monotone
non-decreasing under component-wise capacity increase (Sec. 9 of the
paper; property-tested in ``tests/properties``), so every record
bounds the throughput of the distributions it dominates or is
dominated by.  With ``config.bounds`` the memo indexes its records in
a :class:`~repro.buffers.oracle.ThroughputBoundsOracle`: a plain query
whose interval closes above zero is answered without a simulation
(``bounds_exact``), and scan loops skip candidates whose upper bound
cannot matter (``bounds_cut`` via :meth:`EvaluationService
.cuts_below`) — still exact, still front-identical.  The memo builds
that index from its records on the first such query, so a run without
``bounds`` indexes nothing.

**Parallel probing.**  Batch queries (``evaluate_many`` /
``evaluate_blocking_many``) resolve what the cache can answer and fan
the misses out to a :class:`~repro.engine.parallel.ParallelProber`
process pool.  ``workers=1`` is exactly today's serial path; results
are merged back in input order, so batch callers observe the same
deterministic sequence either way.

**One probe path.**  Every simulation the service runs is one
:func:`~repro.engine.backends.probe_batch` call, inline or as one task
of the worker pool, and every result becomes a memo record through one
helper.  Plain probes ask for no blocking data, blocking-aware probes
ask for it (``blocking=True``), pooled or not.  Plain inline probes run
on ``config.backend``; blocking-aware and pooled probes run on the
service's *blocking backend* — the selected backend when it has the
``"blocking"`` capability (every built-in SDF backend does), the
``"reference"`` backend otherwise.  Under ``backend="auto"``, a batch
that hits one of a kernel's resource limits reruns on ``fastcore``
(after ``cc``), then on ``"reference"``.  A CSDF graph runs every
probe on ``"reference"``, the one backend whose executor runs phase
tables.

**Run control.**  The service carries the run's
:class:`~repro.runtime.controller.RunController` and
:class:`~repro.runtime.telemetry.TelemetryHub` (built from its
:class:`~repro.runtime.config.ExplorationConfig`): every execution is
charged against the budget *before* it starts, so interruption lands on
a probe boundary and all recorded results stay exact; cache hits,
oracle answers and probe timings stream out as structured events, and
the hub is where every counter of the service lives:
:attr:`EvaluationService.stats` is a read-only rendering of it.
:meth:`EvaluationService.export_state` / ``restore_state`` round-trip
the memo (blocking records included) for the checkpoint/resume story of
:mod:`repro.runtime.checkpoint`, through the memo's one JSON form
(:meth:`EvaluationMemo.dump` / :meth:`EvaluationMemo.load`).

The differential test harness (``tests/properties/test_prop_evalcache
.py``) asserts that explorations through this service — cache on or
off, serial or parallel — return Pareto fronts identical to the plain
serial path, witnesses included.
"""

from __future__ import annotations

import threading
import time
from fractions import Fraction
from typing import Callable, NamedTuple
from collections.abc import Mapping, Sequence

from repro.buffers.distribution import StorageDistribution
from repro.buffers.oracle import ThroughputBoundsOracle
from repro.engine.backends import (
    EvalResult,
    ProbeBackend,
    auto_fallbacks,
    backend_for,
    probe_batch,
    resolve_backend,
)
from repro.engine.parallel import ParallelProber
from repro.exceptions import CapacityError, ExplorationError
from repro.graph.graph import SDFGraph
from repro.runtime.config import ExplorationConfig
from repro.runtime.controller import RunController
from repro.runtime.telemetry import RunStats, TelemetryHub

#: Default cap on each oracle level antichain; evicting old witnesses
#: only loosens bounds, never exactness.
_LEVEL_LIMIT = 128


class EvaluationRecord(NamedTuple):
    """Cached outcome of one distribution evaluation.

    ``space_blocked`` / ``space_deficits`` are ``None`` when the record
    was synthesised from a closed oracle interval (the throughput is
    exact, but no execution happened, so no blocking information
    exists).
    """

    throughput: Fraction
    states_stored: int
    space_blocked: frozenset[str] | None
    space_deficits: Mapping[str, int] | None

    @property
    def has_blocking(self) -> bool:
        return self.space_blocked is not None


class EvaluationMemo:
    """The exact evaluation records of one (graph, observe) pair.

    Holds the records keyed by capacity vector (in the graph's channel
    order) and the graph's maximal throughput (the ``ceiling``, once
    known), behind one lock.  Services on one memo share both:
    :class:`EvaluationService` builds a private memo unless it is handed
    one, and the analysis service hands each job its graph's live memo
    (:meth:`repro.service.registry.GraphRegistry.bank`).

    :attr:`lock` guards every read and write of :attr:`records` and
    :attr:`oracle`; a service takes it once per entry point and never
    holds it across a probe or a telemetry callback.  A full record (one
    with blocking data) is never replaced by a thin one.  :meth:`dump` /
    :meth:`load` are the memo's one JSON form.

    The records' :class:`~repro.buffers.oracle.ThroughputBoundsOracle`
    index serves ``config.bounds`` only: :attr:`oracle` builds it from
    the records, in insertion order, on first access, and :meth:`put`
    indexes every later record.  A memo that no ``bounds`` service reads
    indexes nothing.

    Parameters
    ----------
    limit:
        Cap on each oracle level antichain (see
        :class:`~repro.buffers.oracle.ThroughputBoundsOracle`).
    """

    def __init__(self, *, limit: int = _LEVEL_LIMIT):
        self.limit = max(1, int(limit))
        self.records: dict[tuple[int, ...], EvaluationRecord] = {}
        self.ceiling: Fraction | None = None
        self._oracle: ThroughputBoundsOracle | None = None
        self.lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.records)

    @property
    def oracle(self) -> ThroughputBoundsOracle:
        """The records' dominance index, built on first access (the
        caller holds :attr:`lock`)."""
        if self._oracle is None:
            self._oracle = ThroughputBoundsOracle(limit=self.limit, ceiling=self.ceiling)
            for vector, record in self.records.items():
                self._oracle.observe(vector, record.throughput)
        return self._oracle

    def set_ceiling(self, ceiling: Fraction) -> None:
        """Pin the graph's maximal throughput (exact, or the oracle's
        upper bounds are wrong)."""
        with self.lock:
            self._pin(ceiling)

    def _pin(self, ceiling: Fraction) -> None:
        self.ceiling = ceiling
        if self._oracle is not None:
            self._oracle.ceiling = ceiling

    def put(self, vector: tuple[int, ...], record: EvaluationRecord) -> EvaluationRecord:
        """Store *record* under *vector* and return the stored record.

        The caller holds :attr:`lock`.  A full record is never replaced
        by a thin one; an overwrite carries the same throughput, so only
        first insertions are indexed.
        """
        existing = self.records.get(vector)
        if existing is not None and existing.has_blocking:
            return existing
        self.records[vector] = record
        if existing is None and self._oracle is not None:
            self._oracle.observe(vector, record.throughput)
        return record

    def dump(self) -> dict:
        """JSON-ready ``{"ceiling", "memo"}``: every record with its
        blocking information, in insertion order."""
        with self.lock:
            ceiling = self.ceiling
            items = list(self.records.items())
        return {
            "ceiling": str(ceiling) if ceiling is not None else None,
            "memo": [
                {
                    "caps": list(vector),
                    "throughput": str(record.throughput),
                    "states": record.states_stored,
                    "blocked": (
                        sorted(record.space_blocked)
                        if record.space_blocked is not None
                        else None
                    ),
                    "deficits": (
                        dict(sorted(record.space_deficits.items()))
                        if record.space_deficits is not None
                        else None
                    ),
                }
                for vector, record in items
            ],
        }

    def load(self, state: Mapping, *, widen: bool = False) -> None:
        """Merge a :meth:`dump`-shaped payload into the memo.

        A ceiling in *state* is pinned (an absent one never unpins).
        With *widen*, the oracle's level cap (:attr:`limit`) first grows
        by the number of records loaded, so no loaded record is evicted
        from its level, whether the oracle is built yet or not.
        """
        records = [
            (
                tuple(int(cap) for cap in entry["caps"]),
                EvaluationRecord(
                    Fraction(entry["throughput"]),
                    int(entry.get("states", 0)),
                    frozenset(entry["blocked"]) if entry.get("blocked") is not None else None,
                    {name: int(value) for name, value in entry["deficits"].items()}
                    if entry.get("deficits") is not None
                    else None,
                ),
            )
            for entry in state.get("memo", ())
        ]
        ceiling = state.get("ceiling")
        with self.lock:
            if ceiling is not None:
                self._pin(Fraction(ceiling))
            if widen:
                self.limit += len(records)
                if self._oracle is not None:
                    self._oracle.widen(self.limit)
            for vector, record in records:
                self.put(vector, record)


class EvaluationService:
    """Memoising, optionally parallel throughput oracle.

    Callable on a distribution, with ``.stats`` and ``.evaluations``,
    plus batch and blocking-aware entry points for the strategies that
    need them.  *graph* is an SDF graph or a CSDF graph; every probe of
    a CSDF graph runs on the reference backend, whatever
    ``config.backend`` names.

    Parameters
    ----------
    config:
        The :class:`~repro.runtime.config.ExplorationConfig` governing
        this service: ``backend`` / ``workers`` / ``cache`` select the
        probe backend, pool size and memoisation; ``budget`` and
        ``on_event`` wire the service's :class:`~repro.runtime
        .controller.RunController` and :class:`~repro.runtime
        .telemetry.TelemetryHub`; ``probe_timeout`` is the worker
        pool's per-probe watchdog; ``bounds`` arms the bounds oracle.
        The ``evaluator`` field must be unset — a service cannot wrap
        another service.
    memo:
        The :class:`EvaluationMemo` to read and extend — shared with
        every other service on it.  It must hold records of this graph
        and observed actor only.  By default the service builds a
        private memo.
    """

    def __init__(
        self,
        graph: SDFGraph,
        observe: str | None = None,
        *,
        config: ExplorationConfig | None = None,
        memo: EvaluationMemo | None = None,
    ):
        config = config if config is not None else ExplorationConfig()
        if config.evaluator is not None:
            raise ExplorationError(
                "EvaluationService cannot be built from a config carrying an"
                " evaluator; use that service directly"
            )
        self.graph = graph
        self.observe = observe if observe is not None else graph.actor_names[-1]
        self.config = config
        self.workers = max(1, int(config.workers))
        self.cache_enabled = bool(config.cache)
        self.telemetry = TelemetryHub(config.on_event)
        self.telemetry.peak("workers", self.workers)
        self.controller = RunController(config.budget, self.telemetry)
        # Config validation already rejected unknown names and
        # unavailable explicit backends at construction; "auto" picks
        # the best one available on this host.  No compiled kernel runs
        # CSDF: every probe of a CSDF graph runs on the reference backend.
        self.backend_name = (
            resolve_backend(config.backend) if isinstance(graph, SDFGraph) else "reference"
        )
        self._backend: ProbeBackend = backend_for(self.backend_name)
        # Blocking-aware and pooled probes need per-channel
        # space-blocking data.
        self._blocking_backend: ProbeBackend = (
            self._backend
            if "blocking" in self._backend.capabilities
            else backend_for("reference")
        )
        # "auto" trades speed only: a batch past a kernel's limits reruns
        # on fastcore, then on the reference executor.  Explicit "cc" and
        # "fastcore" raise KernelLimitError.
        self._fallbacks: tuple[ProbeBackend, ...] = (
            auto_fallbacks(self.backend_name) if config.backend == "auto" else ()
        )
        self._order = graph.channel_names
        self.memo = memo if memo is not None else EvaluationMemo()
        # The memo's records, read and written under its lock.
        self._memo = self.memo.records
        self.bounds_enabled = bool(config.bounds) and self.cache_enabled
        self._prober: ParallelProber | None = None

    @property
    def ceiling(self) -> Fraction | None:
        """The graph's maximal throughput once pinned (kept by the memo)."""
        return self.memo.ceiling

    # -- canonical keys ---------------------------------------------------
    def _vector(self, distribution: Mapping[str, int]) -> tuple[int, ...]:
        try:
            return tuple(distribution[name] for name in self._order)
        except KeyError as missing:
            raise CapacityError(
                f"distribution misses channel {missing.args[0]!r} of graph {self.graph.name!r}"
            ) from None

    # -- throughput queries ----------------------------------------------
    def __call__(self, distribution: StorageDistribution) -> Fraction:
        """Exact throughput of *distribution* (0 on deadlock)."""
        vector = self._vector(distribution)
        if self.cache_enabled:
            with self.memo.lock:
                record, how = self._consult(vector, plain=True)
            if record is not None:
                self._announce(how, record, vector)
                return record.throughput
        return self._execute(distribution, vector, blocking=False).throughput

    def cached_throughput(self, distribution: StorageDistribution) -> Fraction | None:
        """Memoised throughput of *distribution*, or ``None`` — never
        evaluates.

        The ascending walk peeks before deciding how to settle a
        candidate: a memoised one is a free exact answer and needs
        neither a cut check nor a promotion.  Accounting matches
        :meth:`__call__` on a hit (the cache-hit counter), so enabling
        the walk changes no hit statistics.
        """
        vector = self._vector(distribution)
        if not self.cache_enabled:
            return None
        with self.memo.lock:
            record = self._memo.get(vector)
        if record is None:
            return None
        self.telemetry.emit("cache_hit", size=sum(vector))
        return record.throughput

    def evaluate_many(self, distributions: Sequence[StorageDistribution]) -> list[Fraction]:
        """Throughputs of a batch of independent distributions.

        The memo and the oracle answer what they can; the remaining
        misses go through the process pool (``workers > 1``) or run
        inline.  Results come back in input order.
        """
        records = self._resolve_batch(distributions, blocking=False)
        return [record.throughput for record in records]

    # -- blocking-aware queries (dependency-guided sweep) ------------------
    def evaluate_blocking(
        self,
        distribution: StorageDistribution,
        reached: Callable[[Fraction], bool] | None = None,
    ) -> EvaluationRecord:
        """Evaluation record including space-blocking information.

        *reached* tells the service which throughputs make blocking
        information unnecessary (the sweep never expands a distribution
        that already reached its target): for such values a cached
        record without blocking data may be returned; otherwise an
        execution is performed to obtain it.
        """
        return self._resolve_batch([distribution], blocking=True, reached=reached)[0]

    def evaluate_blocking_many(
        self,
        distributions: Sequence[StorageDistribution],
        reached: Callable[[Fraction], bool] | None = None,
    ) -> list[EvaluationRecord]:
        """Batch variant of :meth:`evaluate_blocking` (input order)."""
        return self._resolve_batch(distributions, blocking=True, reached=reached)

    # -- batch resolution --------------------------------------------------
    def _resolve_batch(
        self,
        distributions: Sequence[StorageDistribution],
        *,
        blocking: bool,
        reached: Callable[[Fraction], bool] | None = None,
    ) -> list[EvaluationRecord]:
        def usable(record: EvaluationRecord) -> bool:
            if not blocking or record.has_blocking:
                return True
            return reached is not None and reached(record.throughput)

        vectors = [self._vector(distribution) for distribution in distributions]
        found: list[tuple[EvaluationRecord | None, str | None]] = [(None, None)] * len(vectors)
        if self.cache_enabled:
            with self.memo.lock:
                found = [self._consult(vector, plain=not blocking) for vector in vectors]
        records: list[EvaluationRecord | None] = [None] * len(vectors)
        misses: list[tuple[int, StorageDistribution, tuple[int, ...]]] = []
        for index, (distribution, vector, (record, how)) in enumerate(
            zip(distributions, vectors, found)
        ):
            if record is not None:
                self._announce(how, record, vector)
                if usable(record):
                    records[index] = record
                    continue
            misses.append((index, distribution, vector))

        if misses:
            pooled = (
                self.workers > 1 and len(misses) > 1 and self.controller.allows(len(misses))
            )
            if pooled:
                # One budget charge for the whole fan-out; the
                # controller rejected it above if it would overdraw, in
                # which case the inline path below spends what is left
                # one probe at a time.
                self.controller.before_probes(len(misses))
                hub = self.telemetry
                for _, _, vector in misses:
                    hub.emit("probe_start", size=sum(vector), blocking=blocking)
                prober = self._ensure_prober()
                if "compiled" in prober.backend.capabilities:
                    hub.count("fast_runs", len(misses))
                results = prober.map([dict(d) for _, d, _ in misses], blocking=blocking)
                fresh = []
                for (_, _, vector), result in zip(misses, results):
                    record = self._record(result)
                    hub.emit("probe_finish", size=sum(vector), throughput=str(record.throughput))
                    fresh.append((vector, record))
                for (index, _, _), record in zip(misses, self._store(fresh)):
                    records[index] = record
            else:
                for index, distribution, vector in misses:
                    records[index] = self._execute(distribution, vector, blocking=blocking)
        return records  # type: ignore[return-value]  # every slot filled above

    # -- cache internals ----------------------------------------------------
    def _consult(
        self, vector: tuple[int, ...], *, plain: bool
    ) -> tuple[EvaluationRecord | None, str | None]:
        """The memo's answer for *vector*: ``(record, how)``, where *how*
        is ``"cache_hit"`` or ``"bounds_exact"``, or ``(None, None)``.

        Under ``config.bounds`` a *plain* query (one that needs no
        blocking data) whose oracle interval closes above zero is
        answered exactly without a simulation.  The caller holds the
        memo lock; such an answer is stored in the memo before the lock
        is released.
        """
        record = self._memo.get(vector)
        if record is not None:
            return record, "cache_hit"
        if plain and self.bounds_enabled:
            low, high = self.memo.oracle.interval(vector)
            if high is not None and low == high and low > 0:
                return self.memo.put(vector, EvaluationRecord(low, 0, None, None)), "bounds_exact"
        return None, None

    def _announce(self, how: str, record: EvaluationRecord, vector: tuple[int, ...]) -> None:
        """Emit what :meth:`_consult` answered (lock released)."""
        if how == "cache_hit":
            self.telemetry.emit("cache_hit", size=sum(vector))
        else:
            self.telemetry.emit(
                "bounds_exact", size=sum(vector), throughput=str(record.throughput)
            )

    def cuts_below(
        self, distribution: StorageDistribution, bound: Fraction, strict: bool = True
    ) -> bool:
        """Whether *distribution* provably has throughput below *bound*.

        Scan loops use this to skip candidates that cannot improve on a
        running best (``max_throughput_for_size``) or reach a threshold
        (``threshold_scan``).  Only an oracle *upper* bound strictly
        below *bound* answers ``True``, so a cut never drops a would-be
        witness: ties (throughput exactly equal to the running best)
        are never cut.  With ``strict=False`` the test is ``<= bound``
        — the ascending walk's cut against the previous size's exact
        maximum, where a tie is dominated by the smaller size's witness
        and so still cannot matter.  Cut distributions are not stored
        in the memo — they are indistinguishable from never having been
        scanned, which keeps budget-interrupted partial results exact.
        """
        if not self.bounds_enabled or (bound <= 0 if strict else bound < 0):
            return False
        vector = self._vector(distribution)
        with self.memo.lock:
            # A real record answers cheaper and counts as a hit.
            cut = vector not in self._memo and self.memo.oracle.upper_below(vector, bound, strict)
        if cut:
            self.telemetry.emit("bounds_cut", size=sum(vector))
        return cut

    def _execute(
        self,
        distribution: StorageDistribution,
        vector: tuple[int, ...],
        *,
        blocking: bool = True,
    ) -> EvaluationRecord:
        backend = self._blocking_backend if blocking else self._backend
        self.controller.before_probes(1)
        size = sum(vector)
        self.telemetry.emit("probe_start", size=size, blocking=blocking)
        if "compiled" in backend.capabilities:
            self.telemetry.count("fast_runs")
        probe_started = time.perf_counter()
        result = probe_batch(
            backend,
            self.graph,
            [dict(distribution)],
            self.observe,
            blocking=blocking,
            fallbacks=self._fallbacks,
        )[0]
        record = self._record(result)
        duration = time.perf_counter() - probe_started
        self.telemetry.record_time("probe", duration)
        self.telemetry.emit(
            "probe_finish",
            size=size,
            throughput=str(record.throughput),
            duration_s=duration,
        )
        return self._store([(vector, record)])[0]

    def _store(
        self, fresh: list[tuple[tuple[int, ...], EvaluationRecord]]
    ) -> list[EvaluationRecord]:
        """Memoise probe results (one lock for the lot); returns the
        records the memo holds for them."""
        if not self.cache_enabled:
            return [record for _, record in fresh]
        with self.memo.lock:
            return [self.memo.put(vector, record) for vector, record in fresh]

    def _record(self, result: EvalResult) -> EvaluationRecord:
        """The memo record of one backend result (tracks the state-space peak)."""
        self.telemetry.peak("max_states_stored", result.states_stored)
        return EvaluationRecord(
            result.throughput,
            result.states_stored,
            result.space_blocked,
            dict(result.space_deficits) if result.space_deficits is not None else None,
        )

    # -- lifecycle / introspection ------------------------------------------
    def set_ceiling(self, ceiling: Fraction) -> None:
        """Pin the graph's maximal throughput (exact): it caps the
        oracle's upper bounds, and a constraint query on the same memo
        reads it instead of recomputing it.  The ceiling is the memo's,
        so every service on the memo sees it."""
        self.memo.set_ceiling(ceiling)

    def _ensure_prober(self) -> ParallelProber:
        if self._prober is None:
            self._prober = ParallelProber(
                self.graph,
                self.observe,
                self._blocking_backend,
                self.workers,
                probe_timeout=self.config.probe_timeout,
                fallbacks=self._fallbacks,
                telemetry=self.telemetry,
            )
        return self._prober

    @property
    def stats(self) -> RunStats:
        """This service's counters, read from its hub (pool health
        included, so an inline fallback never degrades silently)."""
        return self.telemetry.stats()

    @property
    def evaluations(self) -> dict[StorageDistribution, Fraction]:
        """All known distributions with their throughputs (cache dump)."""
        with self.memo.lock:
            known = [(vector, record.throughput) for vector, record in self._memo.items()]
        order = self._order
        return {
            StorageDistribution(dict(zip(order, vector))): throughput
            for vector, throughput in known
        }

    @property
    def cache_size(self) -> int:
        return len(self._memo)

    # -- checkpoint support ---------------------------------------------
    def export_state(self) -> dict:
        """JSON-ready snapshot of the memo cache, ceiling and stats.

        The payload feeds :mod:`repro.runtime.checkpoint`; every record
        keeps its blocking information, so a restored service can serve
        the dependency-guided sweep without re-executing anything.
        """
        memo = self.memo.dump()
        return {
            "channels": list(self._order),
            "ceiling": memo["ceiling"],
            "memo": memo["memo"],
            "stats": self.stats._asdict(),
        }

    def restore_state(self, state: Mapping) -> None:
        """Load an :meth:`export_state` payload into this service.

        The ceiling is installed with the records; stats counters resume
        cumulatively (a resumed run reports the total cost across all
        its legs).
        """
        if not self.cache_enabled:
            raise ExplorationError("restore_state requires the memo cache (cache=True)")
        # Scan cuts are the only oracle decisions that leave no memo
        # record, so a resumed run retraces the original's cuts only if
        # the restored oracle is at least as strong as the original was
        # at every point of its run.  The level caps evict the oldest
        # members, and the original may have cut with a record its
        # final antichains no longer hold: restoring without eviction
        # keeps the bounds of every restored record.
        self.memo.load(state, widen=self.bounds_enabled)
        restored = state.get("stats")
        if restored:
            self.telemetry.carry(restored)

    def close(self) -> None:
        """Release the worker pool, if one was created (idempotent)."""
        if self._prober is not None:
            self._prober.close()
            self._prober = None

    def __enter__(self) -> "EvaluationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
