"""Public design-space exploration API (Secs. 8-9 of the paper).

:func:`explore_design_space` charts the complete Pareto space of
storage size vs. throughput for a consistent SDF or CSDF graph, using
one of three strategies:

* ``"dependency"`` (default) — storage-dependency-guided sweep; exact
  and usually the cheapest by far;
* ``"divide"`` — the paper's divide-and-conquer over the size axis
  (optionally with quantised binary search in the throughput axis);
* ``"exhaustive"`` — plain scan of every size in the bound interval.

All strategies return the same Pareto front (a property-tested
invariant); they differ only in how much of the design space they must
evaluate.

A :class:`~repro.csdf.graph.CSDFGraph` is an ordinary input: only its
consistency check, bound box and maximal throughput differ
(:func:`~repro.buffers.frontier.graph_model`), and its probes run on
the reference backend.  Everything else — memo, budgets, checkpoints,
telemetry, workers and the bounds oracle — is shared.

Long runs are governed by the run controller of :mod:`repro.runtime`:
an :class:`~repro.runtime.config.ExplorationConfig` carries budgets,
checkpointing and telemetry, a tripped budget yields a *partial*
:class:`DesignSpaceResult` (``complete=False``) with a resume token,
and ``resume=`` continues a previous run by deterministic replay over
its exact memo cache — provably reaching the identical front an
uninterrupted run would have produced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import TYPE_CHECKING
from collections.abc import Iterable, Mapping

from repro.buffers.dependencies import dependency_sweep, find_minimal_distribution
from repro.buffers.distribution import StorageDistribution
from repro.buffers.enumerate import count_distributions_of_size
from repro.buffers.evalcache import EvaluationService
from repro.buffers.frontier import graph_model
from repro.buffers.pareto import ParetoFront, ParetoPoint
from repro.buffers.quantize import thin_front
from repro.buffers.search import SizeProbe, divide_and_conquer, exhaustive_sweep
from repro.exceptions import BudgetExhausted, ExplorationError, ParseError
from repro.graph.graph import SDFGraph
from repro.runtime.checkpoint import (
    ResumeToken,
    build_token,
    coerce_resume,
    restore_service,
    save_checkpoint,
)
from repro.runtime.config import ExplorationConfig
from repro.runtime.telemetry import TelemetryHub

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.csdf.graph import CSDFGraph
    from repro.sadf.graph import SADFGraph

_STRATEGIES = ("dependency", "divide", "exhaustive")

#: Version stamped into every serialised :class:`DesignSpaceResult`
#: (``io/frontjson`` documents, ``--output-json``, service job
#: payloads).  Readers reject any other version explicitly instead of
#: failing on whatever key happens to be missing.
RESULT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExplorationStats:
    """Cost metrics of one design-space exploration (:meth:`from_hub`)."""

    strategy: str
    evaluations: int
    max_states_stored: int
    wall_time_s: float
    sizes_probed: int = 0
    search_space: int | None = None
    cache_hits: int = 0
    workers: int = 1
    parallel_batches: int = 0
    pool_restarts: int = 0
    pool_fallback_reason: str | None = None
    bounds_exact: int = 0
    bounds_cut: int = 0
    backend: str | None = None

    def to_dict(self) -> dict:
        """All counters as a JSON-ready dict."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExplorationStats":
        """Inverse of :meth:`to_dict` (unknown keys ignored)."""
        known = {field.name for field in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})

    @classmethod
    def from_hub(cls, hub: TelemetryHub, **run: object) -> "ExplorationStats":
        """The counts of *hub* plus the *run*'s ``strategy``,
        ``wall_time_s``, ``backend`` and ``search_space``."""
        known = {field.name for field in fields(cls)}
        counts = hub.stats()._asdict().items()
        return cls(**{name: value for name, value in counts if name in known}, **run)


@dataclass(frozen=True)
class DesignSpaceResult:
    """Outcome of :func:`explore_design_space`.

    ``front`` holds the Pareto points (minimal storage
    distributions); ``lower_bounds`` / ``upper_bounds`` the Fig. 7 box
    that delimited the search; ``max_throughput`` the maximal
    achievable throughput of the graph.

    ``complete`` is ``False`` when a budget or cancellation interrupted
    the run; ``exhausted`` then names the tripped limit
    (``"deadline"``, ``"probes"`` or ``"cancelled"``), ``front`` is the
    exact Pareto front *of everything evaluated so far* (every point is
    a true evaluation; none dominates another), and ``resume_token``
    continues the run — pass it (or a checkpoint file written from it)
    as ``resume=`` to :func:`explore_design_space`.
    """

    graph_name: str
    observe: str
    front: ParetoFront
    stats: ExplorationStats
    lower_bounds: StorageDistribution
    upper_bounds: StorageDistribution
    max_throughput: Fraction
    complete: bool = True
    exhausted: str | None = None
    resume_token: ResumeToken | None = None
    telemetry: Mapping | None = None

    def to_dict(self) -> dict:
        """JSON-ready rendering — the one schema shared with
        ``io/frontjson``, checkpoints and the CLI's ``--output-json``.

        The resume token and telemetry snapshot are *not* embedded
        (checkpoints have their own file; telemetry its own flag).
        """
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "graph": self.graph_name,
            "observe": self.observe,
            "complete": self.complete,
            "exhausted": self.exhausted,
            "max_throughput": str(self.max_throughput),
            "lower_bounds": dict(self.lower_bounds),
            "upper_bounds": dict(self.upper_bounds),
            "pareto_front": self.front.to_dicts(),
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "DesignSpaceResult":
        """Inverse of :meth:`to_dict`.

        Documents without a ``"schema"`` field (written before the
        field existed) are read as version 1; any other version is
        rejected with a :class:`~repro.exceptions.ParseError`.
        """
        version = data.get("schema", RESULT_SCHEMA_VERSION)
        if version != RESULT_SCHEMA_VERSION:
            raise ParseError(
                f"unsupported result schema version {version!r}; this build"
                f" reads version {RESULT_SCHEMA_VERSION}"
            )
        return cls(
            graph_name=data["graph"],
            observe=data["observe"],
            front=ParetoFront.from_dicts(data["pareto_front"]),
            stats=ExplorationStats.from_dict(data["stats"]),
            lower_bounds=StorageDistribution(
                {name: int(cap) for name, cap in data["lower_bounds"].items()}
            ),
            upper_bounds=StorageDistribution(
                {name: int(cap) for name, cap in data["upper_bounds"].items()}
            ),
            max_throughput=Fraction(data["max_throughput"]),
            complete=bool(data.get("complete", True)),
            exhausted=data.get("exhausted"),
        )

    def summary(self) -> str:
        """Short human-readable report."""
        lines = [
            f"design space of {self.graph_name!r} (observing {self.observe!r})",
            f"  size bounds: [{self.lower_bounds.size}, {self.upper_bounds.size}]",
            f"  maximal throughput: {self.max_throughput}",
            f"  Pareto points: {len(self.front)}",
        ]
        for point in self.front:
            lines.append(f"    {point}")
        lines.append(
            f"  cost: {self.stats.evaluations} evaluations,"
            f" max {self.stats.max_states_stored} states,"
            f" {self.stats.wall_time_s:.3f}s ({self.stats.strategy})"
        )
        lines.append(
            f"  cache: {self.stats.cache_hits} hits,"
            f" {self.stats.workers} worker(s),"
            f" {self.stats.parallel_batches} parallel batches"
        )
        if self.stats.bounds_exact or self.stats.bounds_cut:
            lines.append(
                f"  bounds oracle: {self.stats.bounds_exact} exact answers,"
                f" {self.stats.bounds_cut} probes cut"
            )
        if not self.complete:
            lines.append(
                f"  INCOMPLETE: budget exhausted ({self.exhausted});"
                " resume from the checkpoint / resume token to continue"
            )
        if self.stats.pool_fallback_reason:
            lines.append(
                f"  worker pool degraded to inline: {self.stats.pool_fallback_reason}"
            )
        return "\n".join(lines)


def explore_design_space(
    graph: "SDFGraph | CSDFGraph",
    observe: str | None = None,
    *,
    strategy: str = "dependency",
    quantum: Fraction | None = None,
    max_size: int | None = None,
    throughput_bounds: tuple[Fraction | None, Fraction | None] | None = None,
    token_sizes: Mapping[str, int] | None = None,
    count_search_space: bool = False,
    collect_all_witnesses: bool = False,
    config: ExplorationConfig | None = None,
    resume: "ResumeToken | Mapping | str | None" = None,
) -> DesignSpaceResult:
    """Chart the full storage/throughput Pareto space of *graph*, an
    SDF or a CSDF graph.

    Parameters
    ----------
    observe:
        Actor whose throughput defines the vertical axis; defaults to
        the last actor.
    strategy:
        ``"dependency"``, ``"divide"`` or ``"exhaustive"``.
    quantum:
        Optional throughput quantisation (the paper's H.263 trick):
        with the ``"divide"`` strategy the binary search probes only
        grid multiples, and for every strategy the resulting front is
        thinned to one point per reached grid level.
    max_size:
        Restrict the exploration to distributions of at most this
        size (partial Pareto space, as supported by the paper's tool).
    throughput_bounds:
        Optional ``(low, high)`` throughput window (either end may be
        ``None``), the second partial-space control of the paper's
        tool.  Points below ``low`` are dropped; the search stops once
        ``high`` is reached, and the front keeps the cheapest point at
        or above it.
    token_sizes:
        Optional per-channel token weights: the size axis becomes the
        weighted memory cost ``sum(capacity * weight)`` (weights
        default to 1, so tokens of different widths are accounted
        correctly).  Supported by the ``"dependency"`` strategy only;
        ``max_size`` is then a weighted cap.
    count_search_space:
        Also compute how many distributions lie in the bound box (the
        paper's complexity discussion); needs only a cheap dynamic
        program but is off by default.
    collect_all_witnesses:
        Only meaningful with the ``"exhaustive"`` strategy: scan every
        size to completion so that Pareto points list *every* tied
        minimal distribution (the paper's Fig. 6 non-uniqueness); by
        default scans stop as soon as the maximal throughput is found.
    config:
        The run's :class:`~repro.runtime.config.ExplorationConfig` —
        backend, workers, cache, a shared evaluator, budgets, a
        checkpoint path and the telemetry callback.  A tripped budget
        returns a partial result (``complete=False`` + resume token)
        instead of raising; with ``config.checkpoint`` set, the
        checkpoint JSON is (re)written at the end of every run.
    resume:
        A :class:`~repro.runtime.checkpoint.ResumeToken`, checkpoint
        payload mapping or checkpoint file path from a previous run of
        the *same graph* observing the same actor (checked, with the
        format, by :func:`~repro.runtime.checkpoint.restore_service`).
        The banked memo cache is restored and the strategy replayed
        over it deterministically, which provably yields the identical
        front an uninterrupted run produces.
    """
    model = graph_model(graph)
    model.check()
    config = config if config is not None else ExplorationConfig()
    if strategy not in _STRATEGIES:
        raise ExplorationError(f"unknown strategy {strategy!r}; pick one of {_STRATEGIES}")
    if token_sizes is not None and strategy != "dependency":
        raise ExplorationError("token_sizes are supported by the 'dependency' strategy only")
    if token_sizes is not None and any(weight < 1 for weight in token_sizes.values()):
        raise ExplorationError("token sizes must be positive")
    if observe is None:
        observe = graph.actor_names[-1]

    lower = model.lower()
    upper = model.upper()
    started = time.perf_counter()

    owns_service = config.evaluator is None
    service = (
        config.evaluator
        if config.evaluator is not None
        else EvaluationService(graph, observe, config=config.replaced(evaluator=None))
    )
    service.telemetry.emit(
        "run_start", graph=graph.name, observe=observe, strategy=strategy
    )
    if resume is not None:
        restore_service(coerce_resume(resume), service, graph, observe, service.telemetry)

    exhausted: str | None = None
    max_thr: Fraction | None = None
    front: ParetoFront | None = None
    pending: tuple[StorageDistribution, ...] = ()
    low_bound: Fraction | None = None
    high_bound: Fraction | None = None
    try:
        # Sec. 9 takes the throughput at the [GGD02] upper bound as the
        # maximal achievable throughput of the graph.  That bound can
        # fall short on some graphs (see buffers.bounds), so the
        # maximum is computed independently and the bound box is
        # enlarged until it provably contains a maximal-throughput
        # distribution.
        try:
            max_thr = model.maximum(observe, service)
            service.set_ceiling(max_thr)
            low_bound, high_bound = (
                throughput_bounds if throughput_bounds is not None else (None, None)
            )
            if low_bound is not None and high_bound is not None and low_bound > high_bound:
                raise ExplorationError("throughput_bounds: low exceeds high")
            stop_thr = max_thr if high_bound is None else min(max_thr, high_bound)
            while service(upper) < stop_thr:
                upper = upper.scaled(2)

            size_cap = max_size if max_size is not None else upper.weighted_size(token_sizes)

            if strategy == "dependency":
                sweep = dependency_sweep(
                    graph,
                    observe,
                    stop_throughput=stop_thr,
                    max_size=size_cap,
                    token_sizes=token_sizes,
                    config=ExplorationConfig(evaluator=service),
                )
                front = ParetoFront.from_evaluations(sweep.evaluations, token_sizes)
                # A sweep scans no sizes: its count is the sizes it evaluated.
                service.telemetry.count("sizes_probed", len({d.size for d in sweep.evaluations}))
                exhausted, pending = sweep.exhausted, sweep.pending
            else:
                bounded_upper = _cap_box(lower, upper, size_cap)
                if strategy == "exhaustive":
                    probes, _ = exhaustive_sweep(
                        graph,
                        observe,
                        lower,
                        bounded_upper,
                        stop_thr,
                        service,
                        stop_early=not collect_all_witnesses,
                    )
                else:
                    probes, _ = divide_and_conquer(
                        graph, observe, lower, bounded_upper, stop_thr, service, quantum=quantum
                    )
                front = _front_from_probes(probes)
        except BudgetExhausted as stop:
            # The budget tripped outside the dependency sweep (setup
            # probes, or the divide/exhaustive strategies, which share
            # probe bookkeeping only through the service).  Everything
            # executed so far sits in the exact memo cache — its Pareto
            # front is the partial answer.
            exhausted = stop.reason
            front = ParetoFront.from_evaluations(service.evaluations, token_sizes)
            if strategy == "dependency":
                service.telemetry.count(
                    "sizes_probed", len({d.size for d in service.evaluations})
                )
        if max_thr is None:
            max_thr = max(service.evaluations.values(), default=Fraction(0))

        if front is None:  # pragma: no cover - defensive; both branches set it
            front = ParetoFront.from_evaluations(service.evaluations, token_sizes)
        if max_size is not None:
            front = _restrict_front(front, max_size)
        if throughput_bounds is not None:
            front = _window_front(front, low_bound, high_bound)
        if quantum is not None:
            front = thin_front(front, quantum)

        search_space = None
        if count_search_space:
            search_space = sum(
                count_distributions_of_size(graph.channel_names, size, lower, upper)
                for size in range(lower.size, upper.size + 1)
            )
        return finish_run(
            service,
            service.telemetry,
            config,
            graph=graph,
            observe=observe,
            strategy=strategy,
            started=started,
            front=front,
            lower=lower,
            upper=upper,
            max_throughput=max_thr,
            exhausted=exhausted,
            pending=pending,
            search_space=search_space,
        )
    finally:
        if owns_service:
            service.close()


def minimal_distribution_for_throughput(
    graph: "SDFGraph | CSDFGraph",
    constraint: Fraction,
    observe: str | None = None,
    token_sizes: Mapping[str, int] | None = None,
    *,
    config: ExplorationConfig | None = None,
) -> ParetoPoint | None:
    """Smallest storage distribution meeting a throughput constraint.

    This is the headline query of the paper: the exact minimal storage
    space needed to execute the graph (SDF or CSDF) at a required
    throughput.  The sweep stops at the first distribution reaching the
    constraint.  Returns ``None`` when the constraint exceeds the
    graph's maximal throughput.  Run control (backend, workers,
    budgets, telemetry) comes from *config*; a budget tripping before
    the minimum is found raises
    :class:`~repro.exceptions.BudgetExhausted`.
    """
    graph_model(graph).check()
    if constraint <= 0:
        raise ExplorationError("the throughput constraint must be positive")
    found = find_minimal_distribution(
        graph, constraint, observe, token_sizes=token_sizes, config=config
    )
    if found is None:
        return None
    distribution, value = found
    return ParetoPoint(distribution.weighted_size(token_sizes), value, (distribution,))


def maximal_throughput_point(
    graph: "SDFGraph | CSDFGraph", observe: str | None = None
) -> ParetoPoint:
    """The Pareto point realising the graph's maximal throughput."""
    result = explore_design_space(graph, observe)
    point = result.front.max_throughput_point
    if point is None:
        raise ExplorationError(
            f"graph {graph.name!r} deadlocks under every storage distribution"
        )
    return point


def finish_run(
    services: "EvaluationService | Mapping[str, EvaluationService]",
    telemetry: TelemetryHub,
    config: ExplorationConfig,
    *,
    graph: "SDFGraph | CSDFGraph | SADFGraph",
    observe: str,
    strategy: str,
    started: float,
    front: ParetoFront,
    lower: StorageDistribution,
    upper: StorageDistribution,
    max_throughput: Fraction,
    exhausted: str | None,
    pending: Iterable[StorageDistribution] = (),
    search_space: int | None = None,
) -> DesignSpaceResult:
    """End a run of *graph* on its service or ``{scenario: service}`` map:
    the resume token (kept if a budget *exhausted* the run), then
    ``config.checkpoint`` and ``checkpoint_saved``, then ``run_finish``
    and the result, its stats read from the run's *telemetry*."""
    complete = exhausted is None
    token: ResumeToken | None = None
    if not complete or config.checkpoint is not None:
        token = build_token(
            services,
            graph,
            observe=observe,
            strategy=strategy,
            exhausted=exhausted,
            front=front,
            pending=pending,
        )
        if config.checkpoint is not None:
            path = save_checkpoint(token, config.checkpoint)
            telemetry.emit(
                "checkpoint_saved",
                path=str(path),
                complete=complete,
                probes_banked=token.probes_recorded,
            )
    telemetry.emit(
        "run_finish",
        complete=complete,
        exhausted=exhausted,
        pareto_points=len(front),
        evaluations=telemetry.stats().evaluations,
    )
    first = next(iter(services.values())) if isinstance(services, Mapping) else services
    stats = ExplorationStats.from_hub(
        telemetry,
        strategy=strategy,
        wall_time_s=time.perf_counter() - started,
        backend=first.backend_name,
        search_space=search_space,
    )
    return DesignSpaceResult(
        graph_name=graph.name,
        observe=observe,
        front=front,
        stats=stats,
        lower_bounds=lower,
        upper_bounds=upper,
        max_throughput=max_throughput,
        complete=complete,
        exhausted=exhausted,
        resume_token=None if complete else token,
        telemetry=telemetry.snapshot(),
    )


def _front_from_probes(probes: dict[int, SizeProbe]) -> ParetoFront:
    evaluations: dict[StorageDistribution, Fraction] = {}
    for size_probe in probes.values():
        for witness in size_probe.witnesses:
            evaluations[witness] = size_probe.throughput
    return ParetoFront.from_evaluations(evaluations)


def _cap_box(
    lower: StorageDistribution, upper: StorageDistribution, size_cap: int
) -> StorageDistribution:
    """Clip per-channel upper bounds so no distribution exceeds *size_cap*."""
    capped = {}
    for name in upper:
        headroom = size_cap - (lower.size - lower[name])
        capped[name] = max(lower[name], min(upper[name], headroom))
    return StorageDistribution(capped)


def _restrict_front(front: ParetoFront, max_size: int) -> ParetoFront:
    return front.filtered(lambda point: point.size <= max_size)


def _window_front(
    front: ParetoFront, low: Fraction | None, high: Fraction | None
) -> ParetoFront:
    """Clip the front to a throughput window.

    Points below *low* are discarded; points from *high* upwards are
    reduced to the single cheapest one (the search stopped there, so
    no larger point exists anyway).
    """
    kept = []
    for point in front:
        if low is not None and point.throughput < low:
            continue
        kept.append(point)
        if high is not None and point.throughput >= high:
            break
    return ParetoFront.from_points(kept)
