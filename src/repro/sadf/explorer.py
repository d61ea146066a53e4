"""All-scenario buffer sizing for FSM-SADF graphs.

The skeleton of an :class:`~repro.sadf.graph.SADFGraph` fixes one
channel set, so a single
:class:`~repro.buffers.distribution.StorageDistribution` prices every
scenario at once.  This module charts the Pareto space of storage size
vs. **worst-case** throughput (:mod:`repro.sadf.throughput`): a
distribution meets a throughput target only if every reachable
scenario — and every accepted switching pattern between them —
sustains it.

The sweep is :func:`~repro.buffers.frontier.frontier_sweep` probing
the worst case ``W(d)``.  Every ingredient of ``W(d)`` is monotone in
*d* and changes only when a channel that *blocked* a firing grows by
at least its minimal observed deficit, so the probe's deficits are the
per-channel minimum over the steady-state and makespan runs of every
reachable scenario.

Each scenario is evaluated through its own
:class:`~repro.buffers.evalcache.EvaluationService` — memo cache,
bounds oracle, worker pools and backends apply per scenario unchanged,
and ``memos=`` puts each scenario's service on a caller's shared
:class:`~repro.buffers.evalcache.EvaluationMemo` — while one shared
:class:`~repro.runtime.controller.RunController` meters the *combined*
probe budget.  Results flow through the existing
:class:`~repro.buffers.pareto.ParetoFront` /
:class:`~repro.buffers.explorer.ExplorationStats` machinery, budgets
yield partial results with resume tokens, and ``config.checkpoint``
writes a multi-scenario checkpoint (format
:data:`~repro.runtime.checkpoint.SADF_CHECKPOINT_FORMAT`) restoring
every scenario's memo, through the same
:mod:`repro.runtime.checkpoint` path as an SDF run.

A **degenerate** single-scenario graph (one scenario, zero-delay
self-loop FSM) is delegated outright to the plain SDF
:func:`~repro.buffers.explorer.explore_design_space` on its scenario
graph — fronts, witnesses and probe counts are bit-identical to the
SDF path by construction, the property pinned in
``tests/properties/test_prop_sadf.py``.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction
from pathlib import Path
from collections.abc import Callable, Mapping

from repro.buffers.bounds import lower_bound_distribution, upper_bound_distribution
from repro.buffers.distribution import StorageDistribution
from repro.buffers.evalcache import EvaluationMemo, EvaluationService
from repro.buffers.explorer import (
    DesignSpaceResult,
    explore_design_space as _explore_sdf,
    finish_run,
)
from repro.buffers.frontier import Probe, adaptive_maximum, frontier_sweep
from repro.buffers.pareto import ParetoFront, ParetoPoint
from repro.exceptions import BudgetExhausted, ExplorationError, GraphError
from repro.runtime.checkpoint import (  # the SADF format names are re-exported
    SADF_CHECKPOINT_FORMAT,
    SADF_CHECKPOINT_VERSION,
    ResumeToken,
    coerce_resume,
    restore_service,
)
from repro.runtime.config import ExplorationConfig
from repro.runtime.controller import RunController
from repro.runtime.telemetry import TelemetryHub
from repro.sadf.graph import SADFGraph
from repro.sadf.makespan import MakespanResult, iteration_makespan
from repro.sadf.throughput import worst_case_throughput

#: Strategy tag stamped into multi-scenario stats and checkpoints.
SADF_STRATEGY = "sadf-dependency"


def explore_design_space(
    sadf: SADFGraph,
    observe: str | None = None,
    *,
    strategy: str = "dependency",
    max_size: int | None = None,
    config: ExplorationConfig | None = None,
    resume: "ResumeToken | Mapping | str | Path | None" = None,
    memos: Mapping[str, EvaluationMemo] | None = None,
) -> DesignSpaceResult:
    """Chart the storage / worst-case-throughput Pareto space of *sadf*.

    Parameters
    ----------
    observe:
        Skeleton actor whose completions define throughput; defaults
        to the last actor.
    strategy:
        Only ``"dependency"`` explores multi-scenario graphs; the
        degenerate single-scenario case forwards any strategy to the
        SDF explorer.
    max_size:
        Restrict the sweep to distributions of at most this size.
    config:
        The run's :class:`~repro.runtime.config.ExplorationConfig`.
        ``budget`` meters the *combined* probe count across all
        scenarios; ``checkpoint`` writes a multi-scenario checkpoint;
        ``evaluator`` is rejected (each scenario owns its service).
    resume:
        A resume token, checkpoint payload or checkpoint path from a
        previous run of the same graph.
    memos:
        Optional ``{scenario: EvaluationMemo}``: each named scenario's
        service reads and extends that memo (the service plane's live
        banks), so a later run on the same memos replays this one's
        probes for free — partial and failed runs included.  Scenarios
        it does not name get a private memo.
    """
    sadf.validate()
    config = config if config is not None else ExplorationConfig()
    if observe is None:
        observe = sadf.actor_names[-1]
    if observe not in sadf.actors:
        raise GraphError(f"SADF graph {sadf.name!r} has no actor {observe!r}")

    if sadf.is_single_scenario:
        return _explore_degenerate(
            sadf,
            observe,
            strategy=strategy,
            max_size=max_size,
            config=config,
            resume=resume,
            memos=memos,
        )

    if strategy != "dependency":
        raise ExplorationError(
            f"multi-scenario SADF exploration supports the 'dependency'"
            f" strategy only, not {strategy!r}"
        )
    if config.evaluator is not None:
        raise ExplorationError(
            "config.evaluator cannot be shared across scenarios; each"
            " scenario owns its evaluation service (pass memos= to share"
            " their memo caches)"
        )

    started = time.perf_counter()
    fsm = sadf.effective_fsm()
    reachable = fsm.reachable()
    order = sadf.channel_names

    hub = TelemetryHub(config.on_event)
    controller = RunController(config.budget, hub)
    # Per-scenario services keep the caller's event callback (probe
    # telemetry flows through) but no budget or checkpoint of their
    # own — the shared controller and the multi-scenario checkpoint
    # format handle those here.
    scenario_config = config.replaced(budget=None, checkpoint=None, evaluator=None)
    services: dict[str, EvaluationService] = {}
    try:
        for name in reachable:
            service = EvaluationService(
                sadf.scenario_graph(name),
                observe,
                config=scenario_config,
                memo=(memos or {}).get(name),
            )
            # One controller meters the combined probe budget; the
            # services were built budget-free above.
            service.controller = controller
            services[name] = service

        hub.emit(
            "run_start",
            graph=sadf.name,
            observe=observe,
            strategy=SADF_STRATEGY,
            scenarios=len(reachable),
        )
        if resume is not None:
            restore_service(coerce_resume(resume), services, sadf, observe, hub)

        lower = _merged_bound(sadf, reachable, lower_bound_distribution)
        upper = _merged_bound(sadf, reachable, upper_bound_distribution)

        @functools.cache
        def makespan(name: str, distribution: StorageDistribution) -> MakespanResult:
            return iteration_makespan(
                sadf.scenario_graph(name), distribution, sadf.scenario_repetitions(name)
            )

        def worst_at(
            distribution: StorageDistribution,
            throughputs: Callable[[str], Fraction] | None = None,
        ) -> Fraction:
            return worst_case_throughput(
                sadf,
                distribution,
                observe,
                throughputs=throughputs or (lambda name: services[name](distribution)),
                makespans=lambda name: makespan(name, distribution),
            ).worst_case

        evaluations: dict[StorageDistribution, Fraction] = {}
        exhausted: str | None = None
        pending: tuple[StorageDistribution, ...] = ()
        max_thr: Fraction | None = None

        def priced(distribution: StorageDistribution) -> Fraction:
            worst = worst_at(distribution)
            evaluations[distribution] = worst
            return worst

        def probe(distribution: StorageDistribution) -> Probe:
            # One record per scenario prices the distribution.  A
            # memoised one will do (every value counts as reached); a
            # miss runs once, blocking-aware, so deficits() re-runs only
            # scenarios whose record carries no blocking data.
            records = {
                name: services[name].evaluate_blocking(distribution, lambda _value: True)
                for name in reachable
            }

            def deficits() -> dict[str, int]:
                # Growth directions: every channel whose lack of space
                # blocked a firing in any reachable scenario, in the
                # pipelined steady state or within one barriered
                # iteration, by its minimal observed deficit.
                merged: dict[str, int] = {}
                for name in reachable:
                    record = records[name]
                    if not record.has_blocking:
                        record = services[name].evaluate_blocking(distribution)
                    barrier = makespan(name, distribution)
                    for blocked, known in (
                        (record.space_blocked or (), record.space_deficits or {}),
                        (barrier.space_blocked, barrier.space_deficits),
                    ):
                        for channel in blocked:
                            step = known.get(channel, 1)
                            merged[channel] = min(merged.get(channel, step), step)
                return merged

            worst = worst_at(distribution, lambda name: records[name].throughput)
            return Probe(worst, deficits)

        try:
            # Maximal worst case; every probe lands in the memos / caches.
            max_thr = adaptive_maximum(priced, upper, 2)
            while worst_at(upper) < max_thr:
                upper = upper.scaled(2)
            evaluations[upper] = worst_at(upper)

            # A reachable scenario deadlocking at every distribution
            # (maximum 0) reaches the target at the seed: nothing to grow.
            sweep = frontier_sweep(
                lower,
                probe,
                lambda worst: worst >= max_thr,
                order,
                max_size=max_size,
                known=evaluations,
            )
            evaluations.update(sweep.evaluations)
            exhausted, pending = sweep.exhausted, sweep.pending
        except BudgetExhausted as stop:
            exhausted = stop.reason
        if max_thr is None:
            max_thr = max(evaluations.values(), default=Fraction(0))

        front = ParetoFront.from_evaluations(evaluations)
        if max_size is not None:
            front = front.filtered(lambda point: point.size <= max_size)
        # A sweep scans no sizes: its count is the sizes it evaluated.
        hub.count("sizes_probed", len({d.size for d in evaluations}))

        # Scenario counts add up; the largest state space and pool win,
        # and the first scenario whose pool degraded explains the run's.
        for service in services.values():
            hub.merge(service.telemetry)
        return finish_run(
            services,
            hub,
            config,
            graph=sadf,
            observe=observe,
            strategy=SADF_STRATEGY,
            started=started,
            front=front,
            lower=lower,
            upper=upper,
            max_throughput=max_thr,
            exhausted=exhausted,
            pending=pending,
        )
    finally:
        for service in services.values():
            service.close()


def max_worst_case_throughput(
    sadf: SADFGraph, observe: str | None = None, confirmations: int = 2
) -> Fraction:
    """Maximal worst-case throughput over all storage distributions.

    Evaluated at the conservative upper bound and doubled until stable
    for *confirmations* consecutive doublings
    (:func:`~repro.buffers.frontier.adaptive_maximum`), with plain
    reference executions — no caches or budgets.
    """
    sadf.validate()
    reachable = sadf.effective_fsm().reachable()
    return adaptive_maximum(
        lambda capacities: worst_case_throughput(sadf, capacities, observe).worst_case,
        _merged_bound(sadf, reachable, upper_bound_distribution),
        confirmations,
    )


def minimal_sadf_distribution_for_throughput(
    sadf: SADFGraph,
    constraint: Fraction,
    observe: str | None = None,
    *,
    config: ExplorationConfig | None = None,
) -> ParetoPoint | None:
    """Smallest distribution whose *worst-case* throughput meets
    *constraint* in every reachable scenario and switching pattern.

    Returns ``None`` when the constraint exceeds the graph's maximal
    worst-case throughput.  If a budget on *config* trips before the
    exploration completes, :class:`~repro.exceptions.BudgetExhausted`
    propagates: the smallest point of a partial front need not be
    minimal.
    """
    if constraint <= 0:
        raise ExplorationError("the throughput constraint must be positive")
    result = explore_design_space(sadf, observe, config=config)
    if not result.complete:
        raise BudgetExhausted(
            "exploration budget exhausted before a minimal distribution"
            f" was found ({result.exhausted})",
            reason=result.exhausted or "budget",
        )
    return result.front.smallest_for(constraint)


# -- internals --------------------------------------------------------------
def _explore_degenerate(
    sadf: SADFGraph,
    observe: str,
    *,
    strategy: str,
    max_size: int | None,
    config: ExplorationConfig,
    resume: object,
    memos: Mapping[str, EvaluationMemo] | None,
) -> DesignSpaceResult:
    """Single-scenario graphs reduce to plain SDF exploration.

    The scenario graph is copied under the SADF graph's own name, so
    results, checkpoints and fronts are bit-identical to running the
    SDF explorer on the original graph directly.
    """
    (only,) = sadf.scenario_names
    graph = sadf.scenario_graph(only).copy(sadf.name)
    memo = (memos or {}).get(only)
    if memo is None:
        return _explore_sdf(
            graph,
            observe,
            strategy=strategy,
            max_size=max_size,
            config=config,
            resume=resume,
        )
    # Service-plane path: own the evaluation service so that it runs
    # on the caller's memo.
    service = EvaluationService(
        graph, observe, config=config.replaced(checkpoint=None, evaluator=None), memo=memo
    )
    try:
        return _explore_sdf(
            graph,
            observe,
            strategy=strategy,
            max_size=max_size,
            config=ExplorationConfig(evaluator=service, checkpoint=config.checkpoint),
            resume=resume,
        )
    finally:
        service.close()


def _merged_bound(
    sadf: SADFGraph,
    scenarios: tuple[str, ...],
    bound: Callable[[object], StorageDistribution],
) -> StorageDistribution:
    """Per-channel maximum of a per-scenario bound — valid (and for the
    lower bound, necessary) in every reachable scenario at once."""
    merged: StorageDistribution | None = None
    for name in scenarios:
        current = bound(sadf.scenario_graph(name))
        merged = current if merged is None else merged.merged_max(current)
    assert merged is not None  # validate() guarantees scenarios exist
    return merged
