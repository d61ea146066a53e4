"""Storage-dependency-guided exploration of SDF and CSDF graphs.

The sweep itself — a size-ordered frontier grown only along channels
whose lack of space blocked a firing, and its exactness argument —
lives in :mod:`repro.buffers.frontier`, shared with the SADF explorer.
This module plugs in the probe: one blocking-aware
:class:`~repro.buffers.evalcache.EvaluationService` evaluation per
distribution.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from fractions import Fraction
from typing import TYPE_CHECKING

from repro.buffers.distribution import StorageDistribution
from repro.buffers.evalcache import EvaluationRecord, EvaluationService
# DependencySweepResult is public here too.
from repro.buffers.frontier import DependencySweepResult, Probe, frontier_sweep, graph_model
from repro.exceptions import BudgetExhausted, ExplorationError
from repro.graph.graph import SDFGraph
from repro.runtime.config import ExplorationConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.csdf.graph import CSDFGraph


def dependency_sweep(
    graph: "SDFGraph | CSDFGraph",
    observe: str | None = None,
    *,
    stop_throughput: Fraction | None = None,
    stop_positive: bool = False,
    max_size: int | None = None,
    start: StorageDistribution | None = None,
    stop_at_first: bool = False,
    token_sizes: Mapping[str, int] | None = None,
    config: ExplorationConfig | None = None,
) -> DependencySweepResult:
    """Explore the useful sub-lattice of storage distributions.

    Parameters
    ----------
    stop_throughput:
        Distributions reaching this throughput are recorded but not
        expanded (use the graph's maximal throughput for a full Pareto
        sweep, or a constraint for a minimal-distribution query).
        ``None`` means "expand until nothing blocks on space anymore".
    max_size:
        Optional hard cap on distribution sizes to consider.
    start:
        Alternative seed; defaults to the lower-bound distribution.
    stop_at_first:
        Return as soon as the first distribution reaching
        *stop_throughput* is popped (minimal-size witness queries).
    config:
        The run's :class:`~repro.runtime.config.ExplorationConfig`.
        ``config.evaluator`` shares a ready-made
        :class:`~repro.buffers.evalcache.EvaluationService` (warm
        cache, budget, telemetry); otherwise a private service is
        built from the config and closed before returning.  The
        sweep's probes are blocking-aware, so they run on the
        service's blocking backend: ``config.backend`` when it has
        the ``"blocking"`` capability (``"cc"``, which the default
        ``"auto"`` selects wherever the C kernel loads or builds,
        ``"fastcore"``, which it selects elsewhere, and
        ``"reference"`` do), ``"reference"`` otherwise.
        With ``workers > 1`` each size level of the frontier is one
        parallel batch, folded in serial order: the explored set, the
        recorded throughputs and the first witness are identical.
        A budget interruption lands between probes; the sweep then
        returns everything evaluated so far with ``complete=False``.

    A sweep without *stop_throughput* diverges on most graphs (a
    source actor that is merely *ahead* keeps hitting full channels at
    any capacity), so one of *stop_throughput* / *max_size* is
    required.
    """
    if stop_throughput is None and max_size is None and not stop_positive:
        raise ExplorationError(
            "dependency_sweep needs a stop_throughput (usually the graph's maximal"
            " throughput) or a max_size; otherwise capacity growth never terminates"
        )
    config = config if config is not None else ExplorationConfig()
    seed = start if start is not None else graph_model(graph).lower()

    def reached(throughput: Fraction) -> bool:
        return (
            throughput > 0
            if stop_positive
            else stop_throughput is not None and throughput >= stop_throughput
        )

    with _service(graph, observe, config) as service:

        def probe_level(level) -> list[Probe]:
            return [_probe(record) for record in service.evaluate_blocking_many(level, reached)]

        def frontier_update(size: int, throughput: Fraction) -> None:
            service.telemetry.emit("frontier_update", size=size, throughput=str(throughput))

        return frontier_sweep(
            seed,
            lambda distribution: _probe(service.evaluate_blocking(distribution, reached)),
            reached,
            graph.channel_names,
            max_size=max_size,
            token_sizes=token_sizes,
            stop_at_first=stop_at_first,
            probe_level=probe_level if service.workers > 1 else None,
            on_ceiling=frontier_update,
        )


@contextmanager
def _service(
    graph: "SDFGraph | CSDFGraph", observe: str | None, config: ExplorationConfig
) -> Iterator[EvaluationService]:
    """``config.evaluator``, or a private service closed on exit."""
    if config.evaluator is not None:
        yield config.evaluator
        return
    with EvaluationService(graph, observe, config=config.replaced(evaluator=None)) as service:
        yield service


def _probe(record: EvaluationRecord) -> Probe:
    def deficits() -> dict[str, int]:
        known = record.space_deficits or {}
        return {channel: known.get(channel, 1) for channel in record.space_blocked or ()}

    return Probe(record.throughput, deficits)


def find_minimal_distribution(
    graph: "SDFGraph | CSDFGraph",
    constraint: Fraction,
    observe: str | None = None,
    *,
    max_size: int | None = None,
    token_sizes: Mapping[str, int] | None = None,
    config: ExplorationConfig | None = None,
) -> tuple[StorageDistribution, Fraction] | None:
    """Smallest distribution whose throughput meets *constraint*.

    Because the sweep pops distributions in size order and any minimal
    witness is reachable through strictly smaller, not-yet-satisfying
    distributions, the first popped distribution meeting the
    constraint has globally minimal size.  Returns ``None`` when the
    constraint is unachievable (above the graph's maximal throughput,
    or above *max_size*).  If a budget on *config* trips before a
    witness is popped, :class:`~repro.exceptions.BudgetExhausted`
    propagates — a plain ``None`` would be indistinguishable from
    "provably unachievable".

    The graph's maximal throughput comes from the evaluation service's
    ceiling when its memo knows it; otherwise it is computed and pinned
    there, so queries sharing a memo compute it once.
    """
    config = config if config is not None else ExplorationConfig()
    # An unachievable constraint must be rejected up front: without a
    # reachable stop level the sweep's size ceiling never engages and
    # capacity growth would not terminate.
    with _service(graph, observe, config) as service:
        maximum = service.ceiling
        if maximum is None:
            maximum = graph_model(graph).maximum(observe, service)
            service.set_ceiling(maximum)
        if constraint > maximum:
            return None
        result = dependency_sweep(
            graph,
            observe,
            stop_throughput=constraint,
            max_size=max_size,
            stop_at_first=True,
            token_sizes=token_sizes,
            config=ExplorationConfig(evaluator=service),
        )
    witness = result.first_reaching_target
    if witness is None:
        if not result.complete:
            raise BudgetExhausted(
                "exploration budget exhausted before a minimal distribution"
                f" was found ({result.exhausted})",
                reason=result.exhausted or "budget",
            )
        return None
    return witness, result.evaluations[witness]
