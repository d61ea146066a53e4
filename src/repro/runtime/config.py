"""`ExplorationConfig` — the one knob object for all exploration entry points.

A single frozen dataclass accepted as ``config=`` by

* :func:`repro.buffers.explorer.explore_design_space`,
* :func:`repro.buffers.explorer.minimal_distribution_for_throughput`,
* :func:`repro.buffers.dependencies.dependency_sweep`,
* :func:`repro.buffers.dependencies.find_minimal_distribution`,
* :class:`repro.buffers.evalcache.EvaluationService`.

Run-control capabilities (backends, budgets, checkpoints, telemetry,
fault-tolerance tuning) land on the config only, never as keywords of
the entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING
from collections.abc import Callable

from repro.exceptions import ConfigError, ExplorationError
from repro.runtime.budget import Budget
from repro.runtime.telemetry import TelemetryEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.buffers.evalcache import EvaluationService


@dataclass(frozen=True)
class ExplorationConfig:
    """Everything that shapes *how* an exploration runs (never *what*).

    Parameters
    ----------
    workers:
        Process-pool size for fanning out independent probes; ``1``
        stays serial (bit-identical results either way).
    cache:
        Keep the exact memo cache enabled.  Budgets, checkpoints and
        the bounds oracle require it.
    bounds:
        Enable the :class:`~repro.buffers.oracle
        .ThroughputBoundsOracle`: interval queries answer probes whose
        throughput is already bracketed exactly (``bounds_exact``) and
        cut scan candidates whose upper bound cannot beat the running
        best (``bounds_cut``).  Exact either way — fronts and witnesses
        are bit-identical with the oracle on or off.  Off by default:
        the paper's algorithms are reproduced unmodified unless asked.
    evaluator:
        Bring-your-own :class:`~repro.buffers.evalcache
        .EvaluationService` (e.g. a warm cache shared across runs).
        When set, ``workers`` / ``cache`` / ``budget`` / ``on_event`` /
        ``backend`` must be left at their defaults — the service was
        already built and its own controller governs the run.
    budget:
        Optional :class:`~repro.runtime.budget.Budget` (deadline,
        probe budget, cancel token).  Hitting it makes
        ``explore_design_space`` return a partial result flagged
        ``complete=False`` with a resume token.
    checkpoint:
        Optional path; when set, ``explore_design_space`` writes a
        checkpoint JSON there at the end of the run (partial or
        complete), suitable for ``resume=``.
    on_event:
        Callback receiving every
        :class:`~repro.runtime.telemetry.TelemetryEvent` of the run.
    probe_timeout:
        Per-probe wall-clock timeout (seconds) for pool workers; a
        probe exceeding it counts as a pool failure (restart / inline
        retry).  ``None`` disables the watchdog.
    backend:
        Probe backend name from the :mod:`repro.engine.backends`
        registry (``"reference"``, ``"fastcore"``, ``"cc"``, or any
        backend registered by the application),
        the only setting that picks where probes run.  Plain probes
        run on it; blocking-aware and pooled probes run on it when it
        has the ``"blocking"`` capability and on ``"reference"``
        otherwise.  The default ``"auto"`` picks the best backend
        *available on this host*: ``"cc"`` wherever its one C kernel
        loads from the on-disk cache or builds (once per host),
        ``"fastcore"`` otherwise — both exact, so auto only ever trades
        speed; a batch past the C kernel's resource limits then reruns
        on ``fastcore``.  Unknown names
        and backends the host cannot run (e.g. ``"cc"`` without a C
        compiler) raise :class:`~repro.exceptions.ConfigError` here, at
        construction — a run never silently degrades to a different
        backend mid-flight.
    """

    workers: int = 1
    cache: bool = True
    evaluator: "EvaluationService | None" = None
    budget: Budget | None = None
    checkpoint: str | Path | None = None
    on_event: Callable[[TelemetryEvent], None] | None = field(default=None)
    probe_timeout: float | None = None
    bounds: bool = False
    backend: str = "auto"

    def __post_init__(self) -> None:
        if int(self.workers) < 1:
            raise ExplorationError("workers must be >= 1")
        if self.backend != "auto":
            # Imported here: the runtime package imports nothing from
            # the engine layer at module level.  "auto" needs no
            # validation: it resolves per host to an available backend.
            from repro.engine.backends import backend_availability, backend_for

            reason = backend_availability(backend_for(self.backend))  # unknown name -> ConfigError
            if reason is not None:
                raise ConfigError(
                    f"probe backend {self.backend!r} is unavailable on this"
                    f" host: {reason}. Use backend='auto' to pick the best"
                    " available backend instead."
                )
        if self.probe_timeout is not None and self.probe_timeout <= 0:
            raise ExplorationError("probe_timeout must be positive")
        if self.budget is not None and not self.cache:
            raise ExplorationError(
                "budgets require the memo cache (cache=True): partial results"
                " and resume tokens are reconstructed from it"
            )
        if self.bounds and not self.cache:
            raise ExplorationError(
                "the bounds oracle requires the memo cache (cache=True): it"
                " is an index over the recorded evaluations"
            )
        if self.evaluator is not None:
            owned_only = {
                "workers": 1,
                "cache": True,
                "budget": None,
                "on_event": None,
                "bounds": False,
                "backend": "auto",
            }
            clashes = [
                name
                for name, default in owned_only.items()
                if getattr(self, name) != default
            ]
            if clashes:
                raise ExplorationError(
                    "config.evaluator supplies a ready-made service; configure"
                    f" {', '.join(clashes)} on that service's own config instead"
                )

    def replaced(self, **changes) -> "ExplorationConfig":
        """A copy with *changes* applied (frozen-dataclass convenience)."""
        return replace(self, **changes)

