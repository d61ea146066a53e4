"""Pluggable probe backends: one seam for every way to run a probe.

Every throughput probe of an exploration asks the same question —
"what is the exact throughput of this capacity vector?" — yet the
answer can be computed by very different machinery: the instrumented
reference :class:`~repro.engine.executor.Executor`, the compiled
per-graph :class:`~repro.engine.fastcore.FastKernel`, or the C kernel
that takes the graph as data (:mod:`repro.engine.ccore`).
:class:`ProbeBackend` is the protocol all of them implement:

``evaluate_batch(graph, vectors, observe, *, blocking=False) -> list[EvalResult]``
    Evaluate a batch of capacity vectors; results come back in input
    order.  Duplicates are permitted and evaluated independently, so
    a batch is semantically exactly ``[one probe per vector]``.  With
    ``blocking=True`` a backend with the ``"blocking"`` capability
    fills each result's space-blocking fields; without it, a backend
    does no blocking work.  The reference backend collects blocking
    data either way.

``name`` / ``capabilities``
    The registry key and a frozenset of feature tags.  The
    capabilities currently meaningful to the rest of the system:

    * ``"exact"`` — results are bit-identical to the reference
      executor (all built-in backends; a future approximate backend
      would drop this and be rejected by the config validation).
    * ``"blocking"`` — asked with ``blocking=True``, the backend's
      :class:`EvalResult`\\ s carry per-channel space-blocking
      information identical to the reference executor's
      (``reference``, ``fastcore`` and ``cc``).  The
      evaluation service runs its blocking-aware and pooled probes on
      the selected backend when it has this capability, and on
      ``"reference"`` otherwise.
    * ``"compiled"`` — probes run on a compiled kernel (counted as
      ``fast_runs``).
    * ``"lanes"`` — the backend evaluates a batch as parallel lanes
      of one kernel call rather than a loop (``cc``).

Backends register themselves in a module-level registry
(:func:`register_backend`); :func:`backend_for` resolves a name and
raises :class:`~repro.exceptions.ConfigError` for unknown ones — the
config layer calls it at construction time so a typo can never
silently degrade a run to a different kernel.  The conformance
harness (``tests/engine/test_backend_conformance.py``) parametrizes
over :func:`backend_names`, so a newly registered backend inherits
the whole bit-identity suite without writing a single test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Protocol, runtime_checkable
from collections.abc import Mapping, Sequence

from repro.engine import ccore
from repro.engine import executor as _reference
from repro.engine.executor import (
    _DEFAULT_STALL_THRESHOLD,
    Executor,
    validate_capacities,
)
from repro.engine.fastcore import kernel_for
from repro.exceptions import ConfigError, KernelLimitError
from repro.graph.graph import SDFGraph


class EvalResult(NamedTuple):
    """Outcome of one probe, engine-independent.

    Exactly the payload :class:`~repro.buffers.evalcache
    .EvaluationRecord` needs; ``space_blocked`` / ``space_deficits``
    are ``None`` unless a backend with the ``"blocking"`` capability
    was asked for them (the reference backend always fills them).
    """

    throughput: Fraction
    states_stored: int
    deadlocked: bool
    space_blocked: frozenset[str] | None = None
    space_deficits: Mapping[str, int] | None = None

    @property
    def has_blocking(self) -> bool:
        return self.space_blocked is not None


@runtime_checkable
class ProbeBackend(Protocol):
    """What the evaluation layer requires of a probe backend."""

    name: str
    capabilities: frozenset[str]

    def evaluate_batch(
        self,
        graph: SDFGraph,
        vectors: Sequence[Mapping[str, int]],
        observe: str | None = None,
        *,
        blocking: bool = False,
    ) -> list[EvalResult]:
        """Exact results for *vectors*, in input order; with *blocking*,
        including space-blocking data if the backend can collect it."""
        ...


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BACKENDS: dict[str, ProbeBackend] = {}


def register_backend(backend: ProbeBackend, *, replace: bool = False) -> ProbeBackend:
    """Register *backend* under ``backend.name``; returns it.

    Re-registering a taken name is an error unless ``replace=True`` —
    shadowing a built-in silently is exactly the ambiguity the
    registry exists to prevent.
    """
    name = backend.name
    if not replace and name in _BACKENDS:
        raise ConfigError(f"probe backend {name!r} is already registered")
    _BACKENDS[name] = backend
    return backend


def backend_names() -> tuple[str, ...]:
    """Registered backend names, registration order."""
    return tuple(_BACKENDS)


def backend_for(name: str) -> ProbeBackend:
    """The registered backend called *name*.

    Raises :class:`~repro.exceptions.ConfigError` on unknown names so
    the failure surfaces at config construction, never mid-run.
    """
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ConfigError(
            f"unknown probe backend {name!r}; registered backends:"
            f" {', '.join(sorted(_BACKENDS))}"
        ) from None


def backend_availability(backend: ProbeBackend) -> str | None:
    """``None`` when *backend* can run on this host, else the reason.

    Backends advertise host constraints through an optional
    ``availability()`` method (the ``cc`` backend probes for a working
    C compiler); backends without one are always available.
    """
    probe = getattr(backend, "availability", None)
    if probe is None:
        return None
    return probe()


#: The capability tags the rest of the system interprets (see the
#: module docstring); :func:`capability_flags` renders exactly these.
KNOWN_CAPABILITIES = ("exact", "blocking", "compiled", "lanes")


def capability_flags(backend: ProbeBackend) -> dict[str, bool]:
    """``{capability: bool}`` over :data:`KNOWN_CAPABILITIES`.

    The one place the capability set is flattened to flags, so the CLI
    (``repro backends --json``) and the service (``GET /v1/backends``)
    can never drift apart on which tags exist or how they are spelled.
    """
    return {tag: tag in backend.capabilities for tag in KNOWN_CAPABILITIES}


def backend_descriptions() -> list[dict]:
    """One JSON-friendly row per registered backend, registration order.

    The shared rendering behind ``GET /v1/backends`` and the ``repro
    backends`` CLI verb: name, sorted capabilities (plus the same set
    as :func:`capability_flags` booleans), availability on *this* host
    and — when unavailable — the human-readable reason.
    """
    rows = []
    for name in backend_names():
        backend = _BACKENDS[name]
        reason = backend_availability(backend)
        rows.append(
            {
                "name": name,
                "capabilities": sorted(backend.capabilities),
                "flags": capability_flags(backend),
                "available": reason is None,
                "reason": reason,
            }
        )
    return rows


#: Preference order of ``backend="auto"``: ``cc`` wherever its kernel
#: loads or builds, the compiled-Python kernel otherwise.  Both exact —
#: auto only ever trades speed.
_AUTO_PREFERENCE = ("cc", "fastcore")


def resolve_backend(name: str) -> str:
    """Resolve a config ``backend`` selector to a registered name.

    ``"auto"`` picks the first *available* backend on this host in
    :data:`_AUTO_PREFERENCE` order.  Explicit names resolve to
    themselves after an availability check, so asking for a backend
    the host cannot run fails loudly instead of degrading silently.
    """
    if name == "auto":
        for candidate in _AUTO_PREFERENCE:
            if candidate in _BACKENDS and backend_availability(_BACKENDS[candidate]) is None:
                return candidate
        return "reference"
    reason = backend_availability(backend_for(name))
    if reason is not None:
        raise ConfigError(f"probe backend {name!r} is unavailable: {reason}")
    return name


# ---------------------------------------------------------------------------
# Loop backends over the existing engines
# ---------------------------------------------------------------------------


class ReferenceBackend:
    """Loop over the instrumented reference executor.

    The oracle every other backend is conformance-tested against, the
    blocking data included: it collects per-channel space-blocking data
    (and no token shortages, which no probe keeps) on every probe and
    ignores *blocking*.  It is also the only backend
    that runs CSDF graphs: given a graph that is not an
    :class:`~repro.graph.graph.SDFGraph`, it runs the
    :class:`~repro.csdf.executor.CSDFExecutor` — the same executor
    under its CSDF name, so traces count CSDF probes apart.
    """

    name = "reference"
    capabilities = frozenset({"exact", "blocking"})

    def evaluate_batch(
        self,
        graph: SDFGraph,
        vectors: Sequence[Mapping[str, int]],
        observe: str | None = None,
        *,
        blocking: bool = False,
    ) -> list[EvalResult]:
        if isinstance(graph, SDFGraph):
            executor = Executor
        else:
            from repro.csdf.executor import CSDFExecutor as executor
        results = []
        for capacities in vectors:
            probe = executor(graph, capacities, observe, track_blocking=True)
            probe._record_tokens = False
            run = probe.run()
            results.append(
                EvalResult(
                    run.throughput,
                    run.states_stored,
                    run.deadlocked,
                    run.space_blocked,
                    dict(run.space_deficits),
                )
            )
        return results


class FastcoreBackend:
    """Loop over the compiled per-graph event-calendar kernel."""

    name = "fastcore"
    capabilities = frozenset({"exact", "blocking", "compiled"})

    def evaluate_batch(
        self,
        graph: SDFGraph,
        vectors: Sequence[Mapping[str, int]],
        observe: str | None = None,
        *,
        blocking: bool = False,
    ) -> list[EvalResult]:
        kernel = kernel_for(graph, observe)
        results = []
        for capacities in vectors:
            throughput, states, deadlocked, deficits = kernel.probe(capacities, blocking=blocking)
            results.append(
                EvalResult(
                    throughput,
                    states,
                    deadlocked,
                    None if deficits is None else frozenset(deficits),
                    deficits,
                )
            )
        return results


# ---------------------------------------------------------------------------
# The compiled C backend ("buffy-native")
# ---------------------------------------------------------------------------


class CcBackend:
    """The compiled C probe kernel (the paper's ``buffy`` idea, live).

    One C kernel (:mod:`repro.engine.ckernel`) takes each graph as a
    struct of tables; it is built once per host with the platform
    ``cc`` and cached on disk — :mod:`repro.engine.ccore` owns that
    compile plane.  The kernel's batched ``probe_many_exact`` entry
    point evaluates a whole batch of capacity vectors per call and
    returns integer cycle measurements; throughput is reconstructed
    host-side as the exact ``Fraction(firings, duration)``, so results
    stay bit-identical to the reference executor.

    With ``blocking=True`` the kernel also returns each lane's minimal
    space deficits, from which the space-blocked channels follow.

    Where the kernel neither loads from the cache nor builds, the
    backend reports itself unavailable (:meth:`availability`):
    ``backend="auto"`` skips it and requesting it explicitly raises
    :class:`~repro.exceptions.ConfigError`.
    """

    name = "cc"
    capabilities = frozenset({"exact", "blocking", "compiled", "lanes"})

    def availability(self) -> str | None:
        """``None`` when the kernel loads or builds, else the reason."""
        return ccore.availability()

    def evaluate_batch(
        self,
        graph: SDFGraph,
        vectors: Sequence[Mapping[str, int]],
        observe: str | None = None,
        *,
        blocking: bool = False,
    ) -> list[EvalResult]:
        if not vectors:
            return []
        kernel = ccore.kernel_for(graph, observe)
        rows = [
            validate_capacities(capacities, kernel.channel_index, kernel.initial_tokens)
            for capacities in vectors
        ]
        # Read the guards through the reference module at call time so
        # tests patching them cover this engine too (as fastcore does).
        raw = kernel.run_lanes(
            rows,
            stall_threshold=_DEFAULT_STALL_THRESHOLD,
            max_firings=_reference._MAX_FIRINGS_PER_INSTANT,
            blocking=blocking,
        )
        return [
            EvalResult(
                Fraction(0) if deadlocked else Fraction(firings, duration),
                states,
                deadlocked,
                None if deficits is None else frozenset(deficits),
                deficits,
            )
            for firings, duration, states, deadlocked, deficits in raw
        ]


def probe_batch(
    backend: ProbeBackend,
    graph: SDFGraph,
    vectors: Sequence[Mapping[str, int]],
    observe: str | None = None,
    *,
    blocking: bool = False,
    fallbacks: Sequence[ProbeBackend] = (),
) -> list[EvalResult]:
    """``backend.evaluate_batch``, rerun on each of *fallbacks* in turn
    while the batch hits a kernel's resource limit.

    The one place the evaluation service's inline probes and its pool
    workers run a batch.  Under ``backend="auto"`` the service passes
    :func:`auto_fallbacks`: every backend is exact, so a rerun changes
    no result.  Without fallbacks,
    :class:`~repro.exceptions.KernelLimitError` propagates (explicit
    ``cc`` or ``fastcore``).
    """
    try:
        return backend.evaluate_batch(graph, vectors, observe, blocking=blocking)
    except KernelLimitError:
        if not fallbacks:
            raise
        return probe_batch(
            fallbacks[0], graph, vectors, observe, blocking=blocking, fallbacks=fallbacks[1:]
        )


def auto_fallbacks(name: str) -> tuple[ProbeBackend, ...]:
    """What a batch on *name* reruns on under ``auto`` when it hits a
    kernel limit: the later ``auto`` preferences (``fastcore``, whose
    Python integers do not overflow), then ``reference``, which packs
    no state into machine integers at all."""
    chain = (*_AUTO_PREFERENCE, "reference")
    return tuple(backend_for(later) for later in chain[chain.index(name) + 1 :])


register_backend(ReferenceBackend())
register_backend(FastcoreBackend())
register_backend(CcBackend())
