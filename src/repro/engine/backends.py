"""Pluggable probe backends: one seam for every way to run a probe.

Every throughput probe of an exploration asks the same question —
"what is the exact throughput of this capacity vector?" — yet the
answer can be computed by very different machinery: the instrumented
reference :class:`~repro.engine.executor.Executor`, the compiled
per-graph :class:`~repro.engine.fastcore.FastKernel`, or a per-graph C
kernel (:mod:`repro.engine.ccore`).  :class:`ProbeBackend` is the
protocol all of them implement:

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
      (``reference``, ``fastcore``, ``cc`` and ``tiered``).  The
      evaluation service runs its blocking-aware and pooled probes on
      the selected backend when it has this capability, and on
      ``"reference"`` otherwise.
    * ``"compiled"`` — probes run on a per-graph compiled kernel
      (counted as ``fast_runs``).
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

import threading
import time
import weakref
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
from repro.exceptions import ConfigError, EngineError, KernelLimitError
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
    (``repro backends --json``) and the service (``GET /backends``)
    can never drift apart on which tags exist or how they are spelled.
    """
    return {tag: tag in backend.capabilities for tag in KNOWN_CAPABILITIES}


def backend_descriptions() -> list[dict]:
    """One JSON-friendly row per registered backend, registration order.

    The shared rendering behind ``GET /backends`` and the ``repro
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


#: Preference order of ``backend="auto"``: ``tiered`` (``fastcore``
#: until a graph's C kernel pays for its compile, then ``cc``) where a
#: compiler exists, the plain compiled-Python kernel otherwise.  Both
#: exact — auto only ever trades speed.
_AUTO_PREFERENCE = ("tiered", "fastcore")


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
    on every probe and ignores *blocking*.  It is also the only backend
    that runs CSDF graphs: given a graph that is not an
    :class:`~repro.graph.graph.SDFGraph`, it runs the
    :class:`~repro.csdf.executor.CSDFExecutor`, which takes the same
    arguments and reports the same fields.
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
            run = executor(graph, capacities, observe, track_blocking=True).run()
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


def _fastcore_batch(
    graph: SDFGraph,
    vectors: Sequence[Mapping[str, int]],
    observe: str | None,
    blocking: bool,
) -> list[EvalResult]:
    """The ``fastcore`` batch: one kernel probe per vector.

    A plain function, shared by the ``fastcore`` and ``tiered``
    backends, so that no backend calls another's ``evaluate_batch``
    (a nested call would count its lanes twice).
    """
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
        return _fastcore_batch(graph, vectors, observe, blocking)


# ---------------------------------------------------------------------------
# The compiled C backend ("buffy-native")
# ---------------------------------------------------------------------------


class CcBackend:
    """Per-graph compiled C kernels (the paper's ``buffy`` idea, live).

    Each ``(graph, observe)`` pair is specialised into a self-contained
    C translation unit (:func:`repro.codegen.cgen.generate_kernel_c`),
    compiled once with the platform ``cc`` and cached on disk
    content-addressed by fingerprint + layout + codegen version —
    :mod:`repro.engine.ccore` owns that compile plane.  The kernel's
    batched ``probe_many_exact`` entry point evaluates a whole batch of
    capacity vectors per call and returns integer cycle measurements;
    throughput is reconstructed host-side as the exact
    ``Fraction(firings, duration)``, so results stay bit-identical to
    the reference executor.

    With ``blocking=True`` the kernel also returns each lane's minimal
    space deficits, from which the space-blocked channels follow.

    On hosts without a working C compiler the backend reports itself
    unavailable (:meth:`availability`): ``backend="auto"`` skips it and
    requesting it explicitly raises
    :class:`~repro.exceptions.ConfigError`.
    """

    name = "cc"
    capabilities = frozenset({"exact", "blocking", "compiled", "lanes"})

    def availability(self) -> str | None:
        """``None`` when a working C compiler exists, else the reason."""
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
        return _cc_batch(ccore.kernel_for(graph, observe), vectors, blocking)


def _cc_batch(
    kernel: ccore.CompiledKernel,
    vectors: Sequence[Mapping[str, int]],
    blocking: bool,
) -> list[EvalResult]:
    """One ``probe_many_exact`` call of *kernel* for the whole batch
    (shared by the ``cc`` and ``tiered`` backends)."""
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


# ---------------------------------------------------------------------------
# Tiered: fastcore until a graph's C kernel pays for its compile, then cc
# ---------------------------------------------------------------------------

#: What one C kernel compile costs, in seconds: the samplerate, satellite
#: and modem kernels compile in 0.2-0.4 s on a 2-core x86-64 host.  A
#: ``(graph, observe)`` pair moves to C once ``fastcore`` has spent this
#: long on it (docs/ALGORITHMS.md §4g).  Not a setting: a pair's actual
#: compile time is known only once it has been paid.
_COMPILE_COST_S = 0.25

#: The tier of each ``(graph, observe)`` pair, keyed weakly like
#: ``ccore._KERNELS``: ``{graph: (shape, {observe: tier})}``.  A tier is
#: the seconds ``fastcore`` has spent on the pair so far (a ``float``),
#: :data:`_ON_C` once the pair runs on its C kernel, or ``None`` once
#: its compile failed.  Only the charge lives here; a promoted pair's
#: kernel handle stays where :func:`~repro.engine.ccore.kernel_for`
#: keeps it.  Module state, so the backend instance stays stateless and
#: ships to pool workers as it is.
_TIERS: "weakref.WeakKeyDictionary[SDFGraph, tuple[tuple[int, int], dict[str, object]]]" = (
    weakref.WeakKeyDictionary()
)

#: Guards every read-modify-write of ``_TIERS`` (service jobs probe
#: from several threads); never held across a probe or a compile.
_TIERS_LOCK = threading.Lock()

#: The tier of a pair before its first batch, and of a pair on C.
_UNSEEN = object()
_ON_C = object()


class TieredBackend:
    """``fastcore`` until a graph's C kernel pays for its compile, then ``cc``.

    The rent-or-buy rule, per ``(graph, observe)`` pair.  A pair whose
    kernel is already loaded or in the on-disk kernel cache
    (:func:`~repro.engine.ccore.cached_kernel`) runs on C from its
    first probe.  Any other pair runs on ``fastcore`` and adds up the
    seconds its batches take; at the first batch after they reach
    :data:`_COMPILE_COST_S`, the kernel is compiled synchronously
    (:func:`~repro.engine.ccore.kernel_for`, counted as
    ``cc_promotions``) and the pair stays on C.  A pair that never gets
    hot never compiles, and none costs much more than twice the better
    of ``fastcore`` and ``cc`` (docs/ALGORITHMS.md §4g).

    Both tiers are exact and record the same blocking data, so results
    do not depend on where the switch falls.  A compile that fails
    keeps the pair on ``fastcore``; a batch that hits one of the C
    kernel's resource limits (:class:`~repro.exceptions
    .KernelLimitError`) reruns on ``fastcore``, whose Python integers
    do not overflow.  Unavailable, like ``cc``, without a working C
    compiler; ``backend="auto"`` then picks ``fastcore``.
    """

    name = "tiered"
    capabilities = frozenset({"exact", "blocking", "compiled"})

    def availability(self) -> str | None:
        """``None`` when a working C compiler exists, else the reason."""
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
        key = observe if observe is not None else (
            graph.actor_names[-1] if graph.num_actors else ""
        )
        tiers = _tiers_of(graph)
        kernel = _kernel_of(graph, key, tiers)
        if kernel is not None:
            try:
                return _cc_batch(kernel, vectors, blocking)
            except KernelLimitError:
                return _fastcore_batch(graph, vectors, observe, blocking)
        started = time.perf_counter()
        results = _fastcore_batch(graph, vectors, observe, blocking)
        elapsed = time.perf_counter() - started
        with _TIERS_LOCK:
            spent = tiers.get(key)
            if type(spent) is float:
                tiers[key] = spent + elapsed
        return results


def _tiers_of(graph: SDFGraph) -> dict[str, object]:
    """The ``{observe: tier}`` dict of *graph* (reset when its shape changes)."""
    shape = (graph.num_actors, graph.num_channels)
    with _TIERS_LOCK:
        cached = _TIERS.get(graph)
        if cached is None or cached[0] != shape:
            cached = (shape, {})
            _TIERS[graph] = cached
        return cached[1]


def _kernel_of(
    graph: SDFGraph, observe: str, tiers: dict[str, object]
) -> ccore.CompiledKernel | None:
    """The C kernel the next batch of *(graph, observe)* runs on, or
    ``None`` for ``fastcore``: looks for a cached kernel on the pair's
    first batch and compiles once ``fastcore`` has spent
    :data:`_COMPILE_COST_S` on it."""
    tier = tiers.get(observe, _UNSEEN)
    if tier is _UNSEEN:
        found = ccore.cached_kernel(graph, observe) is not None  # validates observe
        with _TIERS_LOCK:
            tier = tiers.setdefault(observe, _ON_C if found else 0.0)
    if tier is None or (tier is not _ON_C and tier < _COMPILE_COST_S):
        return None
    try:
        kernel = ccore.kernel_for(graph, observe)  # a dict hit once loaded
    except (ConfigError, EngineError):
        kernel = None  # ccore counted the failure; stay on fastcore
    if tier is _ON_C and kernel is not None:
        return kernel
    with _TIERS_LOCK:
        spent = tiers.get(observe)
        tiers[observe] = _ON_C if kernel is not None else None
    if kernel is not None and type(spent) is float:  # else another thread promoted it
        ccore.telemetry.emit(
            "cc_promotions", graph=graph.name, observe=observe, fastcore_s=spent
        )
    return kernel


register_backend(ReferenceBackend())
register_backend(FastcoreBackend())
register_backend(CcBackend())
register_backend(TieredBackend())
