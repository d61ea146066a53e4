"""Pluggable probe backends: one seam for every way to run a probe wave.

Every throughput probe of an exploration asks the same question —
"what is the exact throughput of this capacity vector?" — yet the
answer can be computed by very different machinery: the instrumented
reference :class:`~repro.engine.executor.Executor`, the compiled
per-graph :class:`~repro.engine.fastcore.FastKernel`, or (new here) a
numpy kernel that packs the event-calendar state of *many* simulations
into parallel arrays and steps them lock-step.  :class:`ProbeBackend`
is the protocol all of them implement:

``evaluate_batch(graph, vectors, observe, *, blocking=False) -> list[EvalResult]``
    Evaluate a wave of capacity vectors; results come back in input
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
      evaluation service runs its blocking-aware, pooled and
      speculative probes on the selected backend when it has this
      capability, and on ``"reference"`` otherwise.
    * ``"compiled"`` — probes run on a per-graph compiled kernel
      (counted as ``fast_runs``).
    * ``"lanes"`` — the backend evaluates a batch as parallel lanes
      of one vectorized simulation rather than a loop, so wide waves
      amortise per-instant cost across the batch.

Backends register themselves in a module-level registry
(:func:`register_backend`); :func:`backend_for` resolves a name and
raises :class:`~repro.exceptions.ConfigError` for unknown ones — the
config layer calls it at construction time so a typo can never
silently degrade a run to a different kernel.  The conformance
harness (``tests/engine/test_backend_conformance.py``) parametrizes
over :func:`backend_names`, so a newly registered backend inherits
the whole bit-identity suite without writing a single test.

The lock-step kernel
--------------------
:class:`BatchNumpyBackend` simulates ``L`` capacity vectors ("lanes")
of the same graph at once.  Per-lane state is one row of a few shared
arrays — ``tokens[L, channels]``, absolute ``completion[L, actors]``
times (``-1`` = idle) and a per-lane clock — and each iteration of the
driver loop advances *every* live lane by one time instant of its own
local clock (lanes are independent simulations; "lock-step" refers to
the iteration structure, not to a shared clock):

1. firings completing at the lane's current instant retire — one
   boolean mask and one integer matmul apply all token updates;
2. enabled firings start, as a fixpoint over zero-execution-time
   cascades: a candidate matrix ``idle & tokens-sufficient &
   space-sufficient`` is computed for all lanes at once, positive-
   duration candidates schedule their completion, zero-duration ones
   fire-and-finish immediately and the fixpoint repeats;
3. lanes whose observed actor completed a firing record a packed
   reduced-state key; a revisited key closes the periodic phase and
   the lane *retires early* — its result is stored and the state
   arrays are compacted to the surviving lanes, so a batch's cost is
   driven by its slowest lane only where lanes are actually live.

The firing rule, recording rule, stall/starvation detection and the
per-instant cascade guard mirror :class:`~repro.engine.fastcore
.FastKernel` exactly (which is itself property-tested bit-identical
to the reference executor); the simultaneous start of all enabled
firings is sound for the same confluence reason — each channel has a
unique producer and a unique consumer, so firing one enabled actor
can never disable another.
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
from repro.exceptions import ConfigError, EngineError, GraphError, KernelLimitError
from repro.graph.graph import SDFGraph

#: Stand-in capacity for unbounded channels in the integer arrays:
#: large enough that ``tokens + production`` can never reach it before
#: the per-instant cascade guard trips.
_UNBOUNDED = 2**62


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
#: compiler exists, the numpy lane kernel otherwise (only when probe
#: waves form — one lane per call is far slower than ``fastcore``), and
#: the plain compiled-Python kernel as the floor.  All exact — auto only
#: ever trades speed.
_AUTO_PREFERENCE = ("tiered", "batch-numpy", "fastcore")


def resolve_backend(name: str, batch: int = 0) -> str:
    """Resolve a config ``backend`` selector to a registered name.

    ``"auto"`` picks the best *available* backend on this host in
    :data:`_AUTO_PREFERENCE` order, skipping ``"batch-numpy"`` unless
    probe waves form (``batch > 0``).  Explicit names resolve to
    themselves after an availability check, so asking for a backend
    the host cannot run fails loudly instead of degrading silently.
    """
    if name == "auto":
        for candidate in _AUTO_PREFERENCE:
            if candidate not in _BACKENDS or (candidate == "batch-numpy" and batch <= 0):
                continue
            if backend_availability(_BACKENDS[candidate]) is None:
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
# The numpy lock-step backend
# ---------------------------------------------------------------------------


class _LaneKernel:
    """Per-graph compiled arrays for the lock-step simulation (the only
    numpy user: numpy is imported here, not by ``import repro``)."""

    def __init__(self, graph: SDFGraph, observe: str | None):
        import numpy as np

        if graph.num_actors == 0:
            raise GraphError("cannot execute an empty graph")
        if observe is None:
            observe = graph.actor_names[-1]
        if observe not in graph.actors:
            raise GraphError(f"unknown observed actor {observe!r}")
        self.graph = graph
        self.observe = observe
        names = graph.actor_names
        channels = graph.channel_names
        self.channel_index = {name: j for j, name in enumerate(channels)}
        n, m = len(names), len(channels)
        self.num_actors = n
        self.num_channels = m
        self.observe_idx = names.index(observe)
        self.initial_tokens = np.array(
            [graph.channels[name].initial_tokens for name in channels], dtype=np.int64
        )
        self.exec_times = np.array(
            [graph.actors[name].execution_time for name in names], dtype=np.int64
        )
        self.zero_time = self.exec_times == 0
        # Every channel has exactly one producer and one consumer, so
        # all rates are per-channel scalars and the enabling checks
        # collapse to (lanes, channels) elementwise work: a channel's
        # token shortfall can only block its unique consumer, a space
        # shortfall only its unique producer.
        actor_index = {name: i for i, name in enumerate(names)}
        self.cons_rate = np.array(
            [graph.channels[name].consumption for name in channels], dtype=np.int64
        )
        self.prod_rate = np.array(
            [graph.channels[name].production for name in channels], dtype=np.int64
        )
        self.producer = np.array(
            [actor_index[graph.channels[name].source] for name in channels],
            dtype=np.intp,
        )
        self.consumer = np.array(
            [actor_index[graph.channels[name].destination] for name in channels],
            dtype=np.intp,
        )
        # Scatter matrix folding per-channel block flags onto actors in
        # one small matmul: blocked = [tok_block | space_block] @ fold.
        # float32 is exact here (counts are bounded by 2 * channels).
        fold = np.zeros((2 * m, n), dtype=np.float32)
        for c in range(m):
            fold[c, self.consumer[c]] = 1.0
            fold[m + c, self.producer[c]] = 1.0
        self.fold = fold

    def run_lanes(
        self,
        capacity_rows: list[list[int | None]],
        *,
        stall_threshold: int = _DEFAULT_STALL_THRESHOLD,
    ) -> list[EvalResult]:
        """Simulate every capacity row to its periodic phase or deadlock."""
        import numpy as np

        lanes = len(capacity_rows)
        n, m = self.num_actors, self.num_channels
        observe_idx = self.observe_idx
        max_firings = _reference._MAX_FIRINGS_PER_INSTANT
        caps = np.array(
            [[_UNBOUNDED if cap is None else cap for cap in row] for row in capacity_rows],
            dtype=np.int64,
        )

        tokens = np.broadcast_to(self.initial_tokens, (lanes, m)).copy()
        completion = np.full((lanes, n), -1, dtype=np.int64)
        time = np.zeros(lanes, dtype=np.int64)
        # Per-lane Python bookkeeping: the reduced-state memo driving
        # cycle detection is inherently a hash structure.
        seen: list[dict[bytes, int]] = [dict() for _ in range(lanes)]
        distances: list[list[int]] = [[] for _ in range(lanes)]
        firing_counts: list[list[int]] = [[] for _ in range(lanes)]
        last_firing = np.zeros(lanes, dtype=np.int64)
        idle_streak = np.zeros(lanes, dtype=np.int64)
        full_seen: list[set[bytes] | None] = [None] * lanes
        origin = list(range(lanes))  # lane row -> input index
        results: list[EvalResult | None] = [None] * lanes

        cons_rate, prod_rate = self.cons_rate, self.prod_rate
        producer, consumer, fold = self.producer, self.consumer, self.fold
        exec_times, zero_time = self.exec_times, self.zero_time
        observe_zero = bool(zero_time[observe_idx])
        has_zero = bool(zero_time.any())
        flatnonzero = np.flatnonzero
        # Prefix buffers: rows past the live count are dead storage, so
        # compaction never has to copy them.
        scratch = np.empty((lanes, n + m + 2), dtype=np.int64)
        block_flags = np.empty((lanes, 2 * m), dtype=np.float32)
        instants = 0

        while origin:
            live = len(origin)
            # -- 1. complete due firings ------------------------------
            # Tokens move at the END of a firing: completing the
            # producer of a channel deposits, completing its consumer
            # withdraws — one fancy-indexed gather per side.
            due = completion == time[:, None]
            observed = due[:, observe_idx]
            tokens += due[:, producer] * prod_rate - due[:, consumer] * cons_rate
            completion[due] = -1

            # -- 2. start enabled firings -----------------------------
            if has_zero:
                observed = observed.astype(np.int64)
                fired = np.zeros(live, dtype=np.int64)
                while True:  # fixpoint over zero-time cascades
                    np.less(tokens, cons_rate, out=block_flags[:live, :m], casting="unsafe")
                    np.greater(
                        tokens + prod_rate, caps, out=block_flags[:live, m:], casting="unsafe"
                    )
                    blocked = block_flags[:live] @ fold  # (lanes, actors)
                    candidates = (completion < 0) & (blocked == 0.0)
                    if not candidates.any():
                        break
                    fired += candidates.sum(axis=1)
                    if (fired > max_firings).any():
                        raise EngineError(
                            f"more than {max_firings} firings in one time instant;"
                            " a zero-execution-time cascade diverges (unbounded channel?)"
                        )
                    starting = candidates & ~zero_time[None, :]
                    if starting.any():
                        until = time[:, None] + exec_times[None, :]
                        completion = np.where(starting, until, completion)
                    firing_now = candidates & zero_time[None, :]
                    if firing_now.any():
                        tokens += (
                            firing_now[:, producer] * prod_rate
                            - firing_now[:, consumer] * cons_rate
                        )
                        if observe_zero:
                            observed += firing_now[:, observe_idx]
                recorded = observed > 0
            else:
                # No zero-time actors: one round reaches the fixpoint
                # (starting a positive-duration firing moves no tokens,
                # so it cannot enable or disable anything else).
                np.less(tokens, cons_rate, out=block_flags[:live, :m], casting="unsafe")
                np.greater(
                    tokens + prod_rate, caps, out=block_flags[:live, m:], casting="unsafe"
                )
                blocked = block_flags[:live] @ fold
                candidates = (completion < 0) & (blocked == 0.0)
                if max_firings < n and int(candidates.sum()) > max_firings:
                    # Only reachable when a test patches the guard below
                    # the actor count; an instant fires each actor once.
                    raise EngineError(
                        f"more than {max_firings} firings in one time instant;"
                        " a zero-execution-time cascade diverges (unbounded channel?)"
                    )
                completion = np.where(
                    candidates, time[:, None] + exec_times[None, :], completion
                )
                recorded = observed

            # -- 3. record / stall bookkeeping ------------------------
            recorded_any = bool(recorded.any())
            # idle_streak <= instants, so the stall machinery is free
            # until a lane has survived `stall_threshold` instants.
            check_stall = instants >= stall_threshold - 1
            instants += 1
            if recorded_any or check_stall:
                busy = completion >= 0
                np.subtract(completion, time[:, None], out=scratch[:live, :n])
                np.multiply(scratch[:live, :n], busy, out=scratch[:live, :n])
                scratch[:live, n : n + m] = tokens
                scratch[:live, n + m] = time
                scratch[:live, n + m] -= last_firing
                scratch[:live, n + m + 1] = observed

            finished: list[int] = []
            if not recorded_any:
                idle_streak += 1
            else:
                np.add(idle_streak, 1, out=idle_streak, where=~recorded)
                for row in flatnonzero(recorded):
                    lane = origin[row]
                    distance = int(time[row] - last_firing[row])
                    count = int(observed[row])
                    last_firing[row] = time[row]
                    idle_streak[row] = 0
                    full_seen[row] = None
                    key = scratch[row].tobytes()
                    memo = seen[lane]
                    cycle_start = memo.get(key)
                    distances[lane].append(distance)
                    firing_counts[lane].append(count)
                    if cycle_start is not None:
                        duration = sum(distances[lane][cycle_start + 1 :])
                        firings = sum(firing_counts[lane][cycle_start + 1 :])
                        results[lane] = EvalResult(
                            Fraction(firings, duration), len(memo), False
                        )
                        finished.append(row)
                    else:
                        memo[key] = len(memo)
            if check_stall:
                for row in flatnonzero(idle_streak >= stall_threshold):
                    lane = origin[row]
                    store = full_seen[row]
                    if store is None:
                        store = full_seen[row] = set()
                    full_key = scratch[row, : n + m].tobytes()
                    if full_key in store:
                        # Loops without the observed actor ever firing
                        # again: starvation (throughput zero).
                        results[lane] = EvalResult(Fraction(0), len(seen[lane]), True)
                        finished.append(row)
                    else:
                        store.add(full_key)

            # -- 4. deadlocks + advance to each lane's next event -----
            next_event = np.where(completion >= 0, completion, _UNBOUNDED).min(axis=1)
            dead = next_event == _UNBOUNDED
            if dead.any():
                for row in flatnonzero(dead):
                    lane = origin[row]
                    if results[lane] is None:
                        results[lane] = EvalResult(Fraction(0), len(seen[lane]), True)
                        finished.append(row)

            if finished:
                keep = np.ones(live, dtype=bool)
                keep[finished] = False
                origin = [origin[row] for row in flatnonzero(keep)]
                if not origin:
                    break
                tokens = tokens[keep]
                completion = completion[keep]
                caps = caps[keep]
                last_firing = last_firing[keep]
                idle_streak = idle_streak[keep]
                full_seen = [full_seen[row] for row in flatnonzero(keep)]
                time = next_event[keep]
            else:
                time = next_event

        return results  # type: ignore[return-value]  # every lane retired above


class BatchNumpyBackend:
    """Vectorized lock-step simulation of whole probe waves."""

    name = "batch-numpy"
    capabilities = frozenset({"exact", "compiled", "lanes"})

    def __init__(self) -> None:
        # Weak per-graph kernel cache, mirroring fastcore._KERNELS:
        # {graph: (shape, {observe: kernel})}.
        self._kernels: "weakref.WeakKeyDictionary[SDFGraph, tuple[tuple[int, int], dict[str, _LaneKernel]]]" = (
            weakref.WeakKeyDictionary()
        )

    def _kernel(self, graph: SDFGraph, observe: str | None) -> _LaneKernel:
        shape = (graph.num_actors, graph.num_channels)
        cached = self._kernels.get(graph)
        if cached is None or cached[0] != shape:
            cached = (shape, {})
            self._kernels[graph] = cached
        kernels = cached[1]
        key = observe if observe is not None else (
            graph.actor_names[-1] if graph.num_actors else ""
        )
        kernel = kernels.get(key)
        if kernel is None:
            kernel = _LaneKernel(graph, observe)
            kernels[key] = kernel
        return kernel

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
        kernel = self._kernel(graph, observe)
        rows = [
            validate_capacities(graph, capacities, kernel.channel_index)
            for capacities in vectors
        ]
        return kernel.run_lanes(rows)


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
    batched ``probe_many_exact`` entry point evaluates a whole wave of
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
        return _cc_batch(ccore.kernel_for(graph, observe), graph, vectors, blocking)


def _cc_batch(
    kernel: ccore.CompiledKernel,
    graph: SDFGraph,
    vectors: Sequence[Mapping[str, int]],
    blocking: bool,
) -> list[EvalResult]:
    """One ``probe_many_exact`` call of *kernel* for the whole batch
    (shared by the ``cc`` and ``tiered`` backends)."""
    rows = [
        validate_capacities(graph, capacities, kernel.channel_index)
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
                return _cc_batch(kernel, graph, vectors, blocking)
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
register_backend(BatchNumpyBackend())
register_backend(CcBackend())
register_backend(TieredBackend())
