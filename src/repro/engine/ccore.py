"""Compile plane of the ``"cc"`` probe backend ("buffy-native").

The paper's own ``buffy`` tool reaches its throughput by generating a
dedicated C explorer per graph (Sec. 10, Fig. 8).  This module turns
that idea into a production backend: it takes the self-contained kernel
source emitted by :func:`repro.codegen.cgen.generate_kernel_c`,
compiles it with the platform C compiler via :mod:`ctypes` (no runtime
dependencies beyond a working ``cc``), and caches the resulting shared
objects on disk content-addressed by graph fingerprint + layout +
codegen version — so the service and repeated CLI runs never compile
the same graph twice, across processes and restarts.

Layering: this module owns *compilation, caching and binding* and
returns raw ``(firings, duration, states, deadlocked, deficits)``
tuples; the :class:`~repro.engine.backends.CcBackend` registered in
:mod:`repro.engine.backends` wraps them into exact
:class:`~repro.engine.backends.EvalResult`\\ s (``Fraction(firings,
duration)``) and plugs into the probe-backend seam.  A kernel that
cannot finish exactly — a diverging zero-time cascade, an ``int64``
overflow of a completion time or a cycle sum, a visited set beyond its
``int32`` index, or memory exhaustion — returns a status code that
:meth:`CompiledKernel.run_lanes` raises as an
:class:`~repro.exceptions.EngineError` naming the cause; the four
resource limits raise its subclass
:class:`~repro.exceptions.KernelLimitError`, on which the ``tiered``
backend reruns the batch in Python.

Graceful degradation
--------------------
:func:`compiler_probe` discovers a compiler (``$CC``, else ``cc`` /
``gcc`` / ``clang`` on ``PATH``) and proves it can actually build a
shared object once, caching the verdict.  On hosts without one the
backend stays registered but reports itself unavailable:
``backend="auto"`` resolution skips it silently, while asking for
``backend="cc"`` explicitly raises
:class:`~repro.exceptions.ConfigError` carrying the probe's reason.  A
failed trial compile counts the ``cc_compile_failures`` telemetry
counter.

Cache hygiene
-------------
The on-disk cache (``$REPRO_CACHE_DIR/cc-kernels``, else
``$XDG_CACHE_HOME/repro/cc-kernels``, else ``~/.cache/repro/cc-kernels``;
overridable via :func:`configure` / the CLI ``--codegen-cache-dir``)
stores ``<key>.c`` + ``<key>.so`` pairs, written atomically
(temp-file + rename).  It is size-bounded with LRU eviction by access
time, and corrupt entries — truncated files, foreign binaries, stale
ABIs — are detected at load time (missing symbols, ``dlopen`` failure,
ABI/shape handshake mismatch), unlinked, and recompiled instead of
crashing the run.

Telemetry: the module-level :data:`telemetry` hub counts
``cc_compiles``, ``cc_cache_hits``, ``cc_compile_failures``,
``cc_cache_corrupt``, ``cc_cache_evictions`` and ``cc_promotions`` (one
per ``(graph, observe)`` the ``tiered`` backend moves to C; the event
carries the graph name and the ``fastcore`` seconds it had spent); the
analysis service exposes them as Prometheus gauges on ``/metrics``.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import os
import shutil
import subprocess
import tempfile
import threading
import weakref
from hashlib import sha256
from pathlib import Path
from collections.abc import Sequence

from repro.exceptions import ConfigError, EngineError, GraphError, KernelLimitError
from repro.graph.graph import SDFGraph

#: Stand-in capacity for unbounded channels in the int64 caps array:
#: large enough that ``tokens + production`` cannot reach it before the
#: firing guard.
_UNBOUNDED = 2**62

#: Lazily constructed compile-plane telemetry (``cc_compiles``,
#: ``cc_cache_hits``, ``cc_compile_failures``, ``cc_cache_corrupt``,
#: ``cc_cache_evictions``, ``cc_promotions``), exposed as the module attribute
#: ``ccore.telemetry``.  Module-global: kernels are shared across
#: services and jobs, so their accounting is too.  Built on first use
#: because this module must stay import-light — it is imported by the
#: backend registry, which half the package imports.
_telemetry = None


def _hub():
    global _telemetry
    if _telemetry is None:
        from repro.runtime.telemetry import TelemetryHub

        _telemetry = TelemetryHub()
    return _telemetry


def __getattr__(name: str):
    if name == "telemetry":
        return _hub()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

#: Compilers tried, in order, when ``$CC`` is unset.
_COMPILER_CANDIDATES = ("cc", "gcc", "clang")

#: Flags for building a loadable kernel shared object.
_CFLAGS = ("-O2", "-fPIC", "-shared")

#: Default size bound of the on-disk kernel cache (``.c`` + ``.so``).
_DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_COMPILE_TIMEOUT_S = 120

_UNSET = object()

#: Mutable module state: the cached compiler-probe verdict and the
#: :func:`configure` overrides.
_state: dict = {"probe": None, "cache_dir": None, "max_bytes": None}

#: Weak per-graph handle cache: {graph: (shape, {observe: kernel})},
#: mirroring ``fastcore._KERNELS``.  Purely an in-process lookup
#: accelerator — the disk cache is the durable layer.
_KERNELS: "weakref.WeakKeyDictionary[SDFGraph, tuple[tuple[int, int], dict[str, CompiledKernel]]]" = (
    weakref.WeakKeyDictionary()
)

_COMPILE_LOCK = threading.Lock()


class _KernelBinaryError(Exception):
    """A cached shared object failed the load-time handshake."""


def _cgen():
    # Imported lazily: the codegen package's __init__ reaches back into
    # the buffers layer, which imports the backend registry — importing
    # it at module load would close that circle.
    from repro.codegen import cgen

    return cgen


def _graph_fingerprint(graph: SDFGraph) -> str:
    # Lazy for the same reason: repro.io's __init__ pulls front I/O,
    # which imports the buffers layer.
    from repro.io.jsonio import graph_fingerprint

    return graph_fingerprint(graph)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def configure(*, cache_dir: str | Path | None | object = _UNSET,
              max_bytes: int | None | object = _UNSET) -> None:
    """Override the kernel-cache location and/or size bound.

    Passing ``None`` restores the environment/default resolution for
    that setting.  Loaded kernel handles are dropped so the new
    location takes effect immediately.
    """
    if cache_dir is not _UNSET:
        _state["cache_dir"] = Path(cache_dir) if cache_dir is not None else None
    if max_bytes is not _UNSET:
        _state["max_bytes"] = int(max_bytes) if max_bytes is not None else None
    _KERNELS.clear()


def reset(*, counters: bool = False) -> None:
    """Forget the compiler-probe verdict and all loaded kernel handles.

    The on-disk cache is untouched — a later probe re-discovers the
    compiler and cached shared objects are reloaded (as cache hits).
    With ``counters=True`` the telemetry counters restart at zero.
    Primarily a test hook (environment changes are not watched).
    """
    _state["probe"] = None
    _KERNELS.clear()
    if counters:
        _hub().counters.clear()
        _hub().timers.clear()


def cache_dir() -> Path:
    """The active kernel-cache directory (override > env > default)."""
    configured = _state["cache_dir"]
    if configured is not None:
        return configured
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env) / "cc-kernels"
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "cc-kernels"


def cache_limit_bytes() -> int:
    """The active cache size bound in bytes."""
    configured = _state["max_bytes"]
    return configured if configured is not None else _DEFAULT_MAX_BYTES


# ---------------------------------------------------------------------------
# Compiler discovery
# ---------------------------------------------------------------------------


def compiler_probe(*, refresh: bool = False) -> tuple[str | None, str | None]:
    """``(compiler, None)`` when a working C compiler exists, else
    ``(None, reason)``.

    The probe resolves ``$CC`` (or the first of ``cc``/``gcc``/``clang``
    on ``PATH``) and proves it can build a trivial shared object; the
    verdict is cached until :func:`reset`.  A compiler that resolves
    but cannot compile counts ``cc_compile_failures`` — that is the
    signal the broken-``cc`` fallback tests assert on.
    """
    if not refresh and _state["probe"] is not None:
        return _state["probe"]
    verdict = _probe_uncached()
    _state["probe"] = verdict
    return verdict


def _probe_uncached() -> tuple[str | None, str | None]:
    env = os.environ.get("CC")
    names = [env] if env else list(_COMPILER_CANDIDATES)
    compiler = None
    for name in names:
        path = shutil.which(name)
        if path:
            compiler = path
            break
    if compiler is None:
        if env:
            return None, f"$CC={env!r} is not on PATH or not executable"
        return None, (
            "no C compiler found (install cc/gcc/clang or point $CC at one)"
        )
    try:
        with tempfile.TemporaryDirectory(prefix="repro-cc-probe-") as tmp:
            source = Path(tmp) / "probe.c"
            source.write_text("int repro_cc_probe(void) { return 0; }\n", encoding="utf-8")
            target = Path(tmp) / "probe.so"
            proc = subprocess.run(
                [compiler, *_CFLAGS, "-o", str(target), str(source)],
                capture_output=True,
                text=True,
                timeout=_COMPILE_TIMEOUT_S,
            )
    except (OSError, subprocess.TimeoutExpired) as error:
        _hub().emit("cc_compile_failures")
        return None, f"C compiler {compiler} could not be run ({error})"
    if proc.returncode != 0:
        _hub().emit("cc_compile_failures")
        tail = (proc.stderr or proc.stdout).strip().splitlines()
        detail = tail[-1] if tail else f"exit status {proc.returncode}"
        return None, f"C compiler {compiler} cannot build shared objects ({detail})"
    return compiler, None


def availability() -> str | None:
    """``None`` when the backend can run here, else a human-readable
    reason (the :class:`~repro.exceptions.ConfigError` payload)."""
    _compiler, reason = compiler_probe()
    return reason


# ---------------------------------------------------------------------------
# On-disk kernel cache
# ---------------------------------------------------------------------------


def cache_key(graph: SDFGraph, observe: str) -> str:
    """Content address of the ``(graph, observe)`` kernel.

    Covers the canonical :func:`~repro.io.jsonio.graph_fingerprint`
    *plus* the actor/channel declaration order — the compiled kernel's
    caps layout and actor indices are positional, so two graphs with
    equal fingerprints but different insertion orders must not share a
    shared object — and the codegen version, so generator changes
    invalidate every older entry without touching the disk.
    """
    layout = json.dumps(
        [
            _graph_fingerprint(graph),
            list(graph.actor_names),
            list(graph.channel_names),
            observe,
            _cgen().CODEGEN_VERSION,
        ]
    )
    return sha256(layout.encode("utf-8")).hexdigest()[:32]


class KernelCache:
    """Content-addressed ``<key>.c`` + ``<key>.so`` pairs with LRU
    eviction by access time and atomic writes."""

    def __init__(self, directory: Path, max_bytes: int):
        self.directory = Path(directory)
        self.max_bytes = max_bytes

    def so_path(self, key: str) -> Path:
        return self.directory / f"{key}.so"

    def lookup(self, key: str) -> Path | None:
        """The cached shared object for *key*, LRU-touched; ``None`` on miss.

        The touch is best effort: an entry in a cache this process
        cannot write (a read-only home) is still a hit.
        """
        path = self.so_path(key)
        try:
            os.utime(path)
        except FileNotFoundError:
            return None
        except OSError:
            if not os.path.isfile(path):
                return None
        return path

    def store(self, key: str, source: str, compiler: str) -> Path:
        """Compile *source* into the cache under *key* (atomically).

        Raises :class:`~repro.exceptions.EngineError`, counted as
        ``cc_compile_failures``, when the compiler fails or the cache
        directory cannot be written (read-only or full disk, no home).
        """
        c_path = self.directory / f"{key}.c"
        so_path = self.so_path(key)
        # Temp names keep their real extensions (cc dispatches on them)
        # but carry the pid so concurrent writers never collide; the
        # final os.replace is the atomic publish.
        c_tmp = self.directory / f"{key}.{os.getpid()}.tmp.c"
        so_tmp = self.directory / f"{key}.{os.getpid()}.tmp.so"
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            c_tmp.write_text(source, encoding="utf-8")
            try:
                proc = subprocess.run(
                    [compiler, *_CFLAGS, "-o", str(so_tmp), str(c_tmp)],
                    capture_output=True,
                    text=True,
                    timeout=_COMPILE_TIMEOUT_S,
                )
            except (OSError, subprocess.TimeoutExpired) as error:
                _hub().emit("cc_compile_failures")
                raise EngineError(
                    f"C compiler {compiler} could not be run ({error})"
                ) from error
            if proc.returncode != 0:
                _hub().emit("cc_compile_failures")
                tail = (proc.stderr or proc.stdout).strip().splitlines()
                detail = "\n".join(tail[-5:]) or f"exit status {proc.returncode}"
                raise EngineError(
                    f"C compiler {compiler} failed on the generated kernel:\n{detail}"
                )
            os.replace(c_tmp, c_path)
            os.replace(so_tmp, so_path)
        except OSError as error:
            _hub().emit("cc_compile_failures")
            raise EngineError(
                f"kernel cache {self.directory} cannot be written ({error})"
            ) from error
        finally:
            for tmp in (c_tmp, so_tmp):
                try:
                    tmp.unlink()
                except OSError:
                    pass
        _hub().emit("cc_compiles")
        self.evict(keep=key)
        return so_path

    def remove(self, key: str) -> None:
        for path in (self.so_path(key), self.directory / f"{key}.c"):
            try:
                path.unlink()
            except OSError:
                pass

    def evict(self, keep: str | None = None) -> None:
        """Drop least-recently-used entries until the cache fits
        :attr:`max_bytes`; the entry *keep* is never evicted."""
        entries = []
        total = 0
        try:
            shared_objects = list(self.directory.glob("*.so"))
        except OSError:
            return
        for so in shared_objects:
            key = so.stem
            try:
                stat = so.stat()
            except OSError:
                continue
            size = stat.st_size
            try:
                size += (self.directory / f"{key}.c").stat().st_size
            except OSError:
                pass
            entries.append((stat.st_mtime, key, size))
            total += size
        for _mtime, key, size in sorted(entries):
            if total <= self.max_bytes:
                break
            if key == keep:
                continue
            self.remove(key)
            total -= size
            _hub().emit("cc_cache_evictions")


# ---------------------------------------------------------------------------
# Binding + execution
# ---------------------------------------------------------------------------


def _bind(path: Path, graph: SDFGraph) -> ctypes.CDLL:
    """Load and handshake a kernel shared object.

    Raises ``OSError`` (dlopen failure), ``AttributeError`` (missing
    symbol) or :class:`_KernelBinaryError` (ABI/shape mismatch) — all
    of which the caller treats as a corrupt cache entry.
    """
    lib = ctypes.CDLL(str(path))
    for name in ("repro_kernel_abi", "repro_kernel_actors", "repro_kernel_channels"):
        fn = getattr(lib, name)
        fn.restype = ctypes.c_int64
        fn.argtypes = []
    probe = lib.probe_many_exact
    probe.restype = ctypes.c_int32
    probe.argtypes = [
        ctypes.POINTER(ctypes.c_int64),
        ctypes.c_int32,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_int32,
        ctypes.POINTER(ctypes.c_int64),
    ]
    expected_abi = _cgen().KERNEL_ABI
    abi = lib.repro_kernel_abi()
    if abi != expected_abi:
        raise _KernelBinaryError(f"kernel ABI {abi} != expected {expected_abi}")
    shape = (lib.repro_kernel_actors(), lib.repro_kernel_channels())
    if shape != (graph.num_actors, graph.num_channels):
        raise _KernelBinaryError(
            f"kernel shape {shape} != graph shape"
            f" {(graph.num_actors, graph.num_channels)}"
        )
    return lib


#: The resource-limit statuses of ``probe_many_exact`` (the kernel's
#: ``RC_*`` codes) and what each means, raised as
#: :class:`~repro.exceptions.KernelLimitError`; see
#: :func:`repro.codegen.cgen.generate_kernel_c`.
_STATUS_ERRORS = {
    2: "the compiled probe kernel ran out of memory",
    3: "a completion time exceeds the compiled kernel's int64 range",
    4: "a cycle's firings or duration exceed the compiled kernel's int64 range",
    5: "the state space exceeds the compiled kernel's int32 record index",
}


class CompiledKernel:
    """A loaded per-``(graph, observe)`` kernel shared object.

    :meth:`run_lanes` is the raw exact interface: capacity rows in the
    graph's channel order (``None`` = unbounded) map to one
    ``(firings_in_cycle, cycle_duration, states_stored, deadlocked,
    space_deficits)`` tuple per lane.  Throughput is the exact
    ``Fraction(firings_in_cycle, cycle_duration)`` — reconstructed by
    the backend so no precision is lost crossing the C boundary.
    ``space_deficits`` maps every channel whose lack of space blocked
    a firing to its minimal deficit when *blocking* is requested, and
    is ``None`` otherwise.
    """

    def __init__(self, graph: SDFGraph, observe: str, lib: ctypes.CDLL, path: Path):
        # Keeps what its probes use, never the graph itself: the graph
        # is the key of the weak kernel table that holds this kernel.
        self.observe = observe
        self.path = path
        self.channel_names = graph.channel_names
        self.channel_index = {name: j for j, name in enumerate(self.channel_names)}
        self.initial_tokens = [graph.channels[name].initial_tokens for name in self.channel_names]
        self.num_channels = graph.num_channels
        self._lib = lib
        self._probe = lib.probe_many_exact

    def run_lanes(
        self,
        capacity_rows: Sequence[Sequence[int | None]],
        *,
        stall_threshold: int,
        max_firings: int,
        blocking: bool = False,
    ) -> list[tuple[int, int, int, bool, dict[str, int] | None]]:
        lanes = len(capacity_rows)
        if lanes == 0:
            return []
        flat = [
            _UNBOUNDED if cap is None else cap
            for row in capacity_rows
            for cap in row
        ]
        caps = (ctypes.c_int64 * max(1, len(flat)))(*flat)
        stride = 4 + (self.num_channels if blocking else 0)
        out = (ctypes.c_int64 * (lanes * stride))()
        rc = self._probe(caps, lanes, stall_threshold, max_firings, int(blocking), out)
        if rc == 1:
            raise EngineError(
                f"more than {max_firings} firings in one time instant;"
                " a zero-execution-time cascade diverges (unbounded channel?)"
            )
        if rc in _STATUS_ERRORS:
            raise KernelLimitError(_STATUS_ERRORS[rc])
        if rc != 0:
            raise EngineError(f"compiled probe kernel failed with status {rc}")
        rows = []
        for lane in range(lanes):
            base = lane * stride
            deficits = None
            if blocking:
                deficits = {
                    name: out[base + 4 + c]
                    for c, name in enumerate(self.channel_names)
                    if out[base + 4 + c]
                }
            rows.append(
                (out[base], out[base + 1], out[base + 2], bool(out[base + 3]), deficits)
            )
        return rows


def kernel_for(graph: SDFGraph, observe: str | None = None) -> CompiledKernel:
    """The (cached) compiled kernel of *graph* for *observe*.

    Resolution order: in-process weak handle cache, then the on-disk
    shared-object cache (``cc_cache_hits``), then a fresh compile
    (``cc_compiles``).  Raises :class:`~repro.exceptions.ConfigError`
    when no working C compiler is available.
    """
    return _kernel(graph, observe, compile=True)


def cached_kernel(graph: SDFGraph, observe: str | None = None) -> CompiledKernel | None:
    """The kernel of *graph* for *observe* if it is loaded in this
    process or in the on-disk cache (``cc_cache_hits``), else ``None``.

    Never compiles and needs no compiler: the ``tiered`` backend's
    first look at a graph, which decides whether the graph starts on C.
    A corrupt cache entry is dropped (``cc_cache_corrupt``) and reads as
    a miss.
    """
    return _kernel(graph, observe, compile=False)


def _kernel(graph: SDFGraph, observe: str | None, *, compile: bool) -> CompiledKernel | None:
    if graph.num_actors == 0:
        raise GraphError("cannot execute an empty graph")
    if observe is None:
        observe = graph.actor_names[-1]
    if observe not in graph.actors:
        raise GraphError(f"unknown observed actor {observe!r}")
    shape = (graph.num_actors, graph.num_channels)
    cached = _KERNELS.get(graph)
    if cached is None or cached[0] != shape:
        cached = (shape, {})
        _KERNELS[graph] = cached
    kernels = cached[1]
    kernel = kernels.get(observe)
    if kernel is not None:
        return kernel
    cache = KernelCache(cache_dir(), cache_limit_bytes())
    key = cache_key(graph, observe)
    if not compile and not os.path.isfile(cache.so_path(key)):
        # A miss waits for no compile of another thread.
        return None
    with _COMPILE_LOCK:
        kernel = kernels.get(observe)
        if kernel is None:
            kernel = _compile_or_load(graph, observe, cache, key, compile)
            if kernel is not None:
                kernels[observe] = kernel
    return kernel


#: Monotonic suffix for retry-load temp copies (see ``_bind_fresh``).
_LOAD_SERIAL = itertools.count()


def _bind_fresh(path: Path, graph: SDFGraph, key: str) -> ctypes.CDLL:
    """Bind *path* through a uniquely named temp copy.

    ``dlopen`` caches handles by *pathname*: after a corrupt entry was
    detected and recompiled, loading the replacement from the same path
    would hand back the stale mapping.  The copy's name is fresh, so
    the loader maps the new file; unlinking it immediately is safe —
    the mapping keeps the inode alive for the process's lifetime.
    """
    unique = path.parent / f"{key}.{os.getpid()}.{next(_LOAD_SERIAL)}.load.so"
    shutil.copy2(path, unique)
    try:
        return _bind(unique, graph)
    finally:
        try:
            unique.unlink()
        except OSError:
            pass


def _compile_or_load(
    graph: SDFGraph, observe: str, cache: KernelCache, key: str, compile: bool
) -> CompiledKernel | None:
    compiler = None
    if compile:
        compiler, reason = compiler_probe()
        if compiler is None:
            raise ConfigError(f"probe backend 'cc' is unavailable: {reason}")
    last_error: Exception | None = None
    for attempt in range(2):
        path = cache.lookup(key)
        if path is None:
            if compiler is None:
                return None
            source = _cgen().generate_kernel_c(graph, observe)
            path = cache.store(key, source, compiler)
        else:
            _hub().emit("cc_cache_hits")
        try:
            # The retry must not reuse the dlopen pathname handle the
            # corrupt first attempt may have pinned.
            lib = _bind(path, graph) if attempt == 0 else _bind_fresh(path, graph, key)
        except (OSError, AttributeError, _KernelBinaryError) as error:
            # Corrupt entry (truncated file, foreign binary, stale
            # ABI): drop it and recompile once instead of crashing.
            _hub().emit("cc_cache_corrupt")
            cache.remove(key)
            last_error = error
            continue
        return CompiledKernel(graph, observe, lib, path)
    if compiler is None:
        return None  # a lookup: an entry that will not load is a miss
    raise EngineError(
        f"freshly compiled kernel {cache.so_path(key)} failed to load:"
        f" {last_error}"
    )
