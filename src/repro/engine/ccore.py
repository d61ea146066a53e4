"""Compile plane of the ``"cc"`` probe backend ("buffy-native").

The paper's own ``buffy`` tool reaches its throughput by generating a
dedicated C explorer per graph (Sec. 10, Fig. 8).  This backend keeps
the compiled probe loop but not the per-graph program: one fixed
kernel source (:mod:`repro.engine.ckernel`) takes the graph as a struct
of tables, so a host compiles it at most once, with the platform C
compiler via :mod:`ctypes` (no runtime dependency beyond a working
``cc``), into an on-disk cache keyed by the kernel source, the
compiler and the flags.  The service and repeated CLI runs load that
one shared object across processes and restarts.

Layering: this module owns *building, caching and binding*.
:func:`kernel_for` binds a graph's tables to the loaded library and
returns a :class:`CompiledKernel`, whose :meth:`~CompiledKernel.run_lanes`
gives raw ``(firings, duration, states, deadlocked, deficits)`` tuples;
the :class:`~repro.engine.backends.CcBackend` registered in
:mod:`repro.engine.backends` wraps them into exact
:class:`~repro.engine.backends.EvalResult`\\ s (``Fraction(firings,
duration)``) and plugs into the probe-backend seam.  A kernel that
cannot finish exactly — a diverging zero-time cascade, an ``int64``
overflow of a completion time or a cycle sum, a visited set beyond its
``int32`` index, or memory exhaustion — returns a status code that
:meth:`CompiledKernel.run_lanes` raises as an
:class:`~repro.exceptions.EngineError` naming the cause; the four
resource limits raise its subclass
:class:`~repro.exceptions.KernelLimitError`, on which the evaluation
service reruns the batch on ``fastcore`` when ``backend="auto"``
selected ``cc``.  A graph whose tables do not fit ``int64`` raises the
same error from :func:`kernel_for`; capacities beyond the unbounded
stand-in are packed as unbounded.

Availability
------------
The backend is available when its kernel loads: from the cache (no
compiler runs at all) or built now with ``$CC``, else the first of
``cc`` / ``gcc`` / ``clang`` on ``PATH``.  :func:`compiler_probe`
returns that verdict and caches it until :func:`reset`.  On hosts
where the kernel neither loads nor builds the backend stays registered
but reports itself unavailable, with the compiler's reason:
``backend="auto"`` resolution then picks ``fastcore`` silently, while
asking for ``backend="cc"`` explicitly raises
:class:`~repro.exceptions.ConfigError`.  A failed build counts the
``cc_compile_failures`` telemetry counter.

Cache hygiene
-------------
The on-disk cache (``$REPRO_CACHE_DIR/cc-kernels``, else
``$XDG_CACHE_HOME/repro/cc-kernels``, else ``~/.cache/repro/cc-kernels``;
overridable via :func:`configure` / the CLI ``--codegen-cache-dir``)
stores ``<key>.c`` + ``<key>.so`` pairs, written atomically
(temp-file + rename): one per kernel source, compiler and flag set.
It is size-bounded with LRU eviction by access time, and corrupt
entries — truncated files, foreign binaries, stale ABIs — are detected
at load time (missing symbols, ``dlopen`` failure, ABI handshake
mismatch), unlinked, and rebuilt instead of crashing the run.

Telemetry: the module-level :data:`telemetry` hub counts
``cc_compiles``, ``cc_cache_hits``, ``cc_compile_failures``,
``cc_cache_corrupt`` and ``cc_cache_evictions``; the analysis service
exposes them as Prometheus gauges on ``/v1/metrics``.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import os
import shutil
import subprocess
import threading
import weakref
from hashlib import sha256
from pathlib import Path
from collections.abc import Sequence

from repro.engine.ckernel import KERNEL_ABI, SOURCE
from repro.exceptions import ConfigError, EngineError, GraphError, KernelLimitError
from repro.graph.graph import SDFGraph

#: Stand-in capacity for unbounded channels in the int64 caps array:
#: large enough that ``tokens + production`` cannot reach it before the
#: firing guard.  Larger capacities are packed as this value too: a
#: channel bounded that high already behaves as unbounded.
_UNBOUNDED = 2**62

#: The largest value of the kernel's ``int64`` tables.
_INT64_MAX = 2**63 - 1

#: Lazily constructed compile-plane telemetry (``cc_compiles``,
#: ``cc_cache_hits``, ``cc_compile_failures``, ``cc_cache_corrupt``,
#: ``cc_cache_evictions``), exposed as the module attribute
#: ``ccore.telemetry``.  Module-global: the kernel is shared across
#: services and jobs, so its accounting is too.  Built on first use
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

#: Flags for building a loadable kernel shared object.  ``-O1``: the
#: kernel probes as fast as at ``-O2`` (x86-64, gcc 12) and builds in
#: about half the time, which a cold ``repro serve`` start-up pays.
_CFLAGS = ("-O1", "-fPIC", "-shared")

#: Default size bound of the on-disk kernel cache (``.c`` + ``.so``).
_DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_COMPILE_TIMEOUT_S = 120

_UNSET = object()

#: Mutable module state: the availability verdict of :func:`compiler_probe`,
#: the loaded kernel library and the :func:`configure` overrides.
_state: dict = {"probe": None, "lib": None, "cache_dir": None, "max_bytes": None}

#: Weak per-graph binding cache: {graph: (shape, {observe: kernel})},
#: mirroring ``fastcore._KERNELS``.
_KERNELS: "weakref.WeakKeyDictionary[SDFGraph, tuple[tuple[int, int], dict[str, CompiledKernel]]]" = (
    weakref.WeakKeyDictionary()
)

#: Serialises the one load-or-build of the kernel library.
_COMPILE_LOCK = threading.Lock()


class _KernelBinaryError(Exception):
    """A cached shared object failed the load-time handshake."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def configure(*, cache_dir: str | Path | None | object = _UNSET,
              max_bytes: int | None | object = _UNSET) -> None:
    """Override the kernel-cache location and/or size bound.

    Passing ``None`` restores the environment/default resolution for
    that setting.  The loaded kernel and the availability verdict are
    dropped so the new location takes effect immediately.
    """
    if cache_dir is not _UNSET:
        _state["cache_dir"] = Path(cache_dir) if cache_dir is not None else None
    if max_bytes is not _UNSET:
        _state["max_bytes"] = int(max_bytes) if max_bytes is not None else None
    reset()


def reset(*, counters: bool = False) -> None:
    """Forget the availability verdict, the loaded kernel and every
    graph binding.

    The on-disk cache is untouched — the next lookup loads the cached
    shared object again (as a cache hit).  With ``counters=True`` the
    telemetry counters restart at zero.  Primarily a test hook
    (environment changes are not watched).
    """
    _state["probe"] = None
    _state["lib"] = None
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
# Availability: the kernel loads or builds
# ---------------------------------------------------------------------------


def compiler_probe() -> tuple[str | None, str | None]:
    """``(compiler, None)`` when the probe kernel loads from the cache or
    builds now, else ``(None, reason)``.

    The compiler is ``$CC`` or the first of ``cc``/``gcc``/``clang`` on
    ``PATH``; it is part of the cache key, and runs only on a cache
    miss.  The verdict, and the loaded kernel, are kept until
    :func:`reset`.  A build that fails counts ``cc_compile_failures``.
    """
    with _COMPILE_LOCK:
        if _state["probe"] is None:
            _state["probe"] = _load_or_build()
        return _state["probe"]


def _find_compiler() -> tuple[str | None, str | None]:
    env = os.environ.get("CC")
    for name in [env] if env else _COMPILER_CANDIDATES:
        path = shutil.which(name)
        if path:
            return path, None
    if env:
        return None, f"$CC={env!r} is not on PATH or not executable"
    return None, "no C compiler found (install cc/gcc/clang or point $CC at one)"


def _load_or_build() -> tuple[str | None, str | None]:
    compiler, reason = _find_compiler()
    if compiler is None:
        return None, reason
    try:
        _state["lib"] = _open_library(compiler)
    except EngineError as error:
        return None, str(error)
    return compiler, None


def availability() -> str | None:
    """``None`` when the backend can run here, else a human-readable
    reason (the :class:`~repro.exceptions.ConfigError` payload)."""
    _compiler, reason = compiler_probe()
    return reason


# ---------------------------------------------------------------------------
# On-disk kernel cache
# ---------------------------------------------------------------------------


def cache_key(compiler: str) -> str:
    """Content address of the probe kernel built by *compiler*.

    Covers the kernel source, the compiler's path and the flags, so a
    kernel change or another compiler gets an entry of its own, and
    older entries are simply never looked up again.
    """
    recipe = json.dumps([SOURCE, compiler, list(_CFLAGS)])
    return sha256(recipe.encode("utf-8")).hexdigest()[:32]


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
                    f"C compiler {compiler} cannot build the probe kernel ({detail})"
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
# Loading the library
# ---------------------------------------------------------------------------


class _Graph(ctypes.Structure):
    """The kernel's ``Graph`` struct (see :mod:`repro.engine.ckernel`)."""

    _fields_ = [
        ("actors", ctypes.c_int32),
        ("channels", ctypes.c_int32),
        ("observe", ctypes.c_int32),
        ("exec_time", ctypes.POINTER(ctypes.c_int64)),
        ("initial_tokens", ctypes.POINTER(ctypes.c_int64)),
        ("cons_rate", ctypes.POINTER(ctypes.c_int64)),
        ("prod_rate", ctypes.POINTER(ctypes.c_int64)),
        ("in_off", ctypes.POINTER(ctypes.c_int32)),
        ("in_ch", ctypes.POINTER(ctypes.c_int32)),
        ("out_off", ctypes.POINTER(ctypes.c_int32)),
        ("out_ch", ctypes.POINTER(ctypes.c_int32)),
    ]


def _bind(path: Path) -> ctypes.CDLL:
    """Load and handshake a kernel shared object.

    Raises ``OSError`` (dlopen failure), ``AttributeError`` (missing
    symbol) or :class:`_KernelBinaryError` (ABI mismatch) — all of
    which the caller treats as a corrupt cache entry.
    """
    lib = ctypes.CDLL(str(path))
    abi = lib.repro_kernel_abi
    abi.restype = ctypes.c_int64
    abi.argtypes = []
    probe = lib.probe_many_exact
    probe.restype = ctypes.c_int32
    probe.argtypes = [
        ctypes.POINTER(_Graph),
        ctypes.POINTER(ctypes.c_int64),
        ctypes.c_int32,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_int32,
        ctypes.POINTER(ctypes.c_int64),
    ]
    found = abi()
    if found != KERNEL_ABI:
        raise _KernelBinaryError(f"kernel ABI {found} != expected {KERNEL_ABI}")
    return lib


#: Monotonic suffix for retry-load temp copies (see ``_bind_fresh``).
_LOAD_SERIAL = itertools.count()


def _bind_fresh(path: Path, key: str) -> ctypes.CDLL:
    """Bind *path* through a uniquely named temp copy.

    ``dlopen`` caches handles by *pathname*: after a corrupt entry was
    detected and rebuilt, loading the replacement from the same path
    would hand back the stale mapping.  The copy's name is fresh, so
    the loader maps the new file; unlinking it immediately is safe —
    the mapping keeps the inode alive for the process's lifetime.
    """
    unique = path.parent / f"{key}.{os.getpid()}.{next(_LOAD_SERIAL)}.load.so"
    shutil.copy2(path, unique)
    try:
        return _bind(unique)
    finally:
        try:
            unique.unlink()
        except OSError:
            pass


def _open_library(compiler: str) -> ctypes.CDLL:
    """The kernel library from the cache (``cc_cache_hits``), else built
    now with *compiler* (``cc_compiles``); raises
    :class:`~repro.exceptions.EngineError` when it can be neither."""
    cache = KernelCache(cache_dir(), cache_limit_bytes())
    key = cache_key(compiler)
    last_error: Exception | None = None
    for attempt in range(2):
        path = cache.lookup(key)
        if path is None:
            path = cache.store(key, SOURCE, compiler)
        else:
            _hub().emit("cc_cache_hits")
        try:
            # The retry must not reuse the dlopen pathname handle the
            # corrupt first attempt may have pinned.
            return _bind(path) if attempt == 0 else _bind_fresh(path, key)
        except (OSError, AttributeError, _KernelBinaryError) as error:
            # Corrupt entry (truncated file, foreign binary, stale
            # ABI): drop it and rebuild once instead of crashing.
            _hub().emit("cc_cache_corrupt")
            cache.remove(key)
            last_error = error
    raise EngineError(
        f"freshly compiled kernel {cache.so_path(key)} failed to load: {last_error}"
    )


def _library() -> ctypes.CDLL:
    """The loaded kernel library, loaded or built on first use; raises
    :class:`~repro.exceptions.ConfigError` when it is unavailable."""
    lib = _state["lib"]
    if lib is None:
        _compiler, reason = compiler_probe()
        lib = _state["lib"]
        if reason is not None or lib is None:
            raise ConfigError(f"probe backend 'cc' is unavailable: {reason}")
    return lib


# ---------------------------------------------------------------------------
# Binding a graph + execution
# ---------------------------------------------------------------------------


#: The resource-limit statuses of ``probe_many_exact`` (the kernel's
#: ``RC_*`` codes) and what each means, raised as
#: :class:`~repro.exceptions.KernelLimitError`; see
#: :mod:`repro.engine.ckernel`.
_STATUS_ERRORS = {
    2: "the compiled probe kernel ran out of memory",
    3: "a completion time exceeds the compiled kernel's int64 range",
    4: "a cycle's firings or duration exceed the compiled kernel's int64 range",
    5: "the state space exceeds the compiled kernel's int32 record index",
}


def _array(ctype, values: list[int]):
    return (ctype * max(1, len(values)))(*values)


def _int64_array(values: list[int]):
    """*values* as a ``c_int64`` array; ctypes would wrap larger ones."""
    if any(value > _INT64_MAX for value in values):
        raise KernelLimitError("a graph table value exceeds the compiled kernel's int64 range")
    return _array(ctypes.c_int64, values)


def _graph_struct(graph: SDFGraph, observe: str, channel_index: dict[str, int]) -> _Graph:
    """*graph*'s tables as the kernel's ``Graph`` struct.

    Rates live on the channel (each channel has a unique producer and a
    unique consumer); each actor's input and output channels are
    flattened into offset/index arrays.  The struct keeps its arrays
    alive.
    """
    channels = [graph.channels[name] for name in graph.channel_names]
    in_off, in_ch, out_off, out_ch = [0], [], [0], []
    for name in graph.actor_names:
        in_ch.extend(channel_index[c.name] for c in graph.incoming(name))
        in_off.append(len(in_ch))
        out_ch.extend(channel_index[c.name] for c in graph.outgoing(name))
        out_off.append(len(out_ch))
    return _Graph(
        graph.num_actors,
        graph.num_channels,
        graph.actor_names.index(observe),
        _int64_array([graph.actors[name].execution_time for name in graph.actor_names]),
        _int64_array([c.initial_tokens for c in channels]),
        _int64_array([c.consumption for c in channels]),
        _int64_array([c.production for c in channels]),
        _array(ctypes.c_int32, in_off),
        _array(ctypes.c_int32, in_ch),
        _array(ctypes.c_int32, out_off),
        _array(ctypes.c_int32, out_ch),
    )


class CompiledKernel:
    """The kernel library bound to one ``(graph, observe)`` pair's tables.

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

    def __init__(self, graph: SDFGraph, observe: str, lib: ctypes.CDLL):
        # Keeps what its probes use, never the graph itself: the graph
        # is the key of the weak kernel table that holds this kernel.
        self.observe = observe
        self.channel_names = graph.channel_names
        self.channel_index = {name: j for j, name in enumerate(self.channel_names)}
        self.initial_tokens = [graph.channels[name].initial_tokens for name in self.channel_names]
        self.num_channels = graph.num_channels
        self._graph = _graph_struct(graph, observe, self.channel_index)
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
            _UNBOUNDED if cap is None or cap > _UNBOUNDED else cap
            for row in capacity_rows
            for cap in row
        ]
        caps = (ctypes.c_int64 * max(1, len(flat)))(*flat)
        stride = 4 + (self.num_channels if blocking else 0)
        out = (ctypes.c_int64 * (lanes * stride))()
        rc = self._probe(
            ctypes.byref(self._graph), caps, lanes, stall_threshold, max_firings,
            int(blocking), out,
        )
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
    """The kernel library bound to *graph*'s tables for *observe*.

    The binding is cached weakly per graph; the library itself is
    loaded (``cc_cache_hits``) or built (``cc_compiles``) once per
    process.  Raises :class:`~repro.exceptions.ConfigError` when the
    kernel is unavailable on this host, and
    :class:`~repro.exceptions.KernelLimitError` when a table value
    (execution time, initial tokens, rate) is beyond ``int64``.
    """
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
    if kernel is None:
        kernel = kernels[observe] = CompiledKernel(graph, observe, _library())
    return kernel
