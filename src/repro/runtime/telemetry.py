"""Structured telemetry for long-running explorations.

A :class:`TelemetryHub` is a lightweight event/metrics registry shared
by the run controller, the evaluation service, the worker pool and the
exploration strategies.  Every notable step emits a named event
(``probe_start``, ``probe_finish``, ``cache_hit``, ``bounds_exact``,
``frontier_update``, ``pool_restart``, ...); the hub

* keeps a monotonically increasing **counter** per event name (and
  plain counts without an event), high-water **peaks** and **notes**,
* aggregates **timers** (count + total seconds) for timed sections,
* optionally forwards every event to a user callback (the
  ``on_event`` field of
  :class:`~repro.runtime.config.ExplorationConfig`), and
* renders everything as one JSON-friendly dict (:meth:`snapshot`) —
  the payload behind the CLI's ``--stats-json``.

The hub is the one place where a run's counters live; ``docs/RUNTIME
.md`` tabulates each one and where it shows.

The hub never buffers events, so memory stays constant no matter how
long a run lasts; consumers that want a trace simply append events in
their callback.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Mapping
from typing import NamedTuple

#: Event names emitted by the built-in instrumentation.  User code may
#: emit additional names; these are the ones documented in
#: ``docs/RUNTIME.md``.
KNOWN_EVENTS = (
    "run_start",
    "run_finish",
    "probe_start",
    "probe_finish",
    "cache_hit",
    "bounds_exact",
    "bounds_cut",
    "frontier_update",
    "pool_restart",
    "pool_fallback",
    "budget_exhausted",
    "checkpoint_saved",
    "checkpoint_restored",
    "breaker_open",
    "breaker_half_open",
    "breaker_close",
    "breaker_rejected",
)


class RunStats(NamedTuple):
    """A hub's counters under the names of the evaluation service's
    ``stats``, a checkpoint's ``stats`` section and ``ExplorationStats``
    (:meth:`TelemetryHub.stats`), earlier legs of a resumed run included."""

    evaluations: int
    max_states_stored: int
    sizes_probed: int
    threshold_scans: int
    cache_hits: int
    workers: int
    parallel_batches: int
    parallel_tasks: int
    fast_runs: int
    pool_restarts: int
    pool_fallback_reason: str | None
    bounds_exact: int
    bounds_cut: int


#: :class:`RunStats` fields kept as peaks, and the counted ones; a
#: counted field renders the counter of its own name or the event below.
_STAT_PEAKS = ("max_states_stored", "workers")
_COUNTED = frozenset(RunStats._fields) - {*_STAT_PEAKS, "pool_fallback_reason"}
_STAT_COUNTERS = {
    "evaluations": "probe_start", "cache_hits": "cache_hit", "pool_restarts": "pool_restart"
}
#: Counts a resumed run makes again: its replay rescans (or, in a sweep,
#: re-evaluates) every size of the earlier legs, so those legs' counts
#: are not added.
_REPLAYED = frozenset({"sizes_probed", "threshold_scans"})


class TraceLog:
    """Bounded, thread-safe log of completed request spans.

    The service mints one ``trace_id`` per HTTP request and records the
    finished span here — route, status, duration, and whatever extra
    fields the handler attached (job id, job class).  The log is a ring:
    the oldest span falls out once ``limit`` is reached, so memory stays
    constant under heavy traffic.  ``GET /v1/traces[/<id>]`` serves it,
    which is also how tests assert that a response's ``trace_id``
    matches the server-side span.
    """

    def __init__(self, limit: int = 512):
        if limit < 1:
            raise ValueError("trace log limit must be >= 1")
        self.limit = int(limit)
        self._lock = threading.Lock()
        self._spans: "OrderedDict[str, dict]" = OrderedDict()

    def record(self, trace_id: str, name: str, **data: object) -> dict:
        """Record (or update) the span for *trace_id*; returns the span."""
        with self._lock:
            span = self._spans.pop(trace_id, None)
            if span is None:
                span = {"trace_id": trace_id, "name": name}
            span.update(data)
            span["name"] = name
            self._spans[trace_id] = span
            while len(self._spans) > self.limit:
                self._spans.popitem(last=False)
            return dict(span)

    def annotate(self, trace_id: str, **data: object) -> None:
        """Add *data* to the span of *trace_id*, keeping its name.

        A span not recorded yet is started without a name; the
        request's :meth:`record` names it later.
        """
        with self._lock:
            span = self._spans.setdefault(trace_id, {"trace_id": trace_id})
            span.update(data)
            while len(self._spans) > self.limit:
                self._spans.popitem(last=False)

    def get(self, trace_id: str) -> dict | None:
        with self._lock:
            span = self._spans.get(trace_id)
            return dict(span) if span is not None else None

    def spans(self) -> list[dict]:
        """All retained spans, oldest first."""
        with self._lock:
            return [dict(span) for span in self._spans.values()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured event: a name, a payload and a relative timestamp."""

    name: str
    data: Mapping[str, object] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        return {"event": self.name, "elapsed_s": self.elapsed_s, **dict(self.data)}


class TelemetryHub:
    """Counters, timers and an optional event callback.

    Counters add up over merged hubs, peaks take the maximum and a note
    keeps its first value.  A resumed run's earlier legs (:meth:`carry`)
    count in :meth:`stats` but not in :attr:`counters`, so a server that
    merges its jobs' hubs counts only what its own process ran.

    Parameters
    ----------
    on_event:
        Called with every :class:`TelemetryEvent` as it happens.
        Exceptions raised by the callback propagate to the emitter —
        telemetry consumers are part of the run and silently swallowing
        their failures would hide real bugs.
    clock:
        Injectable monotonic clock (tests freeze it).
    """

    def __init__(
        self,
        on_event: Callable[[TelemetryEvent], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
        traces: "TraceLog | None" = None,
    ):
        self._on_event = on_event
        self._clock = clock
        self._started = clock()
        self.counters: dict[str, int] = {}
        #: Counts of the earlier legs of a resumed run (:meth:`carry`).
        self.carried: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self.notes: dict[str, str] = {}
        self.timers: dict[str, dict[str, float]] = {}
        #: Optional request-span log (the service wires one in; plain
        #: exploration hubs leave it ``None``).
        self.traces = traces

    @property
    def elapsed_s(self) -> float:
        """Seconds since the hub was created (run start)."""
        return self._clock() - self._started

    def emit(self, name: str, **data: object) -> None:
        """Count event *name* and forward it to the callback, if any."""
        self.counters[name] = self.counters.get(name, 0) + 1
        if self._on_event is not None:
            self._on_event(TelemetryEvent(name, data, self.elapsed_s))

    def count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name*; no event is emitted."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        """Raise the high-water mark *name* to *value* if it is higher."""
        if value > self.peaks.get(name, 0):
            self.peaks[name] = value

    def note(self, name: str, text: str) -> None:
        """Keep *text* under *name* unless a note is already there."""
        self.notes.setdefault(name, text)

    def carry(self, stats: Mapping) -> None:
        """Add an earlier leg's :class:`RunStats` payload (a checkpoint's
        ``stats`` section) to this run; ``workers``, the fallback reason
        and the counts the replay makes again (``sizes_probed``,
        ``threshold_scans``) stay this leg's, unknown keys are ignored."""
        for name, value in stats.items():
            if name == "max_states_stored":
                self.peak(name, value)
            elif name in _COUNTED and name not in _REPLAYED:
                counter = _STAT_COUNTERS.get(name, name)
                self.carried[counter] = self.carried.get(counter, 0) + value

    def stats(self) -> RunStats:
        """The run's counters as :class:`RunStats` (carried legs included)."""
        values: dict[str, object] = {name: self.peaks.get(name, 0) for name in _STAT_PEAKS}
        values["pool_fallback_reason"] = self.notes.get("pool_fallback_reason")
        for name in _COUNTED:
            counter = _STAT_COUNTERS.get(name, name)
            values[name] = self.counters.get(counter, 0) + self.carried.get(counter, 0)
        return RunStats(**values)

    def record_time(self, name: str, seconds: float) -> None:
        """Fold *seconds* into the aggregate timer *name*."""
        timer = self.timers.setdefault(name, {"count": 0, "total_s": 0.0})
        timer["count"] += 1
        timer["total_s"] += seconds

    def timed(self, name: str) -> "_TimerContext":
        """Context manager recording its duration under timer *name*."""
        return _TimerContext(self, name)

    def snapshot(self) -> dict:
        """JSON-friendly view: this process's counters and timers, and
        the run's :class:`RunStats` (``"stats"``, earlier legs included)."""
        return {
            "elapsed_s": self.elapsed_s,
            "counters": dict(sorted(self.counters.items())),
            "timers": {
                name: {"count": int(timer["count"]), "total_s": timer["total_s"]}
                for name, timer in sorted(self.timers.items())
            },
            "stats": self.stats()._asdict(),
        }

    def merge(self, other: "TelemetryHub | Mapping") -> "TelemetryHub":
        """Fold *other* into this hub by the aggregation rules.

        *other* may be a live :class:`TelemetryHub` — counters, carried
        counts, peaks, notes and timers all fold — or a
        :meth:`snapshot` payload, whose counters and timers fold.
        Timers fold both their count and total.  This is how a
        multi-scenario run sums its scenarios and per-job hubs aggregate
        into a server-wide metrics view (``repro.service``) without the
        jobs sharing a mutable hub.  Events are *not* re-emitted —
        merging is pure accounting.  Returns ``self`` for chaining.
        """
        if isinstance(other, TelemetryHub):
            counters: Mapping[str, int] = other.counters
            timers: Mapping[str, Mapping[str, float]] = other.timers
            for name, count in other.carried.items():
                self.carried[name] = self.carried.get(name, 0) + count
            for name, value in other.peaks.items():
                self.peak(name, value)
            for name, text in other.notes.items():
                self.note(name, text)
        else:
            counters = other.get("counters", {})
            timers = other.get("timers", {})
        for name, count in counters.items():
            self.counters[name] = self.counters.get(name, 0) + int(count)
        for name, timer in timers.items():
            merged = self.timers.setdefault(name, {"count": 0, "total_s": 0.0})
            merged["count"] += int(timer["count"])
            merged["total_s"] += float(timer["total_s"])
        return self


def _prom_escape(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def to_prometheus(
    hub: TelemetryHub,
    *,
    namespace: str = "repro",
    gauges: "Iterable[tuple[str, Mapping[str, str], float]] | None" = None,
) -> str:
    """Render *hub* in the Prometheus text exposition format.

    Counters become one ``<namespace>_events_total`` family labelled by
    event name; timers become ``<namespace>_timer_seconds_count`` /
    ``<namespace>_timer_seconds_sum`` pairs (the standard summary-style
    rendering); the hub's uptime is exported as
    ``<namespace>_uptime_seconds``.  *gauges* adds caller-provided
    ``(name, labels, value)`` gauge samples — the server uses this for
    queue depth and jobs-by-state, which live outside the hub.
    """
    lines = [
        f"# HELP {namespace}_uptime_seconds Seconds since the hub was created.",
        f"# TYPE {namespace}_uptime_seconds gauge",
        f"{namespace}_uptime_seconds {hub.elapsed_s}",
        f"# HELP {namespace}_events_total Telemetry event counters by event name.",
        f"# TYPE {namespace}_events_total counter",
    ]
    for name, count in sorted(hub.counters.items()):
        lines.append(f'{namespace}_events_total{{event="{_prom_escape(name)}"}} {count}')
    lines.append(
        f"# HELP {namespace}_timer_seconds Aggregated section timings by timer name."
    )
    lines.append(f"# TYPE {namespace}_timer_seconds summary")
    for name, timer in sorted(hub.timers.items()):
        label = f'timer="{_prom_escape(name)}"'
        lines.append(f"{namespace}_timer_seconds_count{{{label}}} {int(timer['count'])}")
        lines.append(f"{namespace}_timer_seconds_sum{{{label}}} {timer['total_s']}")
    if gauges is not None:
        seen_families: set[str] = set()
        for name, labels, value in gauges:
            family = f"{namespace}_{name}"
            if family not in seen_families:
                seen_families.add(family)
                lines.append(f"# TYPE {family} gauge")
            rendered = ",".join(
                f'{key}="{_prom_escape(str(val))}"' for key, val in sorted(labels.items())
            )
            suffix = f"{{{rendered}}}" if rendered else ""
            lines.append(f"{family}{suffix} {value}")
    return "\n".join(lines) + "\n"


class _TimerContext:
    __slots__ = ("_hub", "_name", "_start")

    def __init__(self, hub: TelemetryHub, name: str):
        self._hub = hub
        self._name = name

    def __enter__(self) -> "_TimerContext":
        self._start = self._hub._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self._hub.record_time(self._name, self._hub._clock() - self._start)
