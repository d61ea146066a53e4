"""Render and compare saved exploration artefacts.

The CLIs write two kinds of JSON document: full exploration results
(``--output-json``, schema of :meth:`~repro.buffers.explorer
.DesignSpaceResult.to_dict`) and telemetry snapshots (``--stats-json``,
schema of :meth:`~repro.runtime.telemetry.TelemetryHub.snapshot`).
This module is the shared engine behind the ``repro report`` and
``repro diff`` verbs: it classifies a document, renders it as fixed
width tables (reusing :func:`repro.reporting.tables.render_table`) and
computes deltas between two documents of the same kind — Pareto points
gained/lost/moved, probe-count deltas, per-timer (and therefore
per-backend) timing deltas.
"""

from __future__ import annotations

import json
from pathlib import Path
from collections.abc import Mapping

from repro.exceptions import ParseError
from repro.reporting.tables import render_table

#: Stats keys worth surfacing in reports and diffs, in display order.
#: (``wall_time_s`` is deliberately last: it is the only
#: machine-dependent row.)
RESULT_STAT_KEYS = (
    "strategy",
    "backend",
    "workers",
    "evaluations",
    "cache_hits",
    "bounds_exact",
    "bounds_cut",
    "max_states_stored",
    "wall_time_s",
)


def classify_document(document: Mapping) -> str:
    """``"result"`` (a saved exploration) or ``"stats"`` (a telemetry
    snapshot); anything else raises :class:`ParseError`."""
    if not isinstance(document, Mapping):
        raise ParseError("expected a JSON object")
    if "pareto_front" in document:
        return "result"
    if "counters" in document:
        return "stats"
    raise ParseError(
        "unrecognised document: expected an exploration result"
        ' (with "pareto_front") or a telemetry snapshot (with "counters")'
    )


def load_document(path: str | Path) -> tuple[str, dict]:
    """Load *path* and classify it; returns ``(kind, document)``."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ParseError(f"{path}: not valid JSON: {error}") from None
    return classify_document(document), document


# -- rendering one document ------------------------------------------------
def front_table(result: Mapping) -> str:
    """The Pareto front of a result document as a table."""
    rows = [["size", "throughput", "witnesses"]]
    for point in result.get("pareto_front", []):
        witnesses = point.get("witnesses", [])
        shown = ", ".join(
            "{" + ", ".join(f"{k}={v}" for k, v in sorted(w.items())) + "}"
            for w in witnesses[:2]
        )
        if len(witnesses) > 2:
            shown += f" (+{len(witnesses) - 2} more)"
        rows.append([str(point.get("size")), str(point.get("throughput")), shown])
    return render_table(rows)


def result_stat_rows(result: Mapping) -> list[list[str]]:
    stats = result.get("stats", {})
    rows = [["metric", "value"]]
    for key in RESULT_STAT_KEYS:
        if key in stats and stats[key] is not None:
            value = stats[key]
            rows.append([key, f"{value:.4f}" if isinstance(value, float) else str(value)])
    return rows


def report_text(kind: str, document: Mapping, label: str = "document") -> str:
    """Human rendering of one document (``repro report``)."""
    lines: list[str] = []
    if kind == "result":
        graph = document.get("graph", "?")
        observe = document.get("observe", "?")
        front = document.get("pareto_front", [])
        status = "complete" if document.get("complete", True) else (
            f"PARTIAL (exhausted: {document.get('exhausted')})"
        )
        lines.append(
            f"{label}: exploration of {graph!r} observing {observe!r} — "
            f"{len(front)} Pareto point(s), {status}"
        )
        lines.append("")
        lines.append(front_table(document))
        lines.append("")
        lines.append(render_table(result_stat_rows(document)))
    else:
        counters = document.get("counters", {})
        timers = document.get("timers", {})
        lines.append(
            f"{label}: telemetry snapshot — {len(counters)} counter(s),"
            f" {len(timers)} timer(s), {document.get('elapsed_s', 0.0):.3f}s elapsed"
        )
        if counters:
            rows = [["counter", "count"]]
            rows += [[name, str(count)] for name, count in sorted(counters.items())]
            lines.append("")
            lines.append(render_table(rows))
        if timers:
            rows = [["timer", "count", "total_s"]]
            rows += [
                [name, str(int(timer["count"])), f"{timer['total_s']:.4f}"]
                for name, timer in sorted(timers.items())
            ]
            lines.append("")
            lines.append(render_table(rows))
    return "\n".join(lines)


# -- diffing two documents -------------------------------------------------
def _front_index(result: Mapping) -> dict[int, str]:
    """``{size: throughput}`` over the Pareto points of a result."""
    return {
        int(point["size"]): str(point["throughput"])
        for point in result.get("pareto_front", [])
    }


def front_diff(a: Mapping, b: Mapping) -> dict:
    """Structured Pareto delta between two result documents.

    ``added`` / ``removed`` are sizes present in only one front;
    ``changed`` maps sizes whose throughput moved; ``identical`` is
    true when the fronts agree point-for-point (witnesses included).
    """
    index_a, index_b = _front_index(a), _front_index(b)
    added = sorted(set(index_b) - set(index_a))
    removed = sorted(set(index_a) - set(index_b))
    changed = {
        size: (index_a[size], index_b[size])
        for size in sorted(set(index_a) & set(index_b))
        if index_a[size] != index_b[size]
    }
    identical = a.get("pareto_front", []) == b.get("pareto_front", [])
    return {
        "added": added,
        "removed": removed,
        "changed": changed,
        "identical": identical,
    }


def _delta_rows(
    header: list[str],
    keys,
    get_a,
    get_b,
    *,
    all_rows: bool = False,
) -> list[list[str]]:
    rows = [header]
    for key in keys:
        value_a, value_b = get_a(key), get_b(key)
        if value_a == value_b and not all_rows:
            continue
        if isinstance(value_a, (int, float)) and isinstance(value_b, (int, float)):
            delta = value_b - value_a
            rendered = f"{delta:+.4f}" if isinstance(delta, float) else f"{delta:+d}"
        else:
            rendered = "changed" if value_a != value_b else ""
        fmt = lambda v: (f"{v:.4f}" if isinstance(v, float) else str(v))  # noqa: E731
        rows.append([str(key), fmt(value_a), fmt(value_b), rendered])
    return rows


def diff_text(
    kind_a: str,
    a: Mapping,
    kind_b: str,
    b: Mapping,
    label_a: str = "A",
    label_b: str = "B",
) -> tuple[str, bool]:
    """Human rendering of the delta between two documents.

    Returns ``(text, identical)`` where *identical* reflects the
    payload that matters: the Pareto front for results, the counters
    for stats snapshots.  Mixing document kinds raises
    :class:`ParseError`.
    """
    if kind_a != kind_b:
        raise ParseError(
            f"cannot diff a {kind_a} document against a {kind_b} document"
        )
    lines: list[str] = []
    if kind_a == "result":
        delta = front_diff(a, b)
        if delta["identical"]:
            lines.append(
                f"Pareto fronts identical: {len(a.get('pareto_front', []))} point(s)."
            )
        else:
            lines.append("Pareto fronts differ:")
            rows = [["size", label_a, label_b]]
            for size in delta["removed"]:
                rows.append([str(size), _front_index(a)[size], "-"])
            for size in delta["added"]:
                rows.append([str(size), "-", _front_index(b)[size]])
            for size, (thr_a, thr_b) in delta["changed"].items():
                rows.append([str(size), thr_a, thr_b])
            lines.append(render_table(rows))
        stats_a, stats_b = a.get("stats", {}), b.get("stats", {})
        rows = _delta_rows(
            ["stat", label_a, label_b, "delta"],
            [key for key in RESULT_STAT_KEYS if key in stats_a or key in stats_b],
            lambda k: stats_a.get(k, 0),
            lambda k: stats_b.get(k, 0),
        )
        if len(rows) > 1:
            lines.append("")
            lines.append(render_table(rows))
        else:
            lines.append("")
            lines.append("stats identical (evaluations, cache hits, counters).")
        return "\n".join(lines), delta["identical"]

    counters_a = a.get("counters", {})
    counters_b = b.get("counters", {})
    identical = counters_a == counters_b
    if identical:
        lines.append(f"counters identical ({len(counters_a)} counter(s)).")
    else:
        rows = _delta_rows(
            ["counter", label_a, label_b, "delta"],
            sorted(set(counters_a) | set(counters_b)),
            lambda k: counters_a.get(k, 0),
            lambda k: counters_b.get(k, 0),
        )
        lines.append("counters differ:")
        lines.append(render_table(rows))
    timers_a = a.get("timers", {})
    timers_b = b.get("timers", {})
    rows = [["timer", f"{label_a} count", f"{label_b} count", f"{label_a} total_s", f"{label_b} total_s"]]
    for name in sorted(set(timers_a) | set(timers_b)):
        ta = timers_a.get(name, {"count": 0, "total_s": 0.0})
        tb = timers_b.get(name, {"count": 0, "total_s": 0.0})
        if ta == tb:
            continue
        rows.append(
            [
                name,
                str(int(ta["count"])),
                str(int(tb["count"])),
                f"{ta['total_s']:.4f}",
                f"{tb['total_s']:.4f}",
            ]
        )
    if len(rows) > 1:
        lines.append("")
        lines.append(render_table(rows))
    return "\n".join(lines), identical
