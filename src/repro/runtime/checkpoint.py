"""Checkpoint / resume for interrupted explorations.

A checkpoint captures everything an exploration has *paid for*: the
exact memo cache of its evaluation service (every state-space execution
performed so far, including per-channel blocking records), the current
partial Pareto frontier, and — for the dependency-guided sweeps — the
pending frontier of distributions still queued for evaluation.  The
whole payload is plain JSON, so checkpoints survive process restarts,
machine migrations and version-controlled storage.

Two formats share this module, which alone reads, validates, writes and
restores them: a run of one SDF or CSDF graph banks its service's memo
at the top level (:data:`CHECKPOINT_FORMAT`), and a multi-scenario SADF
run banks one exported service state per scenario under ``scenarios``
(:data:`SADF_CHECKPOINT_FORMAT`).  :func:`load_checkpoint` and
:func:`coerce_resume` read either; a resume needs the format of the
services it restores — one service, or a ``{scenario: service}`` map.

Resuming is **deterministic replay over the restored cache**: the
strategy runs again from the top, every previously executed probe is
answered by the memo for free, and execution proceeds past the
interruption point.  Because the cache is exact and every strategy is
deterministic, a resumed run provably produces the *identical* Pareto
front (witnesses included) as an uninterrupted one — the property
pinned by ``tests/runtime/test_checkpoint.py``.  The ``pending`` /
``frontier`` sections are carried for observability (dashboards, ETA
estimation), not re-ingested on resume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, TYPE_CHECKING
from collections.abc import Iterable, Mapping

from repro.buffers.distribution import StorageDistribution
from repro.buffers.pareto import ParetoFront
from repro.exceptions import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.buffers.evalcache import EvaluationService
    from repro.csdf.graph import CSDFGraph
    from repro.graph.graph import SDFGraph
    from repro.runtime.telemetry import TelemetryHub
    from repro.sadf.graph import SADFGraph

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 1
SADF_CHECKPOINT_FORMAT = "repro-sadf-checkpoint"
SADF_CHECKPOINT_VERSION = 1

#: Version and memo section of each format.
_FORMATS = {
    CHECKPOINT_FORMAT: (CHECKPOINT_VERSION, "memo"),
    SADF_CHECKPOINT_FORMAT: (SADF_CHECKPOINT_VERSION, "scenarios"),
}


@dataclass(frozen=True)
class ResumeToken:
    """An in-memory checkpoint: the ``resume=`` argument of
    :func:`~repro.buffers.explorer.explore_design_space` and
    :func:`~repro.sadf.explorer.explore_design_space`.

    Obtained from a partial :class:`~repro.buffers.explorer
    .DesignSpaceResult` (``result.resume_token``) or by loading a
    checkpoint file (:func:`load_checkpoint`).
    """

    payload: Mapping[str, Any]

    @property
    def graph_name(self) -> str:
        return self.payload["graph"]

    @property
    def strategy(self) -> str:
        return self.payload["strategy"]

    @property
    def complete(self) -> bool:
        return bool(self.payload.get("complete", False))

    @property
    def exhausted(self) -> str | None:
        return self.payload.get("exhausted")

    @property
    def probes_recorded(self) -> int:
        """Executions banked in the memos (replayed for free on resume)."""
        payload = self.payload
        states = payload["scenarios"].values() if "scenarios" in payload else (payload,)
        return sum(len(state.get("memo", ())) for state in states)

    @property
    def frontier(self) -> ParetoFront:
        """The partial Pareto front at checkpoint time."""
        return ParetoFront.from_dicts(self.payload.get("frontier", ()))

    @property
    def pending(self) -> tuple[StorageDistribution, ...]:
        """Distributions still queued when the run was interrupted."""
        return tuple(
            StorageDistribution({name: int(cap) for name, cap in entry.items()})
            for entry in self.payload.get("pending", ())
        )

    def save(self, path: str | Path) -> Path:
        """Write the checkpoint as JSON; returns the path written."""
        return save_checkpoint(self, path)

    def __repr__(self) -> str:
        state = "complete" if self.complete else f"partial ({self.exhausted})"
        return (
            f"ResumeToken(graph={self.graph_name!r}, strategy={self.strategy!r},"
            f" {state}, {self.probes_recorded} probe(s) banked)"
        )


def build_token(
    services: "EvaluationService | Mapping[str, EvaluationService]",
    graph: "SDFGraph | CSDFGraph | SADFGraph",
    *,
    observe: str,
    strategy: str,
    exhausted: str | None,
    front: ParetoFront,
    pending: Iterable[StorageDistribution] = (),
) -> ResumeToken:
    """Snapshot the run of *graph* (its ``name`` and ``channel_names``
    are recorded) into a resume token: the memo of one service at the
    top level, or a ``scenarios`` section from a ``{scenario: service}``
    map.  The run is complete unless a budget *exhausted* it."""
    kind = _format_of(services)
    payload: dict[str, Any] = {
        "format": kind,
        "version": _FORMATS[kind][0],
        "graph": graph.name,
        "observe": observe,
        "strategy": strategy,
        "complete": exhausted is None,
        "exhausted": exhausted,
        "channels": list(graph.channel_names),
        "frontier": front.to_dicts(),
        "pending": [dict(distribution) for distribution in pending],
    }
    if isinstance(services, Mapping):
        payload["scenarios"] = {
            name: service.export_state() for name, service in services.items()
        }
    else:
        payload.update(services.export_state())
    return ResumeToken(payload)


def save_checkpoint(token: "ResumeToken | object", path: str | Path) -> Path:
    """Write *token* (or a result carrying one) to *path* as JSON."""
    resolved = _coerce_token(token)
    target = Path(path)
    target.write_text(
        json.dumps(resolved.payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target


def load_checkpoint(path: str | Path) -> ResumeToken:
    """Read a checkpoint file of either format back into a :class:`ResumeToken`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise CheckpointError(f"{path}: not valid checkpoint JSON ({error})") from None
    return _validate_payload(payload, source=str(path))


def coerce_resume(resume: "ResumeToken | Mapping | str | Path") -> ResumeToken:
    """Accept a token, a raw payload mapping, or a checkpoint path, of
    either format."""
    if isinstance(resume, ResumeToken):
        return _validate_payload(dict(resume.payload), source="resume token")
    if isinstance(resume, (str, Path)):
        return load_checkpoint(resume)
    if isinstance(resume, Mapping):
        return _validate_payload(dict(resume), source="resume payload")
    raise CheckpointError(
        f"cannot resume from {type(resume).__name__}: expected a ResumeToken,"
        " a checkpoint path or a payload mapping"
    )


def restore_service(
    token: ResumeToken,
    services: "EvaluationService | Mapping[str, EvaluationService]",
    graph: "SDFGraph | CSDFGraph | SADFGraph",
    observe: str,
    telemetry: "TelemetryHub",
) -> None:
    """Load *token*'s memos into the *services* of a run of *graph*
    observing *observe* and emit ``checkpoint_restored`` into the run's
    *telemetry*: one service takes a :data:`CHECKPOINT_FORMAT` token, a
    ``{scenario: service}`` map a :data:`SADF_CHECKPOINT_FORMAT` one,
    written for the same graph name, channel set and observed actor."""
    payload = token.payload
    expected = _format_of(services)
    if payload["format"] != expected:
        raise CheckpointError(
            f"this run resumes a {expected} checkpoint, not a {payload['format']} one"
        )
    if payload["graph"] != graph.name:
        raise CheckpointError(
            f"checkpoint was written for graph {payload['graph']!r},"
            f" not {graph.name!r}"
        )
    if list(payload["channels"]) != list(graph.channel_names):
        raise CheckpointError(
            f"checkpoint channel set {payload['channels']} does not match"
            f" graph {graph.name!r} ({list(graph.channel_names)})"
        )
    if payload["observe"] != observe:
        raise CheckpointError(f"checkpoint observed {payload['observe']!r}, not {observe!r}")
    if isinstance(services, Mapping):
        restored = [
            (services[name], state)
            for name, state in payload["scenarios"].items()
            if name in services
        ]
    else:
        restored = [(services, payload)]
    if not all(service.cache_enabled for service, _ in restored):
        raise CheckpointError("resuming requires the memo cache (cache=True)")
    for service, state in restored:
        service.restore_state(state)
    telemetry.emit(
        "checkpoint_restored", graph=payload["graph"], probes_banked=token.probes_recorded
    )


def _format_of(services: object) -> str:
    return SADF_CHECKPOINT_FORMAT if isinstance(services, Mapping) else CHECKPOINT_FORMAT


def _coerce_token(token: object) -> ResumeToken:
    if isinstance(token, ResumeToken):
        return token
    resume = getattr(token, "resume_token", None)
    if isinstance(resume, ResumeToken):
        return resume
    raise CheckpointError(
        f"cannot checkpoint a {type(token).__name__}: expected a ResumeToken"
        " or a DesignSpaceResult carrying one"
    )


def _validate_payload(payload: dict, *, source: str) -> ResumeToken:
    kind = payload.get("format") if isinstance(payload, dict) else None
    if not isinstance(kind, str) or kind not in _FORMATS:
        raise CheckpointError(f"{source}: not a {' or '.join(_FORMATS)} payload")
    version, section = _FORMATS[kind]
    if payload.get("version") != version:
        raise CheckpointError(
            f"{source}: checkpoint version {payload.get('version')!r} is not supported"
            f" (expected {version})"
        )
    for key in ("graph", "observe", "strategy", "channels", section):
        if key not in payload:
            raise CheckpointError(f"{source}: checkpoint misses the {key!r} section")
    return ResumeToken(payload)
