"""Content-addressed graph registry with shared memo banks.

The analysis server is multi-client: many clients may submit the same
graph (the same pipeline template instantiated by every user of a
product, say) and run overlapping analyses on it.  The registry makes
that cheap:

* graphs are stored under their **content fingerprint**
  (:func:`repro.io.jsonio.graph_fingerprint`), so identical graphs —
  whatever their display name or the order their actors were declared
  in — share one entry;
* each entry carries one :class:`MemoBank` per observed actor: the
  graph's live :class:`~repro.buffers.evalcache.EvaluationMemo`, the
  union of every exact evaluation any job ever paid for on that graph,
  and the graph's maximal throughput.  Every job on the graph builds
  its :class:`~repro.buffers.evalcache.EvaluationService` on that memo, so
  probes other clients already ran are answered from memory and
  nothing is copied per job.

Graphs are persisted as plain JSON under ``<data_dir>/graphs/`` so a
restarted server still resolves the fingerprints referenced by its
persisted job store.  Banks are in-memory only — the durable copy of
an interrupted job's evaluations is its checkpoint file (see
:mod:`repro.service.jobs`).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from collections.abc import Mapping

from repro.buffers.evalcache import EvaluationMemo
from repro.exceptions import ParseError, ServiceError
from repro.graph.graph import SDFGraph
from repro.io.jsonio import graph_fingerprint, graph_from_dict, graph_to_dict
from repro.io.sadfjson import (
    is_sadf_document,
    sadf_fingerprint,
    sadf_from_dict,
    sadf_to_dict,
)
from repro.sadf.graph import SADFGraph


class MemoBank(EvaluationMemo):
    """The live memo of one (graph, observe) pair.

    An :class:`~repro.buffers.evalcache.EvaluationMemo` that jobs share
    under its lock: records carrying blocking data win over thin ones,
    and the throughput ceiling is kept once any job establishes it.
    :meth:`absorb` / :meth:`snapshot` are its JSON round trip, in the
    ``export_state`` / ``restore_state`` payload shape.
    """

    def absorb(self, state: Mapping) -> None:
        """Merge an ``export_state`` payload into the bank."""
        self.load(state)

    def snapshot(self) -> dict:
        """A ``restore_state``-ready payload (stats intentionally absent,
        so restoring never inflates a job's own counters)."""
        return self.dump()


class GraphRegistry:
    """Thread-safe, content-addressed store of submitted graphs.

    Parameters
    ----------
    data_dir:
        Service data directory; graphs are persisted under
        ``data_dir/graphs/<fingerprint>.json``.  ``None`` keeps the
        registry purely in-memory (unit tests).
    """

    def __init__(self, data_dir: str | Path | None = None):
        self._lock = threading.RLock()
        self._graphs: dict[str, SDFGraph | SADFGraph] = {}
        self._banks: dict[tuple[str, str], MemoBank] = {}
        self._dir: Path | None = None
        if data_dir is not None:
            self._dir = Path(data_dir) / "graphs"
            self._dir.mkdir(parents=True, exist_ok=True)
            for path in sorted(self._dir.glob("*.json")):
                try:
                    data = json.loads(path.read_text(encoding="utf-8"))
                    if is_sadf_document(data):
                        self._graphs[path.stem] = sadf_from_dict(data)
                    else:
                        self._graphs[path.stem] = graph_from_dict(data)
                except (json.JSONDecodeError, ParseError) as error:
                    raise ParseError(f"stored graph {path}: {error}") from error

    def __len__(self) -> int:
        with self._lock:
            return len(self._graphs)

    def fingerprints(self) -> list[str]:
        with self._lock:
            return sorted(self._graphs)

    def add(self, graph: SDFGraph | SADFGraph | Mapping) -> tuple[str, bool]:
        """Register *graph* (an :class:`SDFGraph`, an
        :class:`~repro.sadf.graph.SADFGraph`, or a JSON dict — scenario
        documents are recognised by their ``"model": "sadf"`` marker).

        Returns ``(fingerprint, known)`` where *known* tells whether an
        identical graph was already registered — in which case the
        existing entry (and its warm memo banks) is kept.
        """
        if isinstance(graph, Mapping):
            graph = sadf_from_dict(graph) if is_sadf_document(graph) else (
                graph_from_dict(graph)
            )
        if isinstance(graph, SADFGraph):
            fingerprint = sadf_fingerprint(graph)
            payload = sadf_to_dict(graph)
        else:
            fingerprint = graph_fingerprint(graph)
            payload = graph_to_dict(graph)
        with self._lock:
            known = fingerprint in self._graphs
            if not known:
                self._graphs[fingerprint] = graph
                if self._dir is not None:
                    path = self._dir / f"{fingerprint}.json"
                    path.write_text(
                        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
                    )
        return fingerprint, known

    def get(self, fingerprint: str) -> SDFGraph | SADFGraph:
        """The graph stored under *fingerprint* (404 when unknown)."""
        with self._lock:
            try:
                return self._graphs[fingerprint]
            except KeyError:
                raise ServiceError(
                    f"unknown graph fingerprint {fingerprint!r}; POST the graph"
                    " to /graphs first", status=404
                ) from None

    def bank(self, fingerprint: str, observe: str) -> MemoBank:
        """The live memo of (*fingerprint*, *observe*), created on demand.

        SADF jobs key one bank per scenario as ``observe@scenario``.
        """
        with self._lock:
            self.get(fingerprint)  # validate the fingerprint
            return self._banks.setdefault((fingerprint, observe), MemoBank())
