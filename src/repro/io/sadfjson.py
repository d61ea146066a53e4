"""Versioned JSON format for FSM-SADF graphs.

The schema (version :data:`SADF_SCHEMA_VERSION`)::

    {
      "schema": 1,
      "model": "sadf",
      "name": "modem-modes",
      "actors": ["in", "filt", ...],
      "channels": [
        {"name": "m1", "source": "in", "destination": "filt",
         "initial_tokens": 0},
        ...
      ],
      "scenarios": {
        "tracking": {
          "execution_times": {"in": 1, ...},
          "productions": {"m1": 1, ...},
          "consumptions": {"m1": 1, ...}
        },
        ...
      },
      "fsm": {
        "initial": "acquisition",
        "transitions": [
          {"source": "acquisition", "target": "tracking", "delay": 4},
          ...
        ]
      }
    }

``fsm`` may be ``null`` (any scenario order, zero delays).  Per-
scenario rate/time mappings may be partial — unmentioned actors and
channels default to 1 exactly as in
:meth:`~repro.sadf.graph.SADFGraph.add_scenario`.  Readers reject
unknown schema versions, unknown models, and FSM states that name no
scenario with :class:`~repro.exceptions.ParseError` — never by failing
on whatever key happens to be missing.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from collections.abc import Mapping

from repro.exceptions import GraphError, InconsistentGraphError, ParseError
from repro.io.jsonio import objects, parse_int, parse_name
from repro.sadf.fsm import ScenarioFSM
from repro.sadf.graph import SADFGraph

#: Version written into (and required from) every sadfjson document.
SADF_SCHEMA_VERSION = 1

#: The ``model`` discriminator distinguishing sadfjson documents from
#: the plain SDF JSON of :mod:`repro.io.jsonio` (which has no such
#: field) in shared input paths (CLI detection, service graph store).
SADF_MODEL = "sadf"


def sadf_to_dict(sadf: SADFGraph) -> dict:
    """Serialise *sadf* to a JSON-compatible dictionary."""
    document: dict = {
        "schema": SADF_SCHEMA_VERSION,
        "model": SADF_MODEL,
        "name": sadf.name,
        "actors": list(sadf.actor_names),
        "channels": [
            {
                "name": channel.name,
                "source": channel.source,
                "destination": channel.destination,
                "initial_tokens": channel.initial_tokens,
            }
            for channel in sadf.channels.values()
        ],
        "scenarios": {
            scenario.name: {
                "execution_times": dict(scenario.execution_times),
                "productions": dict(scenario.productions),
                "consumptions": dict(scenario.consumptions),
            }
            for scenario in sadf.scenarios.values()
        },
        "fsm": None,
    }
    fsm = sadf.fsm
    if fsm is not None:
        document["fsm"] = {
            "initial": fsm.initial,
            "transitions": [
                {"source": t.source, "target": t.target, "delay": t.delay}
                for t in fsm.transitions
            ],
        }
    return document


def sadf_from_dict(data: Mapping) -> SADFGraph:
    """Reconstruct an :class:`~repro.sadf.graph.SADFGraph` from
    :func:`sadf_to_dict` output (:class:`~repro.exceptions.ParseError`
    on any malformed document)."""
    if not isinstance(data, Mapping):
        raise ParseError("sadfjson document must be a JSON object")
    version = data.get("schema")
    if version != SADF_SCHEMA_VERSION:
        raise ParseError(
            f"unsupported sadfjson schema version {version!r}; this build"
            f" reads version {SADF_SCHEMA_VERSION}"
        )
    model = data.get("model")
    if model != SADF_MODEL:
        raise ParseError(
            f"not an SADF document: model is {model!r}, expected {SADF_MODEL!r}"
        )
    try:
        sadf = SADFGraph(parse_name(data.get("name", "sadf"), "name"))
        for index, actor in enumerate(data["actors"]):
            sadf.add_actor(parse_name(actor, f"actors[{index}]"))
        for index, channel in enumerate(objects(data, "channels")):
            sadf.add_channel(
                channel["source"],
                channel["destination"],
                parse_int(channel.get("initial_tokens", 0), f"channels[{index}].initial_tokens"),
                parse_name(channel.get("name"), f"channels[{index}].name", optional=True),
            )
        scenarios = data["scenarios"]
        if not isinstance(scenarios, Mapping):
            raise ParseError("'scenarios' must map scenario names to bindings")
        for name, binding in scenarios.items():
            sadf.add_scenario(
                name,
                execution_times=binding.get("execution_times"),
                productions=binding.get("productions"),
                consumptions=binding.get("consumptions"),
            )
        fsm_data = data.get("fsm")
        if fsm_data is not None:
            fsm = ScenarioFSM(fsm_data["initial"])
            for index, transition in enumerate(fsm_data.get("transitions", ())):
                fsm.add_transition(
                    transition["source"],
                    transition["target"],
                    parse_int(transition.get("delay", 0), f"fsm.transitions[{index}].delay"),
                )
            sadf.set_fsm(fsm)
        sadf.validate()
    except (KeyError, TypeError, AttributeError) as error:
        raise ParseError(f"malformed sadfjson document: {error}") from error
    except (GraphError, InconsistentGraphError) as error:
        # Unknown scenario refs in the FSM, rate inconsistencies,
        # duplicate names, no scenarios, an FSM without an infinite
        # run, ... — graph-level rejections surface as parse errors of
        # the document.
        raise ParseError(f"invalid SADF graph in document: {error}") from error
    return sadf


def sadf_fingerprint(sadf: SADFGraph) -> str:
    """Stable content hash of *sadf* — the service graph-registry key.

    Mirrors :func:`repro.io.jsonio.graph_fingerprint`: everything that
    determines analysis results (skeleton, per-scenario bindings, FSM
    with delays) is covered canonically; the display name is not.
    """
    fsm = sadf.fsm
    canonical = {
        "model": SADF_MODEL,
        "actors": sorted(sadf.actor_names),
        "channels": sorted(
            (c.name, c.source, c.destination, c.initial_tokens)
            for c in sadf.channels.values()
        ),
        "scenarios": sorted(
            (
                s.name,
                sorted(s.execution_times.items()),
                sorted(s.productions.items()),
                sorted(s.consumptions.items()),
            )
            for s in sadf.scenarios.values()
        ),
        "fsm": None
        if fsm is None
        else [
            fsm.initial,
            sorted((t.source, t.target, t.delay) for t in fsm.transitions),
        ],
    }
    digest = hashlib.sha256(
        json.dumps(canonical, separators=(",", ":")).encode("utf-8")
    )
    return digest.hexdigest()


def is_sadf_document(data: object) -> bool:
    """Whether a decoded JSON value claims to be an SADF document
    (regardless of whether it parses cleanly)."""
    return isinstance(data, Mapping) and data.get("model") == SADF_MODEL


def write_sadf_json(sadf: SADFGraph, path: str | Path) -> None:
    """Write *sadf* to *path* as sadfjson."""
    Path(path).write_text(
        json.dumps(sadf_to_dict(sadf), indent=2) + "\n", encoding="utf-8"
    )


def read_sadf_json(path: str | Path) -> SADFGraph:
    """Read a sadfjson file written by :func:`write_sadf_json`."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ParseError(f"malformed JSON: {error}") from error
    return sadf_from_dict(data)
