"""JSON format for cyclo-static dataflow graphs.

Mirrors :mod:`repro.io.jsonio` with per-phase rate lists::

    {
      "name": "decimator",
      "model": "csdf",
      "actors": [{"name": "decim", "execution_times": [2, 1]}, ...],
      "channels": [
        {"name": "b", "source": "decim", "destination": "snk",
         "productions": [1, 0], "consumptions": [1],
         "initial_tokens": 0},
        ...
      ]
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from collections.abc import Mapping

from repro.csdf.graph import CSDFGraph
from repro.exceptions import GraphError, ParseError
from repro.io.jsonio import objects, parse_int, parse_name


def csdf_to_dict(graph: CSDFGraph) -> dict:
    """Serialise *graph* to a JSON-compatible dictionary."""
    return {
        "name": graph.name,
        "model": "csdf",
        "actors": [
            {"name": actor.name, "execution_times": list(actor.execution_times)}
            for actor in graph.actors.values()
        ],
        "channels": [
            {
                "name": channel.name,
                "source": channel.source,
                "destination": channel.destination,
                "productions": list(channel.productions),
                "consumptions": list(channel.consumptions),
                "initial_tokens": channel.initial_tokens,
            }
            for channel in graph.channels.values()
        ],
    }


def csdf_from_dict(data: Mapping) -> CSDFGraph:
    """Reconstruct a :class:`CSDFGraph` from :func:`csdf_to_dict` output.

    Scalar rates and execution times are accepted and treated as
    single-phase sequences, so plain-SDF JSON files load as one-phase
    CSDF graphs.
    """

    def phases(value: object, what: str) -> tuple[int, ...]:
        if isinstance(value, (list, tuple)):
            return tuple(parse_int(entry, what) for entry in value)
        return (parse_int(value, what),)

    if not isinstance(data, Mapping):
        raise ParseError("CSDF graph document must be a JSON object")
    try:
        graph = CSDFGraph(parse_name(data.get("name", "csdf"), "name"))
        for index, actor in enumerate(objects(data, "actors")):
            times = actor.get("execution_times", actor.get("execution_time", 1))
            graph.add_actor(
                parse_name(actor["name"], f"actors[{index}].name"),
                phases(times, f"actors[{index}].execution_times"),
            )
        for index, channel in enumerate(objects(data, "channels")):
            where = f"channels[{index}]"
            graph.add_channel(
                channel["source"],
                channel["destination"],
                phases(
                    channel.get("productions", channel.get("production", 1)),
                    f"{where}.productions",
                ),
                phases(
                    channel.get("consumptions", channel.get("consumption", 1)),
                    f"{where}.consumptions",
                ),
                parse_int(channel.get("initial_tokens", 0), f"{where}.initial_tokens"),
                parse_name(channel.get("name"), f"{where}.name", optional=True),
            )
    except (KeyError, TypeError) as error:
        raise ParseError(f"malformed CSDF graph dictionary: {error}") from error
    except GraphError as error:
        raise ParseError(f"invalid CSDF graph in document: {error}") from error
    return graph


def write_csdf_json(graph: CSDFGraph, path: str | Path) -> None:
    """Write *graph* to *path* as JSON."""
    Path(path).write_text(json.dumps(csdf_to_dict(graph), indent=2) + "\n", encoding="utf-8")


def read_csdf_json(path: str | Path) -> CSDFGraph:
    """Read a CSDF JSON file written by :func:`write_csdf_json`."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ParseError(f"malformed JSON: {error}") from error
    return csdf_from_dict(data)
