"""Plain JSON / dict graph format.

A minimal, stable exchange format::

    {
      "name": "example",
      "actors": [{"name": "a", "execution_time": 1}, ...],
      "channels": [
        {"name": "alpha", "source": "a", "destination": "b",
         "production": 2, "consumption": 3, "initial_tokens": 0},
        ...
      ]
    }
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from collections.abc import Mapping

from repro.exceptions import GraphError, ParseError
from repro.graph.graph import SDFGraph
from repro.graph.validation import validate_graph


def parse_int(value: object, what: str) -> int:
    """*value* as an integer, or a :class:`ParseError` naming *what*
    (``"x"``, ``""``, ``None``, a list or ``1.5`` are none)."""
    if not isinstance(value, float) or value.is_integer():
        try:
            return int(value)  # type: ignore[call-overload]
        except (TypeError, ValueError, OverflowError):
            pass
    raise ParseError(f"{what}: {value!r} is not an integer")


def parse_name(value: object, what: str, *, optional: bool = False) -> str | None:
    """*value* as a name, or a :class:`ParseError` naming *what* (``None``
    passes only when *optional*)."""
    if isinstance(value, str) or (optional and value is None):
        return value
    raise ParseError(f"{what}: {value!r} is not a string")


def objects(data: Mapping, key: str) -> list[Mapping]:
    """``data[key]`` as a list of JSON objects, or a :class:`ParseError`
    naming *key* (a missing key raises ``KeyError``)."""
    entries = data[key]
    if not isinstance(entries, list) or not all(isinstance(entry, Mapping) for entry in entries):
        raise ParseError(f"{key!r} must be a list of objects")
    return entries


def graph_to_dict(graph: SDFGraph) -> dict:
    """Serialise *graph* to a JSON-compatible dictionary."""
    return {
        "name": graph.name,
        "actors": [
            {"name": actor.name, "execution_time": actor.execution_time}
            for actor in graph.actors.values()
        ],
        "channels": [
            {
                "name": channel.name,
                "source": channel.source,
                "destination": channel.destination,
                "production": channel.production,
                "consumption": channel.consumption,
                "initial_tokens": channel.initial_tokens,
            }
            for channel in graph.channels.values()
        ],
    }


def graph_from_dict(data: Mapping) -> SDFGraph:
    """Reconstruct an :class:`SDFGraph` from :func:`graph_to_dict` output
    (:class:`ParseError` on any malformed document)."""
    if not isinstance(data, Mapping):
        raise ParseError("graph document must be a JSON object")
    try:
        graph = SDFGraph(parse_name(data.get("name", "sdf"), "name"))
        for index, actor in enumerate(objects(data, "actors")):
            graph.add_actor(
                parse_name(actor["name"], f"actors[{index}].name"),
                parse_int(actor.get("execution_time", 1), f"actors[{index}].execution_time"),
            )
        for index, channel in enumerate(objects(data, "channels")):
            where = f"channels[{index}]"
            graph.add_channel(
                channel["source"],
                channel["destination"],
                parse_int(channel.get("production", 1), f"{where}.production"),
                parse_int(channel.get("consumption", 1), f"{where}.consumption"),
                parse_int(channel.get("initial_tokens", 0), f"{where}.initial_tokens"),
                parse_name(channel.get("name"), f"{where}.name", optional=True),
            )
        validate_graph(graph)
    except (KeyError, TypeError) as error:
        raise ParseError(f"malformed graph dictionary: {error}") from error
    except GraphError as error:
        raise ParseError(f"invalid graph in document: {error}") from error
    return graph


def graph_fingerprint(graph: SDFGraph) -> str:
    """Stable content hash of *graph* — the graph-registry key.

    The fingerprint covers everything that determines analysis results
    (actors with execution times, channels with rates and initial
    tokens) and nothing that does not: the graph's display *name* is
    excluded, and actors/channels are sorted canonically, so two graphs
    built in different insertion orders — or submitted under different
    names by different clients — hash identically.  Any difference in
    structure, rates, execution times or initial tokens changes the
    hash.
    """
    canonical = {
        "actors": sorted(
            (actor.name, actor.execution_time) for actor in graph.actors.values()
        ),
        "channels": sorted(
            (
                channel.name,
                channel.source,
                channel.destination,
                channel.production,
                channel.consumption,
                channel.initial_tokens,
            )
            for channel in graph.channels.values()
        ),
    }
    digest = hashlib.sha256(
        json.dumps(canonical, separators=(",", ":")).encode("utf-8")
    )
    return digest.hexdigest()


def write_json(graph: SDFGraph, path: str | Path) -> None:
    """Write *graph* to *path* as JSON."""
    Path(path).write_text(json.dumps(graph_to_dict(graph), indent=2) + "\n", encoding="utf-8")


def read_json(path: str | Path) -> SDFGraph:
    """Read a JSON graph file written by :func:`write_json`."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ParseError(f"malformed JSON: {error}") from error
    return graph_from_dict(data)
