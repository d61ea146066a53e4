"""SDF3-compatible XML input/output.

The dialect written and read here is the subset of the SDF3
``sdf3/applicationGraph`` schema needed for buffer-sizing: actors with
rate-annotated ports, channels with initial tokens, and per-actor
execution times in the ``sdfProperties`` section.  Files written by
:func:`write_xml` are accepted by SDF3's own tools for plain SDF
graphs, and SDF3-produced files with a single processor type load
unchanged.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

from repro.exceptions import GraphError, ParseError
from repro.graph.graph import SDFGraph
from repro.graph.validation import validate_graph
from repro.io.jsonio import parse_int


def write_xml_string(graph: SDFGraph) -> str:
    """Serialise *graph* to an SDF3-style XML document string."""
    root = ET.Element("sdf3", {"type": "sdf", "version": "1.0"})
    app = ET.SubElement(root, "applicationGraph", {"name": graph.name})
    sdf = ET.SubElement(app, "sdf", {"name": graph.name, "type": graph.name})
    for actor in graph.actors.values():
        actor_el = ET.SubElement(sdf, "actor", {"name": actor.name, "type": actor.name})
        for port in actor.ports.values():
            ET.SubElement(
                actor_el,
                "port",
                {"name": port.name, "type": port.direction.value, "rate": str(port.rate)},
            )
    for channel in graph.channels.values():
        attributes = {
            "name": channel.name,
            "srcActor": channel.source,
            "srcPort": channel.source_port,
            "dstActor": channel.destination,
            "dstPort": channel.destination_port,
        }
        if channel.initial_tokens:
            attributes["initialTokens"] = str(channel.initial_tokens)
        ET.SubElement(sdf, "channel", attributes)

    properties = ET.SubElement(app, "sdfProperties")
    for actor in graph.actors.values():
        actor_props = ET.SubElement(properties, "actorProperties", {"actor": actor.name})
        processor = ET.SubElement(actor_props, "processor", {"type": "cpu", "default": "true"})
        ET.SubElement(processor, "executionTime", {"time": str(actor.execution_time)})

    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True)


def write_xml(graph: SDFGraph, path: str | Path) -> None:
    """Write *graph* to *path* as SDF3-style XML."""
    Path(path).write_text(write_xml_string(graph), encoding="utf-8")


def read_xml_string(text: str) -> SDFGraph:
    """Parse an SDF3-style XML document into an :class:`SDFGraph`
    (:class:`ParseError` on any malformed document)."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as error:
        raise ParseError(f"malformed XML: {error}") from error
    try:
        return _read_root(root)
    except GraphError as error:
        raise ParseError(f"invalid graph in document: {error}") from error


def _read_root(root: ET.Element) -> SDFGraph:
    if root.tag != "sdf3":
        raise ParseError(f"expected <sdf3> root element, found <{root.tag}>")
    app = root.find("applicationGraph")
    if app is None:
        raise ParseError("missing <applicationGraph> element")
    sdf = app.find("sdf")
    if sdf is None:
        raise ParseError("missing <sdf> element")

    graph = SDFGraph(app.get("name") or sdf.get("name") or "sdf")

    execution_times = _parse_execution_times(app)
    port_rates: dict[tuple[str, str], int] = {}
    for actor_el in sdf.findall("actor"):
        name = actor_el.get("name")
        if not name:
            raise ParseError("actor without a name")
        graph.add_actor(name, execution_times.get(name, 1))
        for port_el in actor_el.findall("port"):
            port_name = port_el.get("name")
            rate = port_el.get("rate", "1")
            if not port_name:
                raise ParseError(f"actor {name!r}: port without a name")
            port_rates[(name, port_name)] = parse_int(rate, f"rate of port {port_name!r}")

    for channel_el in sdf.findall("channel"):
        name = channel_el.get("name")
        source = channel_el.get("srcActor")
        destination = channel_el.get("dstActor")
        source_port = channel_el.get("srcPort")
        destination_port = channel_el.get("dstPort")
        if not (name and source and destination and source_port and destination_port):
            raise ParseError(f"channel {name!r}: missing endpoint attributes")
        try:
            production = port_rates[(source, source_port)]
        except KeyError:
            raise ParseError(f"channel {name!r}: unknown source port {source}.{source_port}") from None
        try:
            consumption = port_rates[(destination, destination_port)]
        except KeyError:
            raise ParseError(
                f"channel {name!r}: unknown destination port {destination}.{destination_port}"
            ) from None
        tokens = parse_int(channel_el.get("initialTokens", "0"), f"initial tokens of {name!r}")
        graph.add_channel(source, destination, production, consumption, tokens, name)

    validate_graph(graph)
    return graph


def read_xml(path: str | Path) -> SDFGraph:
    """Read an SDF3-style XML file into an :class:`SDFGraph`."""
    return read_xml_string(Path(path).read_text(encoding="utf-8"))


def _parse_execution_times(app: ET.Element) -> dict[str, int]:
    times: dict[str, int] = {}
    properties = app.find("sdfProperties")
    if properties is None:
        return times
    for actor_props in properties.findall("actorProperties"):
        actor = actor_props.get("actor")
        if not actor:
            continue
        for processor in actor_props.findall("processor"):
            execution = processor.find("executionTime")
            if execution is not None:
                times[actor] = parse_int(
                    execution.get("time", "1"), f"execution time of {actor!r}"
                )
    return times
