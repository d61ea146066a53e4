"""Seeded fuzz of the graph readers: every rejection is a ParseError.

Each case mutates one field of a gallery document — it drops a key, or
sets a value to ``None``, ``-1``, ``"x"``, ``""``, ``[]``, ``{}`` or
``1.5`` — and feeds it to its reader.  A reader may accept the mutant
(a harmless edit), and then its writers must write the graph back, or
reject it, but only with a :class:`~repro.exceptions.ParseError`: a
``ValueError`` escaping ``buffy`` is a traceback, and one escaping the
service's ``POST /v1/graphs`` drops the connection without an error
envelope.
"""

import copy
import json
import random
import xml.etree.ElementTree as ET
from functools import reduce
from operator import getitem

import pytest

from repro.csdf.graph import from_sdf
from repro.exceptions import ParseError
from repro.gallery.registry import gallery_graph, gallery_names, sadf_gallery_graph, sadf_gallery_names
from repro.io.csdfjson import csdf_from_dict, csdf_to_dict
from repro.io.jsonio import graph_from_dict, graph_to_dict
from repro.io.sadfjson import sadf_from_dict, sadf_to_dict
from repro.io.sdfxml import read_xml_string, write_xml_string

MUTANTS = (None, -1, "x", "", [], {}, 1.5)
#: Mutations per reader and seed.
CASES = 400


def sdf_documents():
    return [graph_to_dict(gallery_graph(name)) for name in gallery_names()]


def csdf_documents():
    return [csdf_to_dict(from_sdf(gallery_graph(name))) for name in gallery_names()]


def sadf_documents():
    return [sadf_to_dict(sadf_gallery_graph(name)) for name in sadf_gallery_names()]


def paths(value, prefix=()):
    """Every key and index path inside a decoded JSON document."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def mutate(document, rng):
    """A copy of *document* with one key dropped or one value replaced."""
    document = copy.deepcopy(document)
    path = rng.choice(list(paths(document)))
    parent = reduce(getitem, path[:-1], document)
    pick = rng.randrange(len(MUTANTS) + 1)
    if pick == len(MUTANTS) and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(MUTANTS[pick % len(MUTANTS)])
    return document


def mutate_xml(text, rng):
    """*text* with one attribute dropped or replaced, or one element
    removed."""
    root = ET.fromstring(text)
    parents = [(parent, child) for parent in root.iter() for child in parent]
    attributed = [element for element in root.iter() if element.attrib]
    if rng.random() < 0.2:
        parent, child = rng.choice(parents)
        parent.remove(child)
    else:
        element = rng.choice(attributed)
        name = rng.choice(sorted(element.attrib))
        value = rng.choice(MUTANTS)
        if value is None:
            del element.attrib[name]
        else:
            element.set(name, str(value))
    return ET.tostring(root, encoding="unicode")


def write_sdf(graph):
    json.dumps(graph_to_dict(graph))
    write_xml_string(graph)


def rejections(reader, writer, documents, mutator, seed):
    """Run *reader* on seeded mutants, and *writer* on what it accepts;
    return what escaped as anything but a ParseError, with the mutant
    that raised it."""
    rng = random.Random(seed)
    escaped = []
    for _ in range(CASES):
        mutant = mutator(rng.choice(documents), rng)
        try:
            writer(reader(mutant))
        except ParseError as error:
            assert str(error), "a ParseError must say what is wrong"
        except Exception as error:  # noqa: BLE001 - the point of the test
            escaped.append((type(error).__name__, str(error), mutant))
    return escaped


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "reader,writer,documents",
    [
        (graph_from_dict, write_sdf, sdf_documents),
        (csdf_from_dict, lambda graph: json.dumps(csdf_to_dict(graph)), csdf_documents),
        (sadf_from_dict, lambda graph: json.dumps(sadf_to_dict(graph)), sadf_documents),
    ],
    ids=["jsonio", "csdfjson", "sadfjson"],
)
def test_json_readers_reject_only_with_parse_errors(reader, writer, documents, seed):
    escaped = rejections(reader, writer, documents(), mutate, seed)
    assert not escaped, escaped[:3]


@pytest.mark.parametrize("seed", [1, 2])
def test_xml_reader_rejects_only_with_parse_errors(seed):
    texts = [write_xml_string(gallery_graph(name)) for name in gallery_names()]
    escaped = rejections(read_xml_string, write_sdf, texts, mutate_xml, seed)
    assert not escaped, escaped[:3]


@pytest.mark.parametrize(
    "reader,document,field",
    [
        (graph_from_dict, {"actors": [{"name": "a", "execution_time": "x"}], "channels": []},
         "execution_time"),
        (csdf_from_dict, {"actors": ["a"], "channels": []}, "actor"),
        (graph_from_dict, {"name": 1.5, "actors": [{"name": "a"}], "channels": []}, "name"),
    ],
)
def test_rejections_name_the_field(reader, document, field):
    with pytest.raises(ParseError, match=field):
        reader(document)
