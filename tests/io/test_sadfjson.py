"""Unit tests for the versioned sadfjson format."""

import json

import pytest

from repro.exceptions import ParseError
from repro.gallery import h263_frames, modem_modes
from repro.io.sadfjson import (
    SADF_SCHEMA_VERSION,
    is_sadf_document,
    read_sadf_json,
    sadf_fingerprint,
    sadf_from_dict,
    sadf_to_dict,
    write_sadf_json,
)


def structure(sadf):
    fsm = sadf.fsm
    return (
        sadf.name,
        sadf.actor_names,
        [
            (c.name, c.source, c.destination, c.initial_tokens)
            for c in sadf.channels.values()
        ],
        {
            s.name: (
                dict(s.execution_times),
                dict(s.productions),
                dict(s.consumptions),
            )
            for s in sadf.scenarios.values()
        },
        None
        if fsm is None
        else (fsm.initial, [(t.source, t.target, t.delay) for t in fsm.transitions]),
    )


class TestRoundTrip:
    @pytest.mark.parametrize("factory", [modem_modes, h263_frames])
    def test_dict_roundtrip(self, factory):
        sadf = factory()
        again = sadf_from_dict(sadf_to_dict(sadf))
        assert structure(again) == structure(sadf)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "modes.json"
        write_sadf_json(modem_modes(), path)
        assert structure(read_sadf_json(path)) == structure(modem_modes())

    def test_document_shape(self):
        document = sadf_to_dict(h263_frames())
        assert document["schema"] == SADF_SCHEMA_VERSION
        assert document["model"] == "sadf"
        assert document["fsm"]["initial"] == "i"
        assert is_sadf_document(document)

    def test_fingerprint_stable_and_name_independent(self):
        a = sadf_to_dict(modem_modes())
        b = sadf_to_dict(modem_modes())
        b["name"] = "renamed"
        assert sadf_fingerprint(sadf_from_dict(a)) == sadf_fingerprint(
            sadf_from_dict(b)
        )
        assert sadf_fingerprint(modem_modes()) != sadf_fingerprint(h263_frames())

    def test_fingerprint_sees_delays(self):
        a = h263_frames()
        b = sadf_to_dict(h263_frames())
        b["fsm"]["transitions"][0]["delay"] += 1
        assert sadf_fingerprint(a) != sadf_fingerprint(sadf_from_dict(b))


class TestRejections:
    def test_unknown_schema_version(self):
        document = sadf_to_dict(h263_frames())
        document["schema"] = 99
        with pytest.raises(ParseError, match="schema version"):
            sadf_from_dict(document)

    def test_missing_schema(self):
        with pytest.raises(ParseError, match="schema version"):
            sadf_from_dict({"model": "sadf"})

    def test_unknown_model(self):
        document = sadf_to_dict(h263_frames())
        document["model"] = "csdf"
        with pytest.raises(ParseError, match="not an SADF document"):
            sadf_from_dict(document)

    def test_fsm_unknown_scenario_ref(self):
        document = sadf_to_dict(h263_frames())
        document["fsm"]["transitions"].append(
            {"source": "i", "target": "ghost", "delay": 0}
        )
        with pytest.raises(ParseError, match="unknown scenario"):
            sadf_from_dict(document)

    def test_scenario_references_unknown_channel(self):
        document = sadf_to_dict(h263_frames())
        document["scenarios"]["i"]["productions"]["ghost"] = 2
        with pytest.raises(ParseError, match="unknown channel"):
            sadf_from_dict(document)

    def test_empty_scenarios(self):
        document = sadf_to_dict(h263_frames())
        document["scenarios"] = {}
        del document["fsm"]
        with pytest.raises(ParseError, match="has no scenarios"):
            sadf_from_dict(document)

    def test_fsm_without_an_infinite_run(self):
        document = sadf_to_dict(h263_frames())
        document["fsm"]["transitions"] = [{"source": "i", "target": "p", "delay": 1}]
        with pytest.raises(ParseError, match="no long-run throughput"):
            sadf_from_dict(document)

    def test_missing_sections_are_parse_errors(self):
        with pytest.raises(ParseError, match="malformed"):
            sadf_from_dict({"schema": 1, "model": "sadf", "name": "x"})

    def test_scenarios_must_be_mapping(self):
        document = sadf_to_dict(h263_frames())
        document["scenarios"] = ["i", "p"]
        with pytest.raises(ParseError):
            sadf_from_dict(document)

    def test_non_mapping_document(self):
        with pytest.raises(ParseError, match="JSON object"):
            sadf_from_dict([1, 2, 3])

    def test_broken_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError, match="malformed JSON"):
            read_sadf_json(path)

    def test_is_sadf_document_on_plain_sdf(self, fig1):
        from repro.io.jsonio import graph_to_dict

        assert not is_sadf_document(graph_to_dict(fig1))
        assert not is_sadf_document("sadf")
        assert not is_sadf_document(None)
