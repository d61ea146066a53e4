"""Unit tests for repro.io.frontjson."""

import json
from fractions import Fraction

import pytest

from repro.buffers.explorer import RESULT_SCHEMA_VERSION, explore_design_space
from repro.exceptions import ParseError, ReproError
from repro.io.frontjson import (
    front_to_dict,
    parse_throughput,
    read_result_json,
    result_from_dict,
    result_to_dict,
    write_result_json,
)


def test_front_serialisation(fig1):
    result = explore_design_space(fig1, "c")
    data = front_to_dict(result.front)
    assert [entry["size"] for entry in data] == [6, 8, 9, 10]
    assert data[0]["throughput"] == "1/7"
    assert abs(data[0]["throughput_float"] - 1 / 7) < 1e-12
    assert {"alpha": 4, "beta": 2} in data[0]["witnesses"]


def test_result_serialisation(fig1):
    result = explore_design_space(fig1, "c")
    data = result_to_dict(result)
    assert data["graph"] == "example"
    assert data["observe"] == "c"
    assert data["max_throughput"] == "1/4"
    assert data["lower_bounds"] == {"alpha": 4, "beta": 2}
    assert data["stats"]["strategy"] == "dependency"
    assert data["stats"]["evaluations"] >= 4


def test_file_export_is_valid_json(tmp_path, fig1):
    result = explore_design_space(fig1, "c")
    path = tmp_path / "front.json"
    write_result_json(result, path)
    data = json.loads(path.read_text())
    assert len(data["pareto_front"]) == 4


def test_throughput_roundtrip(fig1):
    result = explore_design_space(fig1, "c")
    for entry in front_to_dict(result.front):
        value = parse_throughput(entry["throughput"])
        assert isinstance(value, Fraction)
    assert parse_throughput("1/7") == Fraction(1, 7)


class TestSchemaVersion:
    def test_payload_carries_schema_field(self, fig1):
        data = result_to_dict(explore_design_space(fig1, "c"))
        assert data["schema"] == RESULT_SCHEMA_VERSION == 1

    def test_roundtrip_keeps_schema(self, tmp_path, fig1):
        result = explore_design_space(fig1, "c")
        path = tmp_path / "front.json"
        write_result_json(result, path)
        restored = read_result_json(path)
        assert restored.front == result.front
        assert restored.to_dict() == result.to_dict()

    def test_unknown_version_rejected_with_repro_error(self, fig1):
        data = result_to_dict(explore_design_space(fig1, "c"))
        data["schema"] = 99
        with pytest.raises(ReproError, match="schema version 99"):
            result_from_dict(data)

    def test_missing_schema_read_as_version_1(self, fig1):
        data = result_to_dict(explore_design_space(fig1, "c"))
        del data["schema"]  # documents written before the field existed
        assert result_from_dict(data).front == explore_design_space(fig1, "c").front

    def test_stats_of_removed_counters_ignored(self, tmp_path, fig1):
        """Results written before probe waves and speculation were removed
        carry their counters in ``stats``; they still load."""
        result = explore_design_space(fig1, "c")
        data = result_to_dict(result)
        data["stats"].update(
            speculative_issued=3,
            speculative_useful=2,
            speculative_wasted=1,
            batch_calls=4,
            batch_lanes=9,
        )
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        restored = read_result_json(path)
        assert restored.front == result.front
        assert restored.to_dict() == result.to_dict()


class TestReaderErrorPaths:
    def test_truncated_file(self, tmp_path, fig1):
        path = tmp_path / "cut.json"
        write_result_json(explore_design_space(fig1, "c"), path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ParseError, match="not valid result JSON"):
            read_result_json(path)

    def test_wrong_schema_version_from_file(self, tmp_path, fig1):
        data = result_to_dict(explore_design_space(fig1, "c"))
        data["schema"] = 2
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="schema version 2"):
            read_result_json(path)

    def test_non_integer_capacities(self, tmp_path, fig1):
        data = result_to_dict(explore_design_space(fig1, "c"))
        data["lower_bounds"]["alpha"] = "lots"
        path = tmp_path / "caps.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="malformed exploration result"):
            read_result_json(path)

    def test_missing_section(self, fig1):
        data = result_to_dict(explore_design_space(fig1, "c"))
        del data["pareto_front"]
        with pytest.raises(ParseError, match="malformed exploration result"):
            result_from_dict(data)

    def test_non_object_payload(self):
        with pytest.raises(ParseError, match="JSON object"):
            result_from_dict(["not", "a", "result"])

    def test_happy_path_unaffected(self, tmp_path, fig1):
        result = explore_design_space(fig1, "c")
        path = tmp_path / "ok.json"
        write_result_json(result, path)
        assert read_result_json(path).max_throughput == result.max_throughput
