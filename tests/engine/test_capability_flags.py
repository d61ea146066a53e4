"""One helper feeds every backend-capability listing.

``capability_flags`` is the single source of the per-backend boolean
flags; ``repro backends --json`` and ``GET /v1/backends`` must both
serve exactly what it computes.
"""

import json

from repro.engine.backends import (
    KNOWN_CAPABILITIES,
    backend_descriptions,
    backend_for,
    capability_flags,
)
from repro.service.cli import main as service_main
from repro.service.server import AnalysisServer


class TestHelper:
    def test_reference_backend_flags(self):
        assert capability_flags(backend_for("reference")) == {
            "exact": True,
            "blocking": True,
            "compiled": False,
            "lanes": False,
        }

    def test_flags_cover_exactly_the_known_capabilities(self):
        for name in ("reference", "fastcore", "cc"):
            flags = capability_flags(backend_for(name))
            assert tuple(flags) == KNOWN_CAPABILITIES
            assert all(isinstance(value, bool) for value in flags.values())

    def test_descriptions_carry_consistent_flags(self):
        for row in backend_descriptions():
            assert row["flags"] == capability_flags(backend_for(row["name"]))
            for tag, enabled in row["flags"].items():
                assert enabled == (tag in row["capabilities"])


class TestSharedSurfaces:
    def test_cli_json_matches_the_helper(self, capsys):
        assert service_main(["backends", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {row["name"]: row for row in rows}
        for name, row in by_name.items():
            assert row["flags"] == capability_flags(backend_for(name))

    def test_v1_backends_matches_the_helper(self):
        with AnalysisServer(workers=1) as server:
            response = server.api.handle("GET", "/v1/backends")
            assert response.status == 200
            rows = json.loads(response.body)["backends"]
        assert rows == backend_descriptions()
        for row in rows:
            assert row["flags"] == capability_flags(backend_for(row["name"]))
