"""networkx is loaded only by the structural queries that build on it.

``import repro``, a default exploration and a constraint query compute
components, HSDF cycles and the maximum cycle ratio without networkx.
Each check runs in a fresh interpreter: the test process itself has
long since imported networkx through other tests.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

MODEM_FRONT = [(49, "1/4"), (50, "1/3"), (55, "1/2")]


def _run(code: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return run.stdout.strip().splitlines()


def test_default_exploration_and_query_leave_networkx_unloaded():
    loaded, front, query = _run(
        "import sys\n"
        "from fractions import Fraction\n"
        "import repro\n"
        "from repro.buffers.explorer import (\n"
        "    explore_design_space, minimal_distribution_for_throughput)\n"
        "from repro.gallery.registry import gallery_graph\n"
        "from repro.runtime.config import ExplorationConfig\n"
        "graph = gallery_graph('modem')\n"
        "result = explore_design_space(graph, config=ExplorationConfig())\n"
        "point = minimal_distribution_for_throughput(\n"
        "    graph, Fraction(1, 3), config=ExplorationConfig())\n"
        "print('networkx' in sys.modules)\n"
        "print([(p.size, str(p.throughput)) for p in result.front])\n"
        "print((point.size, str(point.throughput)))\n"
    )
    assert loaded == "False"
    assert ast.literal_eval(front) == MODEM_FRONT
    assert ast.literal_eval(query) == (50, "1/3")


def test_to_networkx_loads_networkx():
    before, after = _run(
        "import sys\n"
        "from repro.gallery.registry import gallery_graph\n"
        "graph = gallery_graph('modem')\n"
        "print('networkx' in sys.modules)\n"
        "graph.to_networkx()\n"
        "print('networkx' in sys.modules)\n"
    )
    assert (before, after) == ("False", "True")
