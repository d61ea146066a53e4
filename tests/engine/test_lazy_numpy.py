"""The package needs no numpy: no module imports it, and an exploration
leaves it unloaded.

The exploration runs in a fresh interpreter: the test process itself
may have imported numpy through other tests.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

FRONT = [(6, "1/7"), (8, "1/6"), (9, "1/5"), (10, "1/4")]


def _explore(config: str) -> tuple[bool, list]:
    code = (
        "import sys\n"
        "import repro\n"
        "from repro.buffers.explorer import explore_design_space\n"
        "from repro.gallery import fig1_example\n"
        "from repro.runtime.config import ExplorationConfig\n"
        f"result = explore_design_space(fig1_example(), 'c', config=ExplorationConfig({config}))\n"
        "print('numpy' in sys.modules)\n"
        "print([(p.size, str(p.throughput)) for p in result.front])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    loaded, front = run.stdout.strip().splitlines()
    return loaded == "True", ast.literal_eval(front)


def test_default_exploration_leaves_numpy_unloaded():
    loaded, front = _explore("")
    assert not loaded
    assert front == FRONT


def test_no_module_imports_numpy():
    importers = []
    for path in sorted(Path(SRC, "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append(path.name)
    assert importers == []
