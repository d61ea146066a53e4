"""Regenerate ``perfbench/reference_fronts.json``.

Explores the BML99 gallery graphs and the SADF ``modem-modes`` graph
under the default configuration and writes their exact fronts.  Run it
from the repository root only when the program's answers are meant to
change::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fronts import BML99, REFERENCE_PATH, as_json, bml99_graph, canonical  # noqa: E402


def main() -> int:
    from repro.buffers.explorer import explore_design_space
    from repro.gallery import modem_modes
    from repro.sadf.explorer import explore_design_space as explore_sadf

    fronts = {name: as_json(canonical(explore_design_space(bml99_graph(name)).front)) for name in BML99}
    fronts["modem-modes"] = as_json(canonical(explore_sadf(modem_modes()).front))
    # One point per line: [size, "throughput", [witness, ...]].
    lines = []
    for name, front in fronts.items():
        points = ",\n".join("   " + json.dumps(point, sort_keys=True) for point in front)
        lines.append(f"  {json.dumps(name)}: [\n{points}\n  ]")
    text = '{\n "fronts": {\n' + ",\n".join(lines) + "\n }\n}\n"
    REFERENCE_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
