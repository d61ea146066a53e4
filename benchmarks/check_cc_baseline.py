"""CI gate: the compiled ``cc`` backend must keep its speedup and exactness.

Re-runs the wave workloads of the target BML99 case studies (modem and
satellite receiver, as recorded in the committed ``BENCH_cc.json``)
through the ``reference`` and ``cc`` backends, asserting

* lane-for-lane identical ``EvalResult``s (exactness is the contract
  that makes the backend seam safe), and
* a cc speedup at or above the acceptance target recorded in the
  baseline (>= 20x) on *every* target graph — measured fresh, because
  wall-clock figures from another machine are not comparable, while
  the speedup *ratio* on the same machine is.

On a host without a working C compiler the gate skips (exit 0) with a
message — the availability contract is covered by the unit suite; the
perf contract only applies where the backend can run at all.

A workload-shape drift (lane count changed) fails loudly instead of
silently gating a different benchmark.

Usage::

    PYTHONPATH=src python benchmarks/check_cc_baseline.py \
        --baseline BENCH_cc.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from bench_cc_probe import GALLERY, thin, workload_wave
from repro.engine import ccore
from repro.engine.backends import backend_for


def check_graph(name: str, entry: dict, target: float, repeats: int) -> bool:
    graph = GALLERY[name]()
    wave = workload_wave(name)
    if len(wave) != entry["lanes"]:
        print(
            f"FAIL: {name} workload drifted — {len(wave)} lanes vs baseline"
            f" {entry['lanes']}; re-record the baseline",
            file=sys.stderr,
        )
        return False

    reference = backend_for("reference")
    compiled = backend_for("cc")
    compiled.evaluate_batch(graph, wave[:2], None)  # compile outside timing

    best_ref, best_cc = float("inf"), float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        ref_results = reference.evaluate_batch(graph, wave, None)
        best_ref = min(best_ref, time.perf_counter() - started)
        started = time.perf_counter()
        cc_results = compiled.evaluate_batch(graph, wave, None)
        best_cc = min(best_cc, time.perf_counter() - started)
        if thin(cc_results) != thin(ref_results):
            print(f"FAIL: {name}: cc results differ from reference", file=sys.stderr)
            return False

    speedup = best_ref / best_cc if best_cc else 0.0
    print(
        f"{name}: cc {speedup:.1f}x over reference ({len(wave)} lanes;"
        f" baseline recorded {entry['cc_speedup']:.1f}x, target {target:.0f}x)"
    )
    if speedup < target:
        print(
            f"FAIL: {name}: {speedup:.1f}x < target {target:.0f}x — the compiled"
            " kernel regressed (or this machine is pathologically noisy:"
            " re-run before digging)",
            file=sys.stderr,
        )
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", default="BENCH_cc.json", help="committed benchmark report"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (best-of, damps CI noise)"
    )
    arguments = parser.parse_args(argv)

    reason = ccore.availability()
    if reason is not None:
        print(f"SKIP: cc backend unavailable — {reason}")
        return 0

    baseline = json.loads(Path(arguments.baseline).read_text(encoding="utf-8"))
    target = float(baseline["speedup_target"])
    ok = all(
        check_graph(name, baseline["graphs"][name], target, arguments.repeats)
        for name in baseline["target_graphs"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
