#!/usr/bin/env python3
"""Buffer sizing for a cyclo-static downsampler (CSDF extension).

The paper's conclusions propose generalising the exact exploration to
richer dataflow models; this example runs the CSDF generalisation on a
small audio-style pipeline with a two-phase decimator whose second
phase produces nothing, and exports the resulting schedule as a VCD
waveform for inspection in GTKWave.

Run with:  python examples/csdf_downsampler.py
"""

from fractions import Fraction
from pathlib import Path
import tempfile

from repro.csdf import (
    CSDFExecutor,
    CSDFGraph,
    csdf_max_throughput,
    csdf_repetition_vector,
    explore_csdf_design_space,
)
from repro.io import schedule_to_vcd


def build_pipeline() -> CSDFGraph:
    """source -> biquad filter -> 2:1 decimator -> sink."""
    graph = CSDFGraph("decimator")
    graph.add_actor("src", (1,))
    graph.add_actor("biquad", (2,))
    # The decimator consumes one sample in each of its two phases but
    # emits only in the first; the second phase is cheaper.
    graph.add_actor("decim", (2, 1))
    graph.add_actor("snk", (1,))
    graph.add_channel("src", "biquad", (1,), (1,), name="raw")
    graph.add_channel("biquad", "decim", (1,), (1, 1), name="filtered")
    graph.add_channel("decim", "snk", (1, 0), (1,), name="decimated")
    return graph


def main() -> None:
    graph = build_pipeline()
    print(graph.describe())
    print(f"repetition vector (phase cycles): {csdf_repetition_vector(graph)}")
    print(f"maximal throughput of 'snk': {csdf_max_throughput(graph, 'snk')}")
    print()

    result = explore_csdf_design_space(graph, "snk")
    print(f"Pareto space ({result.stats.evaluations} evaluations):")
    for point in result.front:
        print(f"  {point}")
    print()

    # Execute the cheapest maximal-throughput distribution and dump a
    # waveform trace of the schedule.
    top = result.front.max_throughput_point
    run = CSDFExecutor(graph, top.distribution, "snk", record_schedule=True).run()
    assert run.throughput == top.throughput
    vcd = schedule_to_vcd(run.schedule, until=24)
    out = Path(tempfile.gettempdir()) / "decimator.vcd"
    out.write_text(vcd)
    print(f"throughput {run.throughput} with {top.distribution}")
    print(f"VCD schedule trace written to {out} ({len(vcd.splitlines())} lines)")
    print()
    print("first trace lines:")
    for line in vcd.splitlines()[:12]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
