"""``buffy`` — command-line storage/throughput exploration (Sec. 10).

The paper's tool takes an XML description of an SDF graph, optionally
bounds on the part of the design space of interest, and performs the
design-space exploration.  This reimplementation adds JSON input, the
bundled gallery graphs, throughput-constraint queries, schedule
rendering and several export formats.

Examples
--------
Explore the running example's full Pareto space::

    buffy gallery:example --observe c --chart

Minimal storage for a throughput constraint::

    buffy graph.xml --throughput 1/6

Render the Table-1 schedule of a concrete distribution::

    buffy gallery:example --capacities alpha=4,beta=2 --schedule 16
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from repro.buffers.distribution import StorageDistribution
from repro.buffers.explorer import (
    DesignSpaceResult,
    explore_design_space,
    minimal_distribution_for_throughput,
)
from repro.buffers.bounds import lower_bound_distribution, upper_bound_distribution
from repro.engine.executor import execute
from repro.exceptions import BudgetExhausted, ExplorationError, ReproError
from repro.gallery.registry import (
    gallery_graph,
    gallery_names,
    sadf_gallery_graph,
    sadf_gallery_names,
)
from repro.graph.graph import SDFGraph
from repro.io.dot import to_dot
from repro.runtime import Budget, ExplorationConfig
from repro.io.jsonio import read_json, write_json
from repro.io.sdfxml import read_xml, write_xml
from repro.reporting.plots import ascii_pareto
from repro.reporting.tables import schedule_table, table2, table2_row
from repro.reporting.svg import schedule_to_svg
from repro.io.vcd import schedule_to_vcd


def build_parser() -> argparse.ArgumentParser:
    """The buffy argument parser."""
    parser = argparse.ArgumentParser(
        prog="buffy",
        description="Exact storage/throughput trade-off exploration for SDF graphs.",
    )
    parser.add_argument(
        "graph",
        nargs="?",
        help="input graph: an .xml or .json file, or gallery:<name>",
    )
    parser.add_argument("--list-gallery", action="store_true", help="list bundled example graphs")
    parser.add_argument("--observe", metavar="ACTOR", help="actor whose throughput is analysed")
    parser.add_argument(
        "--strategy",
        choices=("dependency", "divide", "exhaustive"),
        default="dependency",
        help="exploration strategy (default: dependency)",
    )
    parser.add_argument("--quantum", metavar="P/Q", help="throughput quantisation step")
    parser.add_argument("--max-size", type=int, metavar="N", help="explore only sizes up to N")
    parser.add_argument(
        "--throughput",
        metavar="P/Q",
        help="report the minimal storage distribution meeting this throughput",
    )
    parser.add_argument(
        "--capacities",
        metavar="CH=N,...",
        help="evaluate one concrete storage distribution instead of exploring",
    )
    parser.add_argument(
        "--schedule",
        type=int,
        metavar="STEPS",
        help="with --capacities: render the schedule for the first STEPS time steps",
    )
    parser.add_argument("--chart", action="store_true", help="render the Pareto space as ASCII art")
    parser.add_argument(
        "--min-throughput",
        metavar="P/Q",
        help="restrict the explored Pareto space to throughputs >= this",
    )
    parser.add_argument(
        "--max-throughput",
        metavar="P/Q",
        help="stop the exploration once this throughput is reached",
    )
    parser.add_argument(
        "--shared",
        action="store_true",
        help="also report the shared-memory storage requirement (Sec. 3 model)",
    )
    parser.add_argument(
        "--latency",
        metavar="SRC:SNK",
        help="with --capacities: report initial and iteration latency",
    )
    parser.add_argument(
        "--vcd",
        metavar="FILE",
        help="with --capacities: write the schedule as a VCD waveform trace",
    )
    parser.add_argument(
        "--svg",
        metavar="FILE",
        help="with --capacities: write the schedule as an SVG Gantt chart",
    )
    parser.add_argument(
        "--csdf",
        action="store_true",
        help="treat a JSON input as a cyclo-static (CSDF) graph",
    )
    parser.add_argument(
        "--scenarios",
        action="store_true",
        help="treat the input as a scenario-aware (FSM-SADF) graph and"
        " analyse worst-case throughput over all accepted scenario"
        " sequences (auto-detected for sadfjson files and SADF gallery"
        " names)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan independent throughput probes out to N worker processes (default: 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the exact evaluation memo/pruning cache (differential baseline)",
    )
    parser.add_argument(
        "--bounds-oracle",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="consult the monotone throughput-bounds oracle before simulating:"
        " interval answers skip provably-dominated candidates and the divide"
        " strategy switches to the ascending probe walk (results are"
        " bit-identical; requires the cache)",
    )
    parser.add_argument(
        "--backend",
        default="auto",
        metavar="NAME",
        help="probe backend from the repro.engine.backends registry"
        " ('reference', 'fastcore', 'cc', or 'auto' for the best available"
        " on this host: cc wherever its one C kernel loads from the cache or"
        " builds, else fastcore); unknown names and host-unavailable backends"
        " fail up front (default: auto)",
    )
    parser.add_argument(
        "--codegen-cache-dir",
        metavar="DIR",
        help="directory for the compiled C probe kernel of 'cc' (default:"
        " $REPRO_CACHE_DIR/cc-kernels, else the XDG user cache)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget for the exploration; on expiry the partial"
        " Pareto front found so far is reported (exit code 3) and a resume"
        " checkpoint can be written with --checkpoint",
    )
    parser.add_argument(
        "--max-probes",
        type=int,
        metavar="N",
        help="stop the exploration after N throughput probes (cache hits and"
        " exact bounds-oracle answers are free); exit code 3 flags the partial"
        " result",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="write a resume checkpoint (memo cache + frontier) to FILE at the"
        " end of the run, complete or not",
    )
    parser.add_argument(
        "--resume",
        metavar="FILE",
        help="restore the memo cache from a previous run's checkpoint before"
        " exploring; the run continues where the budget cut it off",
    )
    parser.add_argument(
        "--stats-json",
        metavar="FILE",
        help="write the run's telemetry snapshot (event counters + timers) as JSON",
    )
    parser.add_argument(
        "--probe-timeout",
        type=float,
        metavar="SECONDS",
        help="per-probe watchdog for worker processes; a probe exceeding it"
        " triggers a pool restart / inline retry",
    )
    parser.add_argument("--table", action="store_true", help="print a Table-2 style summary row")
    parser.add_argument("--bounds", action="store_true", help="print the storage bound box")
    parser.add_argument("--dot", action="store_true", help="export the graph as Graphviz DOT")
    parser.add_argument("--export-xml", metavar="FILE", help="write the graph as SDF3-style XML")
    parser.add_argument("--export-json", metavar="FILE", help="write the graph as JSON")
    parser.add_argument(
        "--output-json",
        metavar="FILE",
        help="write the exploration result (Pareto front + stats) as JSON",
    )
    return parser


def load_graph(spec: str) -> SDFGraph:
    """Resolve a graph argument: gallery name or file path."""
    if spec.startswith("gallery:"):
        return gallery_graph(spec.removeprefix("gallery:"))
    path = Path(spec)
    if path.suffix == ".json":
        return read_json(path)
    return read_xml(path)


def parse_fraction(text: str) -> Fraction:
    """Parse ``P/Q`` or a decimal into an exact fraction."""
    return Fraction(text)


def parse_capacities(text: str) -> StorageDistribution:
    """Parse ``alpha=4,beta=2`` into a storage distribution."""
    capacities: dict[str, int] = {}
    for item in text.split(","):
        name, _sep, value = item.partition("=")
        capacities[name.strip()] = int(value)
    return StorageDistribution(capacities)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    out = sys.stdout

    try:
        if arguments.list_gallery:
            for name in gallery_names():
                print(name, file=out)
            for name in sadf_gallery_names():
                print(f"{name}  (scenarios)", file=out)
            return 0
        if not arguments.graph:
            parser.print_usage(file=sys.stderr)
            print("buffy: error: a graph argument is required", file=sys.stderr)
            return 2

        if arguments.csdf:
            return _run_csdf(arguments, out)
        if arguments.scenarios or _is_sadf_input(arguments.graph):
            return _run_sadf(arguments, out)
        graph = load_graph(arguments.graph)

        if arguments.export_xml:
            write_xml(graph, arguments.export_xml)
        if arguments.export_json:
            write_json(graph, arguments.export_json)
        if arguments.dot:
            print(to_dot(graph), end="", file=out)
            return 0
        if arguments.bounds:
            lower = lower_bound_distribution(graph)
            upper = upper_bound_distribution(graph)
            print(f"lower bounds: {lower}  (size {lower.size})", file=out)
            print(f"upper bounds: {upper}  (size {upper.size})", file=out)
            return 0

        if arguments.capacities:
            return _evaluate_distribution(graph, arguments, out)
        if arguments.throughput:
            return _minimal_for_constraint(graph, arguments, out)
        return _explore(graph, arguments, out)
    except BudgetExhausted as stop:
        # A constraint query whose budget tripped has no answer yet;
        # exit like a partial exploration.
        print(stop, file=out)
        return 3
    except ReproError as error:
        print(f"buffy: error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"buffy: error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


def _evaluate_distribution(graph: SDFGraph, arguments: argparse.Namespace, out) -> int:
    capacities = parse_capacities(arguments.capacities)
    need_schedule = any(
        value is not None for value in (arguments.schedule, arguments.vcd, arguments.svg)
    )
    result = execute(
        graph,
        capacities,
        arguments.observe,
        record_schedule=need_schedule,
    )
    print(f"distribution {capacities} (size {capacities.size})", file=out)
    print(f"throughput of {result.observe!r}: {result.throughput}", file=out)
    if result.deadlocked:
        when = f" at t={result.deadlock_time}" if result.deadlock_time is not None else ""
        print(f"execution deadlocks{when}", file=out)
    else:
        print(
            f"periodic phase: {result.firings_in_cycle} firing(s) per {result.cycle_duration}"
            f" time steps ({result.states_stored} states stored)",
            file=out,
        )
    if arguments.schedule is not None and result.schedule is not None:
        print(schedule_table(result.schedule, arguments.schedule), file=out)
    if arguments.shared:
        from repro.buffers.shared import shared_memory_requirement

        report = shared_memory_requirement(graph, capacities, arguments.observe)
        print(
            f"shared-memory requirement: {report.peak_shared_tokens} tokens"
            f" (saves {report.saving} over per-channel memories)",
            file=out,
        )
    if arguments.latency:
        from repro.analysis.latency import iteration_latency

        source, _sep, sink = arguments.latency.partition(":")
        report = iteration_latency(graph, capacities, source.strip(), sink.strip() or result.observe)
        print(
            f"latency {report.source} -> {report.sink}: initial {report.initial_latency},"
            f" per iteration {report.iteration_latency}",
            file=out,
        )
    if arguments.vcd and result.schedule is not None:
        Path(arguments.vcd).write_text(schedule_to_vcd(result.schedule), encoding="utf-8")
        print(f"VCD trace written to {arguments.vcd}", file=out)
    if arguments.svg and result.schedule is not None:
        Path(arguments.svg).write_text(
            schedule_to_svg(result.schedule, title=f"{graph.name} under {capacities}"),
            encoding="utf-8",
        )
        print(f"SVG Gantt chart written to {arguments.svg}", file=out)
    return 0


def _runtime_config(arguments: argparse.Namespace) -> "ExplorationConfig":
    """Fold the runtime-related CLI flags into one ExplorationConfig."""
    if getattr(arguments, "codegen_cache_dir", None):
        from repro.engine import ccore

        ccore.configure(cache_dir=arguments.codegen_cache_dir)
    budget = None
    if arguments.deadline is not None or arguments.max_probes is not None:
        budget = Budget(deadline_s=arguments.deadline, max_probes=arguments.max_probes)
    return ExplorationConfig(
        workers=arguments.workers,
        cache=not arguments.no_cache,
        bounds=arguments.bounds_oracle,
        budget=budget,
        checkpoint=arguments.checkpoint,
        probe_timeout=arguments.probe_timeout,
        backend=arguments.backend,
    )


def _minimal_for_constraint(graph: SDFGraph, arguments: argparse.Namespace, out) -> int:
    constraint = parse_fraction(arguments.throughput)
    point = minimal_distribution_for_throughput(
        graph,
        constraint,
        arguments.observe,
        config=_runtime_config(arguments),
    )
    if point is None:
        print(f"throughput {constraint} is not achievable for {graph.name!r}", file=out)
        return 1
    print(
        f"minimal storage for throughput >= {constraint}: size {point.size},"
        f" distribution {point.distribution} (throughput {point.throughput})",
        file=out,
    )
    return 0


def _explore(graph: SDFGraph, arguments: argparse.Namespace, out) -> int:
    quantum = parse_fraction(arguments.quantum) if arguments.quantum else None
    low = parse_fraction(arguments.min_throughput) if arguments.min_throughput else None
    high = parse_fraction(arguments.max_throughput) if arguments.max_throughput else None
    bounds = (low, high) if (low is not None or high is not None) else None
    result = explore_design_space(
        graph,
        arguments.observe,
        strategy=arguments.strategy,
        quantum=quantum,
        max_size=arguments.max_size,
        throughput_bounds=bounds,
        config=_runtime_config(arguments),
        resume=arguments.resume,
    )
    code = _report(result, arguments, out)
    if arguments.table:
        print(table2([table2_row(graph, arguments.observe, result)]), file=out)
    if arguments.shared:
        from repro.buffers.shared import compare_storage_models

        print("shared-memory requirement per Pareto point:", file=out)
        for point, report in zip(
            result.front, compare_storage_models(graph, result.front, result.observe)
        ):
            print(
                f"  size {point.size}: shared peak {report.peak_shared_tokens}"
                f" (saves {report.saving})",
                file=out,
            )
    return code


def _report(
    result: DesignSpaceResult, arguments: argparse.Namespace, out, chart_prefix: str = ""
) -> int:
    """Print an exploration result, write the files its flags ask for,
    and return the exit code (3 for a partial result)."""
    print(result.summary(), file=out)
    if arguments.checkpoint:
        print(f"resume checkpoint written to {arguments.checkpoint}", file=out)
    if arguments.stats_json:
        import json

        Path(arguments.stats_json).write_text(
            json.dumps(result.telemetry or {}, indent=2) + "\n", encoding="utf-8"
        )
        print(f"telemetry snapshot written to {arguments.stats_json}", file=out)
    if arguments.output_json:
        from repro.io.frontjson import write_result_json

        write_result_json(result, arguments.output_json)
        print(f"exploration result written to {arguments.output_json}", file=out)
    if arguments.chart:
        title = f"{chart_prefix}Pareto space of {result.graph_name!r}"
        print(ascii_pareto(result.front, title=title), file=out)
    return 0 if result.complete else 3


def _is_sadf_input(spec: str) -> bool:
    """Whether a graph argument names an SADF source (gallery entry or
    sadfjson document) without being asked via --scenarios."""
    if spec.startswith("gallery:"):
        return spec.removeprefix("gallery:") in sadf_gallery_names()
    path = Path(spec)
    if path.suffix != ".json" or not path.is_file():
        return False
    import json

    from repro.io.sadfjson import is_sadf_document

    try:
        return is_sadf_document(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, json.JSONDecodeError):
        return False


def load_sadf(spec: str):
    """Resolve a scenario-graph argument: gallery name or sadfjson path."""
    from repro.io.sadfjson import read_sadf_json

    if spec.startswith("gallery:"):
        return sadf_gallery_graph(spec.removeprefix("gallery:"))
    return read_sadf_json(spec)


def _run_sadf(arguments: argparse.Namespace, out) -> int:
    from repro.sadf import (
        explore_design_space as explore_sadf,
        minimal_sadf_distribution_for_throughput,
        worst_case_throughput,
    )

    sadf = load_sadf(arguments.graph)
    if arguments.capacities:
        capacities = parse_capacities(arguments.capacities)
        report = worst_case_throughput(sadf, capacities, arguments.observe)
        print(f"distribution {capacities} (size {capacities.size})", file=out)
        print(report.summary(), file=out)
        return 0
    if arguments.throughput:
        constraint = parse_fraction(arguments.throughput)
        point = minimal_sadf_distribution_for_throughput(
            sadf, constraint, arguments.observe, config=_runtime_config(arguments)
        )
        if point is None:
            print(
                f"worst-case throughput {constraint} is not achievable"
                f" for {sadf.name!r}",
                file=out,
            )
            return 1
        print(
            f"minimal storage for worst-case throughput >= {constraint}:"
            f" size {point.size}, distribution {point.distribution}"
            f" (throughput {point.throughput})",
            file=out,
        )
        return 0
    result = explore_sadf(
        sadf,
        arguments.observe,
        strategy=arguments.strategy,
        max_size=arguments.max_size,
        config=_runtime_config(arguments),
        resume=arguments.resume,
    )
    return _report(result, arguments, out, chart_prefix="SADF ")


def _run_csdf(arguments: argparse.Namespace, out) -> int:
    from repro.csdf.executor import CSDFExecutor
    from repro.io.csdfjson import read_csdf_json

    if arguments.shared:
        raise ExplorationError(
            "--shared needs per-channel occupancy tracking, which only SDF"
            " executions provide; it cannot be combined with --csdf"
        )
    graph = read_csdf_json(arguments.graph)
    if arguments.capacities:
        capacities = parse_capacities(arguments.capacities)
        result = CSDFExecutor(graph, capacities, arguments.observe).run()
        print(f"CSDF distribution {capacities} (size {capacities.size})", file=out)
        print(f"throughput of {result.observe!r}: {result.throughput}", file=out)
        if result.deadlocked:
            print("execution deadlocks", file=out)
        return 0
    if arguments.throughput:
        return _minimal_for_constraint(graph, arguments, out)
    return _explore(graph, arguments, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
