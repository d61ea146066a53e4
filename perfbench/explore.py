"""The two library workloads: closed-loop calls in one process.

``explore-default``
    Default ``ExplorationConfig()``: the full fronts of samplerate and
    modem, the front of modem's CSDF lift, the all-scenario sweep of the
    SADF ``modem-modes`` graph, and minimal-distribution queries at
    seeded targets on the three BML99 graphs.  Blocking probes on the
    reference executor dominate this path.
``explore-divide-cc``
    ``strategy="divide"`` with ``ExplorationConfig(bounds=True,
    backend="cc")``: modem, samplerate and satellite capped at the
    lower-bound corner plus :data:`fronts.SLACKS`, and throughput-window
    queries at seeded targets under the same config.  Python outside
    the compiled kernel dominates this path.

Each workload is a fixed list of operations; one repetition runs the
list once.  Every operation's answer is checked against the committed
reference fronts.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction

import fronts

#: Seconds of ``--seconds`` per work-list repetition.  On a 2-core
#: x86-64 host one repetition of explore-default takes 30-45 s and one of
#: explore-divide-cc 4-6 s (host speed varied that much); explore-divide-cc
#: runs four repetitions at ``--seconds 30`` (28 window queries), so that
#: its timed work spans 20 s and averages over the host's speed swings,
#: which last seconds.
SECONDS_PER_REP = {"explore-default": 37.0, "explore-divide-cc": 7.5}

#: explore-default runs at least this many constraint queries per
#: repetition (the median needs 20 samples).
MIN_QUERIES = 20


@dataclass
class Op:
    """One planned operation of the work list."""

    kind: str  # "front", "csdf", "sadf", "query" or "window"
    graph: str
    target: Fraction | None = None
    low: Fraction | None = None


@dataclass
class Outcome:
    kind: str
    graph: str
    latency_s: float
    error: str | None
    stats: dict | None = None


class ExploreWorkload:
    """Set-up (graphs, kernels, seeded targets) and the timed work list."""

    def __init__(self, name: str, seed: int, seconds: int):
        self.name = name
        self.rng = random.Random(seed)
        self.reps = max(1, round(seconds / SECONDS_PER_REP[name]))
        self.reference = fronts.load_reference()
        self.graphs = {name: fronts.bml99_graph(name) for name in fronts.BML99}
        self.divide = name == "explore-divide-cc"
        if self.divide:
            from repro.buffers.bounds import lower_bound_distribution
            from repro.runtime.config import ExplorationConfig

            # Raises ConfigError when no C compiler exists: this workload
            # measures the cc backend or nothing.
            self.config = ExplorationConfig(bounds=True, backend="cc")
            self.caps = {
                graph: lower_bound_distribution(self.graphs[graph]).size + fronts.SLACKS[graph]
                for graph in self.graphs
            }
        else:
            from repro.csdf.graph import from_sdf
            from repro.gallery import modem_modes
            from repro.runtime.config import ExplorationConfig

            self.config = ExplorationConfig()
            self.csdf_modem = from_sdf(self.graphs["modem"])
            self.modem_modes = modem_modes()

    def compile_kernels(self) -> None:
        """Build the cc kernels into the (fresh) kernel cache."""
        from repro.engine import ccore

        for graph in self.graphs.values():
            ccore.kernel_for(graph, graph.actor_names[-1])

    def plan(self) -> list[Op]:
        """The operations of one repetition, targets drawn from the seed."""
        if self.divide:
            ops = [Op("front", graph) for graph in self.graphs]
            windows = []
            for graph in self.graphs:
                reference = fronts.cut_at(self.reference[graph], self.caps[graph])
                highs = fronts.segment_targets(self.rng, reference)
                # Each window runs from just below one Pareto point to just
                # below the next: it keeps one point and answers the next
                # for every seed, so the seed does not change the work.
                lows = [fronts.draw_in(self.rng, Fraction(0), highs[0] / 20)] + highs[:-1]
                for low, high in zip(lows, highs):
                    windows.append(Op("window", graph, target=high, low=low))
            self.rng.shuffle(windows)
            return ops + windows
        ops = [Op("front", "samplerate"), Op("front", "modem"), Op("csdf", "modem"), Op("sadf", "modem-modes")]
        queries = [
            Op("query", graph, target=target)
            for graph in self.graphs
            for target in fronts.segment_targets(self.rng, self.reference[graph])
        ]
        extra = 0
        while len(queries) < MIN_QUERIES:
            # Further draws below the first point of each graph in turn.
            graph = list(self.graphs)[extra % len(self.graphs)]
            (target,) = fronts.segment_targets(self.rng, self.reference[graph][:1])
            queries.append(Op("query", graph, target=target))
            extra += 1
        self.rng.shuffle(queries)
        return ops + queries

    def run_op(self, op: Op, tracer) -> Outcome:
        from repro.buffers import explorer
        from repro.csdf import explorer as csdf_explorer
        from repro.sadf import explorer as sadf_explorer

        graph = self.graphs.get(op.graph)
        label = f"{op.kind} {op.graph}"
        span = tracer.span(f"op:{op.kind}") if tracer is not None else nullcontext()
        started = time.perf_counter()
        with span as opened:
            if op.kind == "front":
                result = explorer.explore_design_space(
                    graph,
                    strategy="divide" if self.divide else "dependency",
                    max_size=self.caps[op.graph] if self.divide else None,
                    config=self.config,
                )
            elif op.kind == "window":
                result = explorer.explore_design_space(
                    graph,
                    strategy="divide",
                    max_size=self.caps[op.graph],
                    throughput_bounds=(op.low, op.target),
                    config=self.config,
                )
            elif op.kind == "query":
                result = explorer.minimal_distribution_for_throughput(
                    graph, op.target, config=self.config
                )
            elif op.kind == "csdf":
                result = csdf_explorer.explore_csdf_design_space(self.csdf_modem)
            else:
                result = sadf_explorer.explore_design_space(self.modem_modes)
        latency = time.perf_counter() - started
        return Outcome(
            op.kind,
            op.graph,
            latency,
            self.check(op, result, label),
            self._stats(op, result, opened),
        )

    def _stats(self, op: Op, result, opened) -> dict | None:
        if op.kind not in ("front", "window"):
            return None
        stats = result.stats
        return {
            "backend": stats.backend,
            "evaluations": stats.evaluations,
            "cache_hits": stats.cache_hits,
            "oracle_useful": stats.bounds_exact + stats.bounds_cut,
            "sizes_probed": stats.sizes_probed if self.divide else None,
            "span": opened,
        }

    def check(self, op: Op, result, label: str) -> str | None:
        reference = self.reference[op.graph]
        if op.kind == "query":
            return fronts.check_constraint(
                op.target,
                None if result is None else result.size,
                None if result is None else result.throughput,
                reference,
                label,
            )
        got = fronts.canonical(result.front)
        if op.kind == "csdf":
            # The CSDF lift of an SDF graph has the SDF graph's front.
            return fronts.check_front(got, reference, label)
        if not result.complete:
            return f"{label}: exploration stopped incomplete"
        if self.divide and result.stats.backend != "cc":
            return f"{label}: ran on backend {result.stats.backend!r}, not cc"
        if op.kind == "window":
            return fronts.check_window(
                got, op.low, op.target, fronts.cut_at(reference, self.caps[op.graph]), label
            )
        if self.divide:
            # The capped divide front is the default front cut at the cap.
            reference = fronts.cut_at(reference, self.caps[op.graph])
        return fronts.check_front(got, reference, label)

