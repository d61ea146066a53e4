"""Worst-case throughput of an FSM-SADF graph over all accepted
scenario sequences.

**Switch-barrier semantics.**  While the FSM keeps taking a zero-delay
self-loop on scenario *s*, the graph executes *s*'s SDF semantics
self-timed and pipelined — its long-run rate is the familiar
steady-state throughput ``thr_s(d)`` under storage distribution *d*.
Taking any other transition drains the pipeline: the current iteration
completes (returning every channel to its initial marking), the
transition delay elapses, and the next scenario starts afresh.  One
barriered iteration of *s* therefore costs its *iteration makespan*
``ms_s(d)`` (:mod:`repro.sadf.makespan`).

**Worst case.**  Any infinite accepted sequence decomposes into
residences (self-looping on one scenario) and switching tours (cycles
of the FSM).  Its long-run observed rate is bounded from below by

* ``thr_s(d)`` for every reachable scenario *s* with a zero-delay
  self-loop, and
* ``ratio_C(d) = (sum of observed firings) / (sum of makespans + sum
  of delays)`` for every cycle *C* of the reachable sub-FSM,

and the bound is attained (stay forever in the worst residence, or
tour the worst cycle forever).  By the mediant inequality the ratio of
any composite cycle is at least the minimum over the simple cycles it
decomposes into, so the minimum over the two families above *is* the
exact worst case under this protocol.

**Cycles as a max-plus spectral problem.**  The worst cycle ratio is
``1 / MCR`` of the scenario automaton (Skelin, Geilen et al.,
arXiv:1404.0089): every transition *s* -> *t* other than a zero-delay
self-loop is an edge of weight ``ms_s(d) + delay`` (the mode-transition
delay of Jung, Oh and Ha, arXiv:1603.05775) and transit ``r_s``, the
observed firings of one iteration of *s*.  One call of the exact
integer engine :func:`repro.analysis.mcm.cycle_ratio` answers it, for
FSMs of any density.  An FSM whose reachable part closes no cycle has
no infinite run and is rejected by :meth:`SADFGraph.validate
<repro.sadf.graph.SADFGraph.validate>`.

Every quantity is exact (:class:`fractions.Fraction`), and every
component is monotone in *d* (more buffer space never slows the
self-timed execution), so the worst case is monotone too — which is
what lets the Pareto machinery of :mod:`repro.sadf.explorer` prune.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Callable, Mapping

from repro.analysis.mcm import cycle_ratio
from repro.engine.executor import Executor
from repro.exceptions import GraphError
from repro.sadf.fsm import ScenarioFSM
from repro.sadf.graph import SADFGraph
from repro.sadf.makespan import MakespanResult, iteration_makespan


@dataclass(frozen=True)
class CycleRatio:
    """Long-run rate of touring one FSM cycle forever.

    ``states`` lists the scenarios visited (in order, from the first
    one in :meth:`~repro.sadf.fsm.ScenarioFSM.reachable` order),
    ``firings`` the observed-actor completions per tour, ``duration``
    the tour's total time (makespans plus delays).
    """

    states: tuple[str, ...]
    firings: int
    duration: int
    delay: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.firings, self.duration)


@dataclass(frozen=True)
class WorstCaseReport:
    """Full worst-case throughput decomposition at one distribution.

    ``cycle`` is the switching cycle of the lowest rate, or ``None``
    when the reachable FSM has none (or a scenario deadlocks).
    """

    observe: str
    worst_case: Fraction
    per_scenario: Mapping[str, Fraction]
    makespans: Mapping[str, int | None]
    cycle: CycleRatio | None
    critical: str

    def summary(self) -> str:
        lines = [f"worst-case throughput of {self.observe!r}: {self.worst_case}"]
        for name, value in self.per_scenario.items():
            makespan = self.makespans.get(name)
            lines.append(
                f"  scenario {name}: steady-state {value},"
                f" iteration makespan {makespan if makespan is not None else 'deadlock'}"
            )
        if self.cycle is not None:
            lines.append(
                f"  cycle {' -> '.join(self.cycle.states)}: {self.cycle.firings} firing(s)"
                f" / {self.cycle.duration} (+{self.cycle.delay} delay) = {self.cycle.ratio}"
            )
        lines.append(f"  binding constraint: {self.critical}")
        return "\n".join(lines)


def worst_case_throughput(
    sadf: SADFGraph,
    distribution: Mapping[str, int],
    observe: str | None = None,
    *,
    throughputs: Callable[[str], Fraction] | None = None,
    makespans: Callable[[str], MakespanResult] | None = None,
) -> WorstCaseReport:
    """Exact worst-case throughput of *sadf* at *distribution*.

    ``throughputs`` / ``makespans`` optionally supply memoised
    per-scenario oracles (the explorer's evaluation services); by
    default each scenario is executed directly with the reference
    engine.  Both must price exactly the given distribution.
    """
    sadf.validate()
    if observe is None:
        observe = sadf.actor_names[-1]
    if observe not in sadf.actors:
        raise GraphError(f"SADF graph {sadf.name!r} has no actor {observe!r}")

    fsm = sadf.effective_fsm()
    reachable = fsm.reachable()

    def scenario_throughput(name: str) -> Fraction:
        if throughputs is not None:
            return throughputs(name)
        graph = sadf.scenario_graph(name)
        return Executor(graph, dict(distribution), observe).run().throughput

    def scenario_makespan(name: str) -> MakespanResult:
        if makespans is not None:
            return makespans(name)
        return iteration_makespan(
            sadf.scenario_graph(name),
            distribution,
            sadf.scenario_repetitions(name),
        )

    per_scenario = {name: scenario_throughput(name) for name in reachable}
    makespan_results = {name: scenario_makespan(name) for name in reachable}
    makespan_times = {name: r.time for name, r in makespan_results.items()}
    firings = {
        name: sadf.scenario_repetitions(name)[observe] for name in reachable
    }

    # A reachable scenario that deadlocks — in steady state or within
    # one barriered iteration — pins the worst case to zero outright.
    for name in reachable:
        if per_scenario[name] == 0 or makespan_times[name] is None:
            return WorstCaseReport(
                observe,
                Fraction(0),
                per_scenario,
                makespan_times,
                None,
                f"scenario {name!r} deadlocks at this distribution",
            )

    # Residences come first, so they win ties with the cycle.
    candidates = [
        (per_scenario[name], f"residence in scenario {name!r}")
        for name in reachable
        if fsm.has_zero_delay_self_loop(name)
    ]
    cycle = _slowest_cycle(fsm, reachable, makespan_times, firings)
    if cycle is not None:
        candidates.append((cycle.ratio, f"switching cycle {' -> '.join(cycle.states)}"))
    worst, critical = min(candidates, key=lambda item: item[0])
    return WorstCaseReport(observe, worst, per_scenario, makespan_times, cycle, critical)


def _slowest_cycle(
    fsm: ScenarioFSM,
    reachable: tuple[str, ...],
    makespans: Mapping[str, int],
    firings: Mapping[str, int],
) -> CycleRatio | None:
    """The switching cycle of the reachable FSM with the lowest rate:
    the critical cycle of the scenario automaton, or ``None``."""
    index = {state: position for position, state in enumerate(reachable)}
    transitions = [
        t
        for t in fsm.transitions
        if t.source in index and not (t.source == t.target and t.delay == 0)
    ]
    found = cycle_ratio(
        len(reachable),
        [
            (index[t.source], index[t.target], makespans[t.source] + t.delay, firings[t.source])
            for t in transitions
        ],
    )
    if found is None:
        return None
    tour = [transitions[position] for position in found[2]]
    first = min(range(len(tour)), key=lambda step: index[tour[step].source])
    tour = tour[first:] + tour[:first]
    states = tuple(t.source for t in tour)
    delay = sum(t.delay for t in tour)
    return CycleRatio(
        states,
        sum(firings[s] for s in states),
        sum(makespans[s] for s in states) + delay,
        delay,
    )
