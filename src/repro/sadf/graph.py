"""Scenario-aware dataflow graphs (FSM-SADF).

An :class:`SADFGraph` is a finite set of named *scenarios* over one
shared actor/channel *skeleton*: every scenario binds a full SDF
rate + execution-time assignment to the same actors and channels
(Skelin/Geilen, arXiv:1404.0089).  Which scenario sequences the
application may execute is described by a
:class:`~repro.sadf.fsm.ScenarioFSM` over the scenario names, with
optional integer delays on its transitions (mode-transition overhead in
the sense of Jung/Oh/Ha, arXiv:1603.05775).

Each scenario materialises as an ordinary validated
:class:`~repro.graph.graph.SDFGraph` (:meth:`SADFGraph
.scenario_graph`), so the whole existing analysis stack — executor,
evaluation service, bounds, Pareto machinery — applies per scenario
unchanged.  Because the skeleton fixes the channel set, one
:class:`~repro.buffers.distribution.StorageDistribution` prices every
scenario at once, which is what the all-scenario buffer sizing of
:mod:`repro.sadf.explorer` trades against worst-case throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from repro.analysis.consistency import assert_consistent
from repro.analysis.repetitions import repetition_vector
from repro.exceptions import GraphError, ValidationError
from repro.graph.graph import SDFGraph
from repro.sadf.fsm import ScenarioFSM


@dataclass(frozen=True)
class SADFActor:
    """A skeleton actor: a name shared by every scenario."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("actor name must be non-empty")


@dataclass(frozen=True)
class SADFChannel:
    """A skeleton channel: topology and initial tokens are scenario-
    independent; the rates live on the scenarios."""

    name: str
    source: str
    destination: str
    initial_tokens: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("channel name must be non-empty")
        if not isinstance(self.initial_tokens, int) or isinstance(self.initial_tokens, bool):
            raise GraphError(f"channel {self.name!r}: initial tokens must be int")
        if self.initial_tokens < 0:
            raise GraphError(f"channel {self.name!r}: initial tokens must be >= 0")


@dataclass(frozen=True)
class Scenario:
    """One named rate/execution-time binding over the skeleton.

    All three mappings are *total* over the skeleton (the graph fills
    unmentioned actors/channels with the default of 1 at
    :meth:`SADFGraph.add_scenario` time), so a scenario always defines
    a complete SDF graph.
    """

    name: str
    execution_times: Mapping[str, int]
    productions: Mapping[str, int]
    consumptions: Mapping[str, int]


class SADFGraph:
    """A scenario-aware dataflow graph: skeleton + scenarios + FSM."""

    def __init__(self, name: str = "sadf"):
        if not name:
            raise GraphError("graph name must be non-empty")
        self.name = name
        self._actors: dict[str, SADFActor] = {}
        self._channels: dict[str, SADFChannel] = {}
        self._scenarios: dict[str, Scenario] = {}
        self._graphs: dict[str, SDFGraph] = {}
        self._repetitions: dict[str, dict[str, int]] = {}
        self._fsm: ScenarioFSM | None = None

    # -- skeleton construction --------------------------------------------
    def add_actor(self, name: str) -> SADFActor:
        """Add a skeleton actor (execution times come per scenario)."""
        if name in self._actors:
            raise GraphError(f"duplicate actor name {name!r}")
        if self._scenarios:
            raise GraphError(
                "the skeleton is frozen once the first scenario is added"
            )
        actor = SADFActor(name)
        self._actors[name] = actor
        return actor

    def add_channel(
        self,
        source: str,
        destination: str,
        initial_tokens: int = 0,
        name: str | None = None,
    ) -> SADFChannel:
        """Connect *source* to *destination* (rates come per scenario)."""
        if source not in self._actors:
            raise GraphError(f"unknown source actor {source!r}")
        if destination not in self._actors:
            raise GraphError(f"unknown destination actor {destination!r}")
        if self._scenarios:
            raise GraphError(
                "the skeleton is frozen once the first scenario is added"
            )
        if name is None:
            index = len(self._channels)
            while f"ch{index}" in self._channels:
                index += 1
            name = f"ch{index}"
        if name in self._channels:
            raise GraphError(f"duplicate channel name {name!r}")
        channel = SADFChannel(name, source, destination, initial_tokens)
        self._channels[name] = channel
        return channel

    # -- scenarios ----------------------------------------------------------
    def add_scenario(
        self,
        name: str,
        execution_times: Mapping[str, int] | None = None,
        productions: Mapping[str, int] | None = None,
        consumptions: Mapping[str, int] | None = None,
    ) -> Scenario:
        """Bind one scenario; unmentioned actors/channels default to 1.

        The scenario's SDF graph is built and validated immediately:
        unknown actor/channel names raise
        :class:`~repro.exceptions.ValidationError`, and an inconsistent
        rate assignment raises
        :class:`~repro.exceptions.InconsistentGraphError` — a scenario
        that cannot execute never enters the graph.
        """
        if not name:
            raise GraphError("scenario name must be non-empty")
        if name in self._scenarios:
            raise GraphError(f"duplicate scenario name {name!r}")
        if not self._actors:
            raise GraphError("add actors and channels before scenarios")
        times = self._total(name, "execution time", execution_times, self._actors, 0)
        prods = self._total(name, "production rate", productions, self._channels, 1)
        cons = self._total(name, "consumption rate", consumptions, self._channels, 1)
        scenario = Scenario(name, times, prods, cons)
        graph = self._build(scenario)
        assert_consistent(graph)  # InconsistentGraphError on bad rates
        self._scenarios[name] = scenario
        self._graphs[name] = graph
        return scenario

    def _total(
        self,
        scenario: str,
        what: str,
        given: Mapping[str, int] | None,
        domain: Mapping[str, object],
        minimum: int,
    ) -> Mapping[str, int]:
        """A total mapping over *domain*, validated, defaulting to 1."""
        values = dict.fromkeys(domain, 1)
        for key, value in (given or {}).items():
            if key not in domain:
                kind = "actor" if minimum == 0 else "channel"
                raise ValidationError(
                    f"scenario {scenario!r}: {what} names unknown {kind} {key!r}"
                )
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(
                    f"scenario {scenario!r}: {what} of {key!r} must be int"
                )
            if value < minimum:
                raise ValidationError(
                    f"scenario {scenario!r}: {what} of {key!r} must be >= {minimum}"
                )
            values[key] = value
        return values

    def _build(self, scenario: Scenario) -> SDFGraph:
        graph = SDFGraph(f"{self.name}@{scenario.name}")
        for actor in self._actors:
            graph.add_actor(actor, scenario.execution_times[actor])
        for channel in self._channels.values():
            graph.add_channel(
                channel.source,
                channel.destination,
                scenario.productions[channel.name],
                scenario.consumptions[channel.name],
                channel.initial_tokens,
                name=channel.name,
            )
        return graph

    def scenario_graph(self, name: str) -> SDFGraph:
        """The validated SDF graph of scenario *name*."""
        try:
            return self._graphs[name]
        except KeyError:
            raise GraphError(
                f"unknown scenario {name!r};"
                f" available: {', '.join(self._scenarios) or 'none'}"
            ) from None

    def scenario_repetitions(self, name: str) -> dict[str, int]:
        """The repetition vector of scenario *name* (cached)."""
        if name not in self._repetitions:
            self._repetitions[name] = repetition_vector(self.scenario_graph(name))
        return self._repetitions[name]

    # -- FSM ----------------------------------------------------------------
    def set_fsm(self, fsm: ScenarioFSM) -> None:
        """Attach the scenario FSM; every state must name a scenario."""
        unknown = sorted(set(fsm.states) - set(self._scenarios))
        if unknown:
            raise GraphError(
                f"FSM references unknown scenario(s): {', '.join(unknown)}"
            )
        self._fsm = fsm

    @property
    def fsm(self) -> ScenarioFSM | None:
        """The attached FSM, or ``None`` when every sequence is allowed."""
        return self._fsm

    def effective_fsm(self) -> ScenarioFSM:
        """The attached FSM, or the default *any order* automaton: fully
        connected with zero-delay transitions over every scenario."""
        if self._fsm is not None:
            return self._fsm
        if not self._scenarios:
            raise GraphError(f"SADF graph {self.name!r} has no scenarios")
        return ScenarioFSM.complete(tuple(self._scenarios))

    @property
    def is_single_scenario(self) -> bool:
        """True iff the graph degenerates to plain SDF: one scenario and
        an FSM that only ever repeats it with zero transition delay."""
        if len(self._scenarios) != 1:
            return False
        fsm = self.effective_fsm()
        (only,) = self._scenarios
        return (
            tuple(fsm.states) == (only,)
            and all(t.delay == 0 for t in fsm.transitions)
        )

    # -- access -------------------------------------------------------------
    @property
    def actors(self) -> Mapping[str, SADFActor]:
        """Skeleton actors by name, in insertion order."""
        return self._actors

    @property
    def channels(self) -> Mapping[str, SADFChannel]:
        """Skeleton channels by name, in insertion order."""
        return self._channels

    @property
    def scenarios(self) -> Mapping[str, Scenario]:
        """Scenarios by name, in insertion order."""
        return self._scenarios

    @property
    def actor_names(self) -> list[str]:
        return list(self._actors)

    @property
    def channel_names(self) -> list[str]:
        return list(self._channels)

    @property
    def scenario_names(self) -> list[str]:
        return list(self._scenarios)

    def validate(self) -> None:
        """Whole-graph check: scenarios exist, the FSM refers only to
        them, and it has an infinite run, without which there is no
        long-run throughput (individual scenarios were validated on
        entry)."""
        if not self._scenarios:
            raise GraphError(f"SADF graph {self.name!r} has no scenarios")
        fsm = self.effective_fsm()
        unknown = sorted(set(fsm.states) - set(self._scenarios))
        if unknown:
            raise GraphError(
                f"FSM references unknown scenario(s): {', '.join(unknown)}"
            )
        if not fsm.has_infinite_run():
            raise GraphError(
                f"SADF graph {self.name!r}: no FSM cycle is reachable from"
                f" {fsm.initial!r}, so every accepted sequence ends and there"
                " is no long-run throughput"
            )

    def describe(self) -> str:
        """Multi-line human-readable description."""
        lines = [
            f"SADFGraph {self.name!r}: {len(self._actors)} actors,"
            f" {len(self._channels)} channels, {len(self._scenarios)} scenario(s)"
        ]
        for channel in self._channels.values():
            tokens = f" [{channel.initial_tokens} tok]" if channel.initial_tokens else ""
            lines.append(
                f"  channel {channel.name}: {channel.source} -> {channel.destination}{tokens}"
            )
        for scenario in self._scenarios.values():
            rates = ", ".join(
                f"{name}={scenario.productions[name]}:{scenario.consumptions[name]}"
                for name in self._channels
            )
            lines.append(f"  scenario {scenario.name}: {rates}")
        if self._fsm is not None:
            lines.append(f"  fsm: {self._fsm.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"SADFGraph({self.name!r}, actors={len(self._actors)},"
            f" channels={len(self._channels)}, scenarios={len(self._scenarios)})"
        )


def from_sdf(graph: SDFGraph, scenario: str = "default") -> SADFGraph:
    """Lift an SDF graph into a single-scenario SADF graph.

    The result is *degenerate*: its (single-state, zero-delay) FSM
    accepts exactly the sequence ``scenario, scenario, ...``, so every
    analysis reduces to the plain SDF one —
    :func:`repro.sadf.explorer.explore_design_space` reproduces the SDF
    Pareto front bit-for-bit on such graphs.
    """
    lifted = SADFGraph(graph.name)
    for actor in graph.actors.values():
        lifted.add_actor(actor.name)
    for channel in graph.channels.values():
        lifted.add_channel(
            channel.source,
            channel.destination,
            channel.initial_tokens,
            name=channel.name,
        )
    lifted.add_scenario(
        scenario,
        execution_times={a.name: a.execution_time for a in graph.actors.values()},
        productions={c.name: c.production for c in graph.channels.values()},
        consumptions={c.name: c.consumption for c in graph.channels.values()},
    )
    lifted.set_fsm(ScenarioFSM.single(scenario))
    return lifted
