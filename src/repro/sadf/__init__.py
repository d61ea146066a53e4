"""Scenario-aware (FSM-SADF) dataflow analysis.

A finite set of named *scenarios* — each a full SDF rate/execution-time
binding over one shared actor/channel skeleton — plus a finite-state
machine over scenario sequences with optional per-transition delays.
The subsystem answers the scenario-aware versions of the paper's
questions: worst-case throughput across *all* accepted scenario
sequences (:func:`worst_case_throughput`) and all-scenario buffer
sizing (:func:`explore_design_space`), with the degenerate
single-scenario case reproducing the plain SDF results bit-for-bit.
"""

from repro.sadf.explorer import (
    SADF_CHECKPOINT_FORMAT,
    SADF_CHECKPOINT_VERSION,
    SADF_STRATEGY,
    explore_design_space,
    max_worst_case_throughput,
    minimal_sadf_distribution_for_throughput,
)
from repro.sadf.fsm import ScenarioFSM, ScenarioTransition
from repro.sadf.graph import SADFActor, SADFChannel, SADFGraph, Scenario, from_sdf
from repro.sadf.makespan import MakespanResult, iteration_makespan
from repro.sadf.throughput import CycleRatio, WorstCaseReport, worst_case_throughput

__all__ = [
    "SADF_CHECKPOINT_FORMAT",
    "SADF_CHECKPOINT_VERSION",
    "SADF_STRATEGY",
    "CycleRatio",
    "MakespanResult",
    "SADFActor",
    "SADFChannel",
    "SADFGraph",
    "Scenario",
    "ScenarioFSM",
    "ScenarioTransition",
    "WorstCaseReport",
    "explore_design_space",
    "from_sdf",
    "iteration_makespan",
    "max_worst_case_throughput",
    "minimal_sadf_distribution_for_throughput",
    "worst_case_throughput",
]
