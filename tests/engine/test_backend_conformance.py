"""Backend-conformance harness: every registered probe backend is exact.

The :mod:`repro.engine.backends` registry is the seam future
accelerated kernels (cffi, GPU, remote) plug into.  The contract is
strict: for every capacity vector a backend must return the *same*
``EvalResult`` — throughput as an exact :class:`~fractions.Fraction`,
``states_stored``, ``deadlocked`` — as the instrumented reference
executor, and explorations driven through it must produce bit-identical
Pareto fronts, witnesses and (normalised) stats.

A backend declaring the ``"blocking"`` capability is asked with
``blocking=True`` and must also return the reference's
``space_blocked`` and ``space_deficits`` — on every graph family,
zero-time cascades included, where the order in which an instant's
checks see intermediate token counts decides what they record.

Everything here is parametrised over :func:`backend_names`, so a new
backend inherits the whole suite by calling
:func:`~repro.engine.backends.register_backend` — no test edits needed.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import pytest

from repro.buffers.bounds import lower_bound_distribution, upper_bound_distribution
from repro.buffers.enumerate import distributions_of_size
from repro.buffers.explorer import explore_design_space
from repro.csdf.executor import CSDFExecutor
from repro.csdf.graph import from_sdf
from repro.engine.backends import (
    EvalResult,
    backend_availability,
    backend_for,
    backend_names,
)
from repro.gallery import (
    fig1_example,
    fig6_example,
    h263_decoder,
    modem,
    random_consistent_graph,
    sample_rate_converter,
    satellite_receiver,
)

# Host-unavailable backends (e.g. "cc" without a C compiler) skip with
# the availability reason instead of silently vanishing from the matrix.
BACKENDS = [
    pytest.param(
        name,
        marks=()
        if (reason := backend_availability(backend_for(name))) is None
        else pytest.mark.skip(reason=f"backend {name!r} unavailable: {reason}"),
    )
    for name in backend_names()
]

#: Gallery cases: name -> (graph factory, heavy?).  Heavy graphs only
#: run in the full (non-tier-1) CI job.
GALLERY = {
    "fig1": (fig1_example, False),
    "fig6": (fig6_example, False),
    "modem": (modem, False),
    "samplerate": (sample_rate_converter, False),
    "satellite": (satellite_receiver, True),
    "h263": (lambda: h263_decoder(blocks=9), False),
}

GALLERY_CASES = [
    pytest.param(name, marks=pytest.mark.slow if heavy else ())
    for name, (_factory, heavy) in GALLERY.items()
]


def probe_vectors(graph, count=8):
    """A deterministic capacity wave exercising the interesting regimes.

    Includes the per-channel structural minimum (often deadlocking),
    comfortable vectors and a duplicate lane.  Every lane bounds every
    channel: leaving a channel unbounded can make the self-timed
    execution aperiodic (tokens accumulate without revisiting a state),
    which no engine can finish — the unbounded convention is covered by
    :func:`test_unbounded_channels` on a feedback-bounded graph instead.
    """
    channels = sorted(graph.channel_names)
    floor = {
        name: max(
            graph.channels[name].initial_tokens,
            max(graph.channels[name].production, graph.channels[name].consumption),
        )
        for name in channels
    }
    comfortable = {
        name: max(
            graph.channels[name].initial_tokens,
            graph.channels[name].production + graph.channels[name].consumption,
        )
        for name in channels
    }
    vectors = [dict(floor), dict(comfortable)]
    for k in range(1, count - 2):
        vector = dict(comfortable)
        vector[channels[k % len(channels)]] += k
        for i, name in enumerate(channels):
            vector[name] += (k + i) % 3
        vectors.append(vector)
    vectors.append(dict(comfortable))  # duplicate lane
    return vectors


def lower_corner_wave(graph, lanes=128):
    """The first *lanes* capacity vectors a divide-and-conquer
    exploration scans: the enumeration slices from the lower-bound
    corner upward."""
    lower = lower_bound_distribution(graph)
    upper = upper_bound_distribution(graph)
    vectors = []
    size = lower.size
    while len(vectors) < lanes and size <= upper.size:
        slice_ = distributions_of_size(graph.channel_names, size, lower, upper)
        vectors.extend(dict(d) for d in islice(slice_, lanes - len(vectors)))
        size += 1
    return vectors


#: Capacity waves by name.
WAVES = {"regimes": probe_vectors, "lower-corner": lower_corner_wave}


@pytest.fixture(scope="module")
def reference_results():
    """Reference-backend results per gallery case and wave, computed once."""
    cache = {}

    def resolve(name, wave="regimes"):
        if (name, wave) not in cache:
            graph = GALLERY[name][0]()
            vectors = WAVES[wave](graph)
            cache[name, wave] = (
                graph,
                vectors,
                backend_for("reference").evaluate_batch(graph, vectors, None),
            )
        return cache[name, wave]

    return resolve


def assert_conforms(backend_name, graph, vectors, expected, observe=None):
    """*backend_name*'s results for *vectors* equal the reference's
    *expected*; a blocking-capable backend is asked for blocking data
    and must match it too."""
    backend = backend_for(backend_name)
    blocking = "blocking" in backend.capabilities
    results = backend.evaluate_batch(graph, vectors, observe, blocking=blocking)
    assert len(results) == len(expected)
    for got, want in zip(results, expected):
        assert isinstance(got, EvalResult)
        assert isinstance(got.throughput, Fraction)
        assert got.throughput == want.throughput
        assert got.states_stored == want.states_stored
        assert got.deadlocked == want.deadlocked
        if blocking:
            assert got.space_blocked == want.space_blocked
            assert got.space_deficits == want.space_deficits
        else:
            assert got.space_blocked is None and got.space_deficits is None


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("case", GALLERY_CASES)
def test_eval_results_match_reference(backend_name, case, reference_results):
    """Every backend returns the reference EvalResults, lane for lane."""
    graph, vectors, expected = reference_results(case)
    assert_conforms(backend_name, graph, vectors, expected)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize(
    "case", ["modem", pytest.param("satellite", marks=pytest.mark.slow)]
)
def test_lower_corner_waves_match_reference(backend_name, case, reference_results):
    """128-lane waves of the vectors a divide-and-conquer exploration of
    the BML99 case studies scans first, lane for lane."""
    graph, vectors, expected = reference_results(case, "lower-corner")
    assert len(vectors) == 128
    assert_conforms(backend_name, graph, vectors, expected)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_plain_probes_collect_no_blocking_data(backend_name):
    """Only the reference collects blocking data unasked."""
    if backend_name == "reference":
        pytest.skip("the reference backend always collects blocking data")
    graph = fig1_example()
    for result in backend_for(backend_name).evaluate_batch(graph, probe_vectors(graph), None):
        assert result.space_blocked is None and result.space_deficits is None


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_explicit_observe_matches_reference(backend_name):
    """Observing a non-default actor agrees across backends too."""
    graph = fig1_example()
    vectors = probe_vectors(graph, count=5)
    observe = graph.actor_names[0]
    expected = backend_for("reference").evaluate_batch(graph, vectors, observe)
    assert_conforms(backend_name, graph, vectors, expected, observe)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_empty_wave_is_empty(backend_name):
    assert backend_for(backend_name).evaluate_batch(fig1_example(), [], None) == []


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_unbounded_channels(backend_name):
    """Channels omitted from the mapping are unbounded.

    The feedback edge keeps the token population finite, so the run
    still reaches a periodic phase and all backends agree on it.
    """
    from repro.graph.builder import GraphBuilder

    graph = (
        GraphBuilder("feedback")
        .actors({"p": 2, "q": 3})
        .channel("p", "q", 1, 1, name="data")
        .channel("q", "p", 1, 1, initial_tokens=2, name="credit")
        .build()
    )
    waves = [
        {"credit": 2},  # "data" unbounded
        {"data": 2, "credit": 2},
        {},  # everything unbounded
    ]
    expected = backend_for("reference").evaluate_batch(graph, waves, None)
    assert_conforms(backend_name, graph, waves, expected)


def normalised(stats):
    """ExplorationStats minus the how-probes-ran dimensions.

    Wall time, the backend label and pool health are allowed to differ
    between backends; every counter that feeds papers' tables (probe
    counts, cache hits, oracle behaviour) is not.
    """
    return replace(
        stats,
        wall_time_s=0.0,
        backend=None,
        pool_restarts=0,
        pool_fallback_reason=None,
        parallel_batches=0,
    )


EXPLORE_CASES = [
    pytest.param("fig1", "divide", marks=()),
    pytest.param("fig6", "dependency", marks=()),
    pytest.param("samplerate", "divide", marks=pytest.mark.slow),
]


def _explore(case, strategy, backend):
    from repro.runtime.config import ExplorationConfig

    return explore_design_space(
        GALLERY[case][0](),
        strategy=strategy,
        config=ExplorationConfig(backend=backend, bounds=True),
    )


@pytest.fixture(scope="module")
def expected_exploration():
    """Reference-backend exploration per case, computed once per module."""
    cache = {}

    def resolve(case, strategy):
        if (case, strategy) not in cache:
            cache[case, strategy] = _explore(case, strategy, "reference")
        return cache[case, strategy]

    return resolve


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("case,strategy", EXPLORE_CASES)
def test_exploration_matches_reference_backend(
    backend_name, case, strategy, expected_exploration
):
    """Fronts, witnesses and normalised stats are backend-independent.

    At a fixed config the service issues the same probes whichever
    backend executes them, so every exploration counter is identical.
    The reference backend's own row doubles as a determinism check (two
    independent runs must agree).
    """
    expected = expected_exploration(case, strategy)
    result = _explore(case, strategy, backend_name)
    assert [(p.size, p.throughput, p.witnesses) for p in result.front] == [
        (p.size, p.throughput, p.witnesses) for p in expected.front
    ]
    assert result.max_throughput == expected.max_throughput
    assert normalised(result.stats) == normalised(expected.stats)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("seed", [7, 23, 2006])
def test_random_graphs_match_reference(backend_name, seed):
    """Conformance holds beyond the gallery: random consistent graphs."""
    graph = random_consistent_graph(
        random.Random(seed), max_actors=4, max_repetition=3, max_rate_factor=1
    )
    vectors = probe_vectors(graph, count=6)
    expected = backend_for("reference").evaluate_batch(graph, vectors, None)
    assert_conforms(backend_name, graph, vectors, expected)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_zero_time_cascades_match_reference(backend_name):
    """Random graphs with zeroed execution times: zero-time firings move
    tokens in the middle of an instant, so a check's blocking record
    depends on when in the cascade it runs."""
    for seed in range(24):
        rng = random.Random(seed)
        graph = random_consistent_graph(rng)
        graph = graph.with_execution_times(
            {
                name: 0 if rng.random() < 0.4 else graph.actors[name].execution_time
                for name in graph.actor_names
            }
        )
        vectors = probe_vectors(graph, count=6)
        expected = backend_for("reference").evaluate_batch(graph, vectors, None)
        assert_conforms(backend_name, graph, vectors, expected)


# -- CSDF cases ---------------------------------------------------------
#
# Probe backends take SDF graphs; the CSDF executor covers the
# cyclo-static superset.  A single-phase CSDF lift of an SDF graph is
# semantically the *same* graph, so every backend must agree with
# CSDFExecutor on the lifted gallery — anchoring the backend seam to
# the CSDF layer's independent implementation.

CSDF_CASES = [
    pytest.param("fig1", marks=()),
    pytest.param("fig6", marks=()),
    pytest.param("modem", marks=pytest.mark.slow),
]


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("case", CSDF_CASES)
def test_csdf_lift_agrees(backend_name, case):
    graph = GALLERY[case][0]()
    lifted = from_sdf(graph)
    vectors = probe_vectors(graph, count=5)
    results = backend_for(backend_name).evaluate_batch(graph, vectors, None)
    for capacities, result in zip(vectors, results):
        csdf = CSDFExecutor(lifted, capacities).run()
        assert result.throughput == csdf.throughput
        assert result.deadlocked == csdf.deadlocked
