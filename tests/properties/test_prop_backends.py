"""Property harness for the backends' batch interface and the pool.

Three families of invariants over Hypothesis-generated graphs and
capacity waves:

* **Singles equivalence** — for every registered backend,
  ``evaluate_batch(vs)`` equals the per-vector loop over the same
  backend, and equals the reference backend.
* **Wave shape invariance** — permuting or duplicating the lanes of a
  wave permutes/duplicates the results and nothing else (lanes are
  independent; no cross-lane state may leak).
* **Pool transparency** — an :class:`EvaluationService` run with
  ``workers=2`` leaves *exactly* the same memo cache and bounds-oracle
  contents as the serial per-probe path.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.buffers.evalcache import EvaluationService
from repro.engine.backends import backend_availability, backend_for, backend_names
from repro.gallery.random_graphs import random_consistent_graph
from repro.runtime.config import ExplorationConfig

seeds = st.integers(min_value=0, max_value=10**9)

# Only backends this host can actually run (e.g. "cc" needs a C
# compiler); the properties loop over the list inside each example.
BACKENDS = tuple(
    name
    for name in backend_names()
    if backend_availability(backend_for(name)) is None
)


def small_graph(seed):
    return random_consistent_graph(
        random.Random(seed), max_actors=4, max_repetition=3, max_rate_factor=1
    )


def random_wave(graph, seed, lanes=6, spread=3):
    """Deterministic random capacity vectors, all channels bounded."""
    rng = random.Random(seed)
    channels = sorted(graph.channel_names)
    base = {
        name: max(
            graph.channels[name].initial_tokens,
            graph.channels[name].production + graph.channels[name].consumption,
        )
        for name in channels
    }
    return [
        {name: base[name] + rng.randrange(0, spread) for name in channels}
        for _ in range(lanes)
    ]


def thin(results):
    return [(r.throughput, r.states_stored, r.deadlocked) for r in results]


@given(seeds, seeds)
@settings(max_examples=25, deadline=None)
def test_batch_equals_singles(graph_seed, wave_seed):
    """(a) evaluate_batch(vs) == [evaluate_batch([v]) for v in vs],
    and every backend equals the reference backend."""
    graph = small_graph(graph_seed)
    wave = random_wave(graph, wave_seed)
    expected = thin(backend_for("reference").evaluate_batch(graph, wave, None))
    for name in BACKENDS:
        backend = backend_for(name)
        batched = thin(backend.evaluate_batch(graph, wave, None))
        singles = [
            thin(backend.evaluate_batch(graph, [vector], None))[0] for vector in wave
        ]
        assert batched == singles, name
        assert batched == expected, name


@given(seeds, seeds, seeds)
@settings(max_examples=20, deadline=None)
def test_batch_is_order_and_duplicate_invariant(graph_seed, wave_seed, shuffle_seed):
    """(b) permuted / duplicated lanes give permuted / duplicated results."""
    graph = small_graph(graph_seed)
    wave = random_wave(graph, wave_seed)
    rng = random.Random(shuffle_seed)
    order = list(range(len(wave)))
    rng.shuffle(order)
    dup = rng.randrange(len(wave))
    shuffled = [wave[i] for i in order] + [wave[dup]]

    for name in BACKENDS:
        backend = backend_for(name)
        base = thin(backend.evaluate_batch(graph, wave, None))
        mixed = thin(backend.evaluate_batch(graph, shuffled, None))
        assert mixed[:-1] == [base[i] for i in order], name
        assert mixed[-1] == base[dup], name


def service_fingerprint(service):
    """What a service holds after plain queries: its whole memo records
    (blocking fields included) and the oracle."""
    with service.memo.lock:
        return dict(service.memo.records), service.memo.oracle.snapshot()


def drive(service, waves):
    """The access pattern of a scan: overlapping demand waves."""
    out = []
    for wave in waves:
        out.extend(service.evaluate_many(wave))
    return out


@given(seeds, seeds)
@settings(max_examples=15, deadline=None)
def test_memo_and_oracle_identical_with_workers(graph_seed, wave_seed):
    """(c) pool on/off: same results, same memo, same oracle."""
    graph = small_graph(graph_seed)
    wave = random_wave(graph, wave_seed, lanes=9)
    waves = [wave[:4], wave[2:7], wave[5:]]

    configs = {
        "classic": ExplorationConfig(bounds=True),
        "pooled": ExplorationConfig(bounds=True, workers=2),
    }
    outputs = {}
    fingerprints = {}
    for label, config in configs.items():
        service = EvaluationService(graph, config=config)
        try:
            outputs[label] = drive(service, waves)
            fingerprints[label] = service_fingerprint(service)
        finally:
            service.close()
    assert outputs["pooled"] == outputs["classic"]
    assert fingerprints["pooled"] == fingerprints["classic"]
