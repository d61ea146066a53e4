"""Differential tests: fast event-calendar kernel vs reference executor.

The fast kernel must be *bit-for-bit* equivalent to the reference
``Executor`` on uninstrumented runs — the tests below therefore compare
full :class:`ExecutionResult` dataclasses (throughput, transient/cycle
state counts, ``states_stored``, ``first_firing_time``, deadlock
classification, and the reduced states themselves), not just the
throughput value.
"""

from dataclasses import replace

import pytest

from repro.buffers.bounds import lower_bound_distribution
from repro.engine.executor import Executor, execute
from repro.engine.fastcore import (
    FastKernel,
    fast_execute,
    kernel_for,
    unsupported_options,
)
from repro.exceptions import GraphError
from repro.gallery import (
    fig1_example,
    fig6_example,
    h263_decoder,
    modem,
    sample_rate_converter,
    satellite_receiver,
)

GALLERY = {
    "fig1": fig1_example,
    "fig6": fig6_example,
    "modem": modem,
    "samplerate": sample_rate_converter,
    "satellite": satellite_receiver,
    "h263-small": lambda: h263_decoder(blocks=9),
}


def _capacity_sweep(graph):
    """Lower bound + slack sweep, plus deadlock-prone tightened vectors."""
    lower = lower_bound_distribution(graph)
    for slack in (0, 1, 2, 5):
        yield {name: lower[name] + slack for name in graph.channel_names}
    for squeeze in (1, 2):
        yield {
            name: max(graph.channels[name].initial_tokens, lower[name] - squeeze)
            for name in graph.channel_names
        }


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_bitwise_equivalent_across_capacity_sweep(name):
    graph = GALLERY[name]()
    kernel = FastKernel(graph)
    for caps in _capacity_sweep(graph):
        reference = Executor(graph, caps).run()
        assert kernel.run(caps) == reference
        tracked = Executor(graph, caps, track_blocking=True).run()
        assert kernel.run(caps, track_blocking=True) == tracked
        assert kernel.probe(caps) == (
            reference.throughput, reference.states_stored, reference.deadlocked, None
        )
        assert kernel.probe(caps, blocking=True) == (
            tracked.throughput,
            tracked.states_stored,
            tracked.deadlocked,
            dict(tracked.space_deficits),
        )
        assert set(tracked.space_deficits) == tracked.space_blocked


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_equivalent_under_explicit_observe(name):
    graph = GALLERY[name]()
    observe = graph.actor_names[0]
    lower = lower_bound_distribution(graph)
    caps = {n: lower[n] + 1 for n in graph.channel_names}
    assert FastKernel(graph, observe).run(caps) == Executor(graph, caps, observe).run()


def test_fast_execute_equals_execute_reference(fig1):
    caps = {"alpha": 4, "beta": 2}
    assert fast_execute(fig1, caps, "c") == Executor(fig1, caps, "c").run()
    assert execute(fig1, caps, "c") == fast_execute(fig1, caps, "c")


# -- execute's choice of kernel ------------------------------------------


def test_unsupported_options_lists_blockers_sorted():
    blockers = unsupported_options(
        {
            "track_occupancy": True,
            "track_blocking": True,
            "record_schedule": True,
            "max_instants": 7,
        }
    )
    assert blockers == ["record_schedule", "track_occupancy"]
    assert unsupported_options({"mode": "tick"}) == ["mode='tick'"]


def test_execute_auto_keeps_instrumentation(fig1):
    result = execute(fig1, {"alpha": 4, "beta": 2}, "c", record_schedule=True)
    assert result.schedule is not None  # reference fallback produced it
    caps = {"alpha": 4, "beta": 2}
    for options in (
        {"track_blocking": True, "record_schedule": True},
        {"track_occupancy": True},
        {"processors": {"a": "p0"}},
        {"mode": "tick"},
    ):
        result = execute(fig1, caps, "c", **options)
        reference = Executor(fig1, caps, "c", **options).run()
        assert replace(result, schedule=None) == replace(reference, schedule=None)
        if reference.schedule is not None:
            assert result.schedule.events == reference.schedule.events
    assert execute(fig1, caps, "c", track_occupancy=True).peak_shared_tokens is not None


def test_execute_tracks_blocking_on_the_fast_kernel(fig1, monkeypatch):
    caps = {"alpha": 4, "beta": 2}
    expected = Executor(fig1, caps, "c", track_blocking=True).run()
    assert expected.space_blocked  # the tight distribution blocks on space
    plain = Executor(fig1, caps, "c").run()

    def refuse(self):
        raise AssertionError("the reference executor ran")

    monkeypatch.setattr(Executor, "run", refuse)
    assert execute(fig1, caps, "c", track_blocking=True) == expected
    # Options the kernel supports, and falsy instrumentation flags, keep
    # the run on the kernel too.
    for options in (
        {},
        {"max_instants": 100, "stall_threshold": 5},
        {"record_schedule": False, "processors": None},
        {"mode": "event"},
    ):
        assert execute(fig1, caps, "c", **options) == plain


def test_execute_takes_no_engine_selector(fig1):
    with pytest.raises(TypeError, match="engine"):
        execute(fig1, {"alpha": 4, "beta": 2}, "c", engine="reference")


# -- kernel compilation and caching -------------------------------------


def test_kernel_for_reuses_compiled_kernel(fig1):
    assert kernel_for(fig1, "c") is kernel_for(fig1, "c")
    assert kernel_for(fig1, "a") is not kernel_for(fig1, "c")


def test_kernel_cache_invalidated_by_structural_growth(fig1):
    before = kernel_for(fig1, "c")
    fig1.add_actor("extra", 1)
    fig1.add_channel("c", "extra", 1, 1)
    after = kernel_for(fig1, "extra")
    assert after is not before
    # The old observe key was recompiled too (shape changed).
    assert kernel_for(fig1, "c") is not before


def test_kernel_rejects_empty_graph():
    from repro.graph.graph import SDFGraph

    with pytest.raises(GraphError, match="empty graph"):
        FastKernel(SDFGraph("empty"))


def test_kernel_rejects_unknown_observe(fig1):
    with pytest.raises(GraphError, match="unknown observed actor"):
        FastKernel(fig1, "nope")


def test_kernel_run_is_repeatable(fig1):
    kernel = FastKernel(fig1, "c")
    caps = {"alpha": 4, "beta": 2}
    assert kernel.run(caps) == kernel.run(caps)
    # A different distribution on the same kernel stays independent.
    wider = kernel.run({"alpha": 7, "beta": 3})
    assert wider.throughput > kernel.run(caps).throughput
