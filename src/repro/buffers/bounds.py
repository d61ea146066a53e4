"""Bounds on the meaningful storage design space (Sec. 8, Fig. 7).

* Per-channel **lower bound** [ALP97, Mur96]: the smallest capacity of
  a channel with production rate ``p``, consumption rate ``c`` and
  ``d`` initial tokens for which the producer/consumer pair alone can
  sustain a positive throughput is

      max(d,  p + c - gcd(p, c) + d mod gcd(p, c)).

  Any distribution giving some channel less capacity deadlocks, so the
  exploration may restrict each channel to at least this value.  The
  bound is derived for the classical storage semantics and therefore
  *sound but not necessarily tight* under the paper's conservative
  claim-at-start model (e.g. a one-token rate-1 self-loop needs
  capacity 2 here); soundness is what the exploration requires.

* Per-channel **upper bound** [GGD02]: capacity

      d + p * q[src] + c * q[dst]

  (one full iteration of slack on both sides) is conservatively enough
  for the channel never to throttle the maximal throughput; the test
  suite cross-validates this against the MCM-based maximal throughput.

* The **combined** bounds — the sums over all channels — delimit the
  distribution-size axis of the design space that must be searched.
"""

from __future__ import annotations

from math import gcd

from repro.analysis.repetitions import repetition_vector
from repro.buffers.distribution import StorageDistribution
from repro.graph.channel import Channel
from repro.graph.graph import SDFGraph


def rate_lower_bound(production: int, consumption: int, initial_tokens: int) -> int:
    """The [ALP97] lower bound of a channel with constant rates."""
    divisor = gcd(production, consumption)
    return max(initial_tokens, production + consumption - divisor + initial_tokens % divisor)


def channel_lower_bound(channel: Channel) -> int:
    """Smallest capacity of *channel* compatible with positive throughput."""
    return rate_lower_bound(channel.production, channel.consumption, channel.initial_tokens)


def channel_upper_bound(channel: Channel, repetitions: dict[str, int] | None = None, graph: SDFGraph | None = None) -> int:
    """Capacity beyond which *channel* cannot limit the throughput.

    Either *repetitions* (the repetition vector) or *graph* must be
    supplied so the iteration counts of the endpoints are known.
    """
    if repetitions is None:
        if graph is None:
            raise ValueError("channel_upper_bound needs the repetition vector or the graph")
        repetitions = repetition_vector(graph)
    return (
        channel.initial_tokens
        + channel.production * repetitions[channel.source]
        + channel.consumption * repetitions[channel.destination]
    )


def lower_bound_distribution(graph: SDFGraph) -> StorageDistribution:
    """Per-channel lower bounds as a distribution (``lb`` of Fig. 7)."""
    return StorageDistribution(
        {channel.name: channel_lower_bound(channel) for channel in graph.channels.values()}
    )


def upper_bound_distribution(graph: SDFGraph) -> StorageDistribution:
    """Per-channel upper bounds as a distribution (``ub`` of Fig. 7)."""
    repetitions = repetition_vector(graph)
    return StorageDistribution(
        {
            channel.name: channel_upper_bound(channel, repetitions)
            for channel in graph.channels.values()
        }
    )


def size_bounds(graph: SDFGraph) -> tuple[int, int]:
    """The ``(lb, ub)`` interval of meaningful distribution sizes."""
    return lower_bound_distribution(graph).size, upper_bound_distribution(graph).size


def verified_upper_bound_distribution(
    graph: SDFGraph, observe: str | None = None
) -> StorageDistribution:
    """An upper-bound distribution *proven* to reach the maximal throughput.

    The one-iteration-per-side bound of :func:`upper_bound_distribution`
    reaches the graph's maximal throughput on most graphs, but phase
    effects can make it fall short (a property-test counterexample
    lives in the test suite).  This variant doubles the bound until the
    executed throughput matches the exact maximal throughput computed
    independently, so the returned distribution is a sound right edge
    for the design space of Fig. 7.
    """
    from repro.analysis.throughput import max_throughput
    from repro.engine.executor import Executor

    target = max_throughput(graph, observe)
    candidate = upper_bound_distribution(graph)
    while Executor(graph, candidate, observe).run().throughput < target:
        candidate = candidate.scaled(2)
    return candidate
