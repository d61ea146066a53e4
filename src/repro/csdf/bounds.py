"""Storage bounds for CSDF graphs.

For the exploration only *soundness* of a lower bound matters: the
seed must not exceed any positive-throughput distribution.  A channel
whose rates are the same in every phase moves tokens exactly like an
SDF channel, so it gets the SDF [ALP97] bound
(:func:`repro.buffers.bounds.rate_lower_bound`) — a lifted SDF graph
then explores exactly what the SDF sweep explores.  Any other channel
gets ``max(initial tokens, max production phase, max consumption
phase)``: it must hold its initial tokens, admit the largest
production burst and accumulate the largest consumption.  The upper
bound mirrors the SDF [GGD02] form with the summed phase rates; the
explorer verifies and enlarges it exactly as in the SDF path.
"""

from __future__ import annotations

from repro.buffers.bounds import rate_lower_bound
from repro.buffers.distribution import StorageDistribution
from repro.csdf.graph import CSDFChannel, CSDFGraph
from repro.csdf.repetitions import csdf_repetition_vector


def csdf_channel_lower_bound(channel: CSDFChannel) -> int:
    """Sound minimal capacity for positive throughput."""
    if len(set(channel.productions)) == 1 and len(set(channel.consumptions)) == 1:
        return rate_lower_bound(
            channel.productions[0], channel.consumptions[0], channel.initial_tokens
        )
    return max(channel.initial_tokens, max(channel.productions), max(channel.consumptions))


def csdf_lower_bound_distribution(graph: CSDFGraph) -> StorageDistribution:
    """Per-channel sound lower bounds."""
    return StorageDistribution(
        {channel.name: csdf_channel_lower_bound(channel) for channel in graph.channels.values()}
    )


def csdf_upper_bound_distribution(graph: CSDFGraph) -> StorageDistribution:
    """Conservative per-channel upper bounds (one iteration per side)."""
    q = csdf_repetition_vector(graph)
    return StorageDistribution(
        {
            channel.name: channel.initial_tokens
            + channel.total_production * q[channel.source]
            + channel.total_consumption * q[channel.destination]
            for channel in graph.channels.values()
        }
    )
