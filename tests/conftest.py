"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.gallery import (
    fig1_example,
    fig6_example,
    h263_decoder,
    modem,
    sample_rate_converter,
    satellite_receiver,
)


@pytest.fixture(scope="session", autouse=True)
def kernel_cache_dir(tmp_path_factory):
    """Point the compiled-kernel cache at a directory of this session.

    Default explorations may compile C kernels (the ``tiered`` backend
    moves a graph to C once it has spent one compile's cost on
    ``fastcore``), and the suite must neither write to the user's cache
    nor start warm from it.  The environment variable reaches
    subprocesses and pool workers too, and outlives tests that
    :func:`~repro.engine.ccore.configure` a cache of their own and then
    restore the default resolution.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache")))
        yield


@pytest.fixture
def fig1():
    """The paper's running example (Fig. 1)."""
    return fig1_example()


@pytest.fixture
def fig6():
    """The non-unique-minimal-distributions graph (Fig. 6)."""
    return fig6_example()


@pytest.fixture
def modem_graph():
    return modem()


@pytest.fixture
def samplerate_graph():
    return sample_rate_converter()


@pytest.fixture
def satellite_graph():
    return satellite_receiver()


@pytest.fixture
def h263_small():
    """A scaled-down H.263 decoder for fast tests."""
    return h263_decoder(blocks=9)


@pytest.fixture
def rng():
    """A deterministically seeded random generator."""
    return random.Random(20060724)
