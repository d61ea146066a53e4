"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random
import shutil
import tempfile

import pytest

from repro.gallery import (
    fig1_example,
    fig6_example,
    h263_decoder,
    modem,
    sample_rate_converter,
    satellite_receiver,
)

#: ``REPRO_CACHE_DIR`` as it was before the test run, and the run's own.
_CACHE_DIRS: dict[str, str | None] = {}


def pytest_configure(config):
    """Point the compiled-kernel cache at a directory of this test run.

    Resolving the default backend loads or builds the C probe kernel,
    and test modules do so already at import (their ``skipif``
    conditions), so this runs before collection.  The suite must
    neither write to the user's cache nor start warm from it.  The
    environment variable reaches subprocesses and pool workers too, and
    outlives tests that :func:`~repro.engine.ccore.configure` a cache of
    their own and then restore the default resolution.
    """
    _CACHE_DIRS["saved"] = os.environ.get("REPRO_CACHE_DIR")
    _CACHE_DIRS["run"] = tempfile.mkdtemp(prefix="repro-cache-")
    os.environ["REPRO_CACHE_DIR"] = _CACHE_DIRS["run"]


def pytest_unconfigure(config):
    if "run" not in _CACHE_DIRS:
        return
    if _CACHE_DIRS["saved"] is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = _CACHE_DIRS["saved"]
    shutil.rmtree(_CACHE_DIRS.pop("run"), ignore_errors=True)


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
