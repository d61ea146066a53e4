"""A percentile needs ten samples beyond it; a mean as many as a median."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from measure import InsufficientSamples, mean, min_samples, percentile  # noqa: E402


def test_sample_floors():
    assert min_samples(0.5) == 20
    assert min_samples(0.9) == 100
    assert min_samples(0.99) == 1000


@pytest.mark.parametrize("q, enough", [(0.5, 20), (0.9, 100)])
def test_percentile_refuses_below_its_floor(q, enough):
    with pytest.raises(InsufficientSamples):
        percentile([1.0] * (enough - 1), q)
    assert percentile([1.0] * enough, q) == 1.0


def test_percentile_interpolates_order_statistics():
    samples = list(range(1, 21))  # 20 samples; input order must not matter
    assert percentile(samples[::-1], 0.5) == 10.5
    assert percentile(list(range(100)), 0.9) == pytest.approx(89.1)



def test_mean_needs_the_median_floor():
    with pytest.raises(InsufficientSamples):
        mean([1.0] * 19)
    assert mean([0.5] * 10 + [1.5] * 10) == 1.0
