"""Nearest-rank percentiles and the ten-samples-beyond rule."""

import pytest

from ledger.stats import describe, percentile, supported_tail


def test_nearest_rank_percentile():
    samples = [15, 20, 35, 40, 50]
    assert percentile(samples, 5) == 15
    assert percentile(samples, 30) == 20
    assert percentile(samples, 40) == 20
    assert percentile(samples, 50) == 35
    assert percentile(samples, 100) == 50
    assert percentile(list(range(1, 1001)), 99.9) == 999  # no float-noise off-by-one
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_needs_ten_samples_beyond_it():
    assert supported_tail(list(range(99))) is None  # p90 rank 90: 9 beyond
    assert supported_tail(list(range(100))) == (90.0, 89)  # rank 90: 10 beyond
    assert supported_tail(list(range(199)))[0] == 90.0  # p95 rank 190: 9 beyond
    assert supported_tail(list(range(200)))[0] == 95.0
    assert supported_tail(list(range(1000)))[0] == 99.0
    assert supported_tail(list(range(10_000))) == (99.9, 9989)
    assert describe(list(range(100))) == "n=100, p90=89.000"
    assert describe([1.0]) == "n=1"
