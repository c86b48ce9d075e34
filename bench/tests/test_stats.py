"""Percentile arithmetic and the sample-count rule."""

import statistics

import pytest

from bench import stats


def test_percentile_interpolates_between_closest_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert stats.percentile(values, 0) == 10.0
    assert stats.percentile(values, 50) == 30.0
    assert stats.percentile(values, 100) == 50.0
    assert stats.percentile(values, 90) == pytest.approx(46.0)
    assert stats.percentile([7.0], 99.9) == 7.0


def test_percentile_ignores_input_order_and_rejects_nonsense():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert not stats.supported(99, 90)
    assert stats.supported(100, 90)
    assert not stats.supported(999, 99)
    assert stats.supported(1000, 99)
    assert stats.supported(10_000, 99.9)
    assert stats.supported(20, 50)


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert stats.spread([4.0]) == 0.0


def test_summary_reports_the_sample_count():
    out = stats.summary([3.0, 1.0, 2.0, 4.0])
    assert out["n"] == 4 and out["min"] == 1.0 and out["max"] == 4.0
    assert out["median"] == 2.5
