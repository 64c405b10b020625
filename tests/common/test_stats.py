"""Unit tests for statistics containers."""

import math
import sys
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from repro.common.stats import Counter, Histogram, RatioStat, StatGroup, geomean, mean


def test_mean():
    assert mean([]) == 0.0
    assert mean([2, 4]) == 3.0


def test_geomean():
    assert geomean([]) == 0.0
    assert math.isclose(geomean([1, 4]), 2.0)
    assert math.isclose(geomean([3.0, 3.0, 3.0]), 3.0)


def test_geomean_skips_zeros_with_warning():
    with pytest.warns(UserWarning, match="zero value"):
        assert math.isclose(geomean([1.0, 4.0, 0.0]), 2.0)
    with pytest.warns(UserWarning):
        assert geomean([0.0, 0.0]) == 0.0


def test_geomean_rejects_negative():
    with pytest.raises(ValueError):
        geomean([1.0, -2.0])


def test_counter():
    counter = Counter("events")
    counter.increment()
    counter.increment(4)
    assert counter.value == 5
    counter.reset()
    assert counter.value == 0


def test_ratio_stat():
    ratio = RatioStat("tlb")
    for hit in (True, True, False, True):
        ratio.record(hit)
    assert ratio.hits == 3
    assert ratio.misses == 1
    assert ratio.hit_rate == 0.75
    assert math.isclose(ratio.miss_rate, 0.25)


def test_ratio_stat_empty():
    ratio = RatioStat("empty")
    assert ratio.hit_rate == 0.0
    assert ratio.miss_rate == 0.0


def test_histogram_basic():
    histogram = Histogram("latency")
    for value in (10, 20, 30, 40):
        histogram.record(value)
    assert histogram.count == 4
    assert histogram.total == 100
    assert histogram.mean == 25


SAMPLES = st.lists(st.floats(min_value=0.0, max_value=1e12,
                             allow_nan=False, allow_infinity=False),
                   max_size=200)


@given(SAMPLES)
def test_histogram_mean_is_a_left_fold_from_zero(samples):
    """The running total adds samples in arrival order from 0.0, so the
    mean is the same bits on every interpreter."""
    histogram = Histogram("latency")
    for value in samples:
        histogram.record(value)
    folded = reduce(lambda total, value: total + value, samples, 0.0)
    assert histogram.count == len(samples)
    assert histogram.total.hex() == folded.hex()
    expected = folded / len(samples) if samples else 0.0
    assert histogram.mean.hex() == expected.hex()


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="3.12's sum() of floats is compensated")
@given(SAMPLES)
def test_histogram_mean_equals_sum_over_len_before_3_12(samples):
    """On 3.10 and 3.11 ``sum()`` folds left, so the mean equals what a
    list of every sample reported (the goldens were made that way)."""
    histogram = Histogram("latency")
    for value in samples:
        histogram.record(value)
    assert histogram.mean.hex() == mean(samples).hex()


def test_histogram_keeps_no_samples():
    histogram = Histogram("latency")
    assert set(Histogram.__slots__) == {"name", "count", "total"}
    assert not hasattr(histogram, "__dict__")
    for value in range(10_000):
        histogram.record(float(value))
    assert sys.getsizeof(histogram) == sys.getsizeof(Histogram("other"))
    histogram.reset()
    assert (histogram.count, histogram.total, histogram.mean) == (0, 0.0, 0.0)
    histogram.record(3.0)
    assert (histogram.count, histogram.mean) == (1, 3.0)


def test_stat_group_registry_and_dump():
    group = StatGroup("mc")
    group.counter("reads").increment(7)
    group.ratio("cte").record(True)
    group.ratio("cte").record(False)
    group.histogram("lat").record(50)
    flattened = group.as_dict()
    assert flattened["reads"] == 7
    assert flattened["cte.hits"] == 1
    assert flattened["cte.total"] == 2
    assert flattened["cte.hit_rate"] == 0.5
    assert flattened["lat.mean"] == 50
    # Registry returns the same object on re-lookup.
    assert group.counter("reads").value == 7
    group.reset()
    assert group.counter("reads").value == 0
