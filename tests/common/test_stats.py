"""Unit tests for statistics containers."""

import math

import pytest

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
