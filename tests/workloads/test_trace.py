"""Tests for the compact trace format (`repro.workloads.trace`)."""

import pickle
from array import array

import pytest

from repro.common.errors import ConfigError
from repro.workloads.suite import workload_by_name
from repro.workloads.trace import Trace

RECORDS = [(0x1000, False), (0x1040, True), (0xFFFF_FFFF_FFFF_FFC0, False),
           (0, True)]


def test_from_records_fills_both_columns():
    trace = Trace.from_records(RECORDS)
    assert trace.addresses == array("Q", [a for a, _ in RECORDS])
    assert trace.writes == bytearray([1 if w else 0 for _, w in RECORDS])
    assert len(trace) == len(RECORDS)


def test_records_yield_bools_over_a_range():
    trace = Trace.from_records(RECORDS)
    assert list(trace) == RECORDS
    assert all(type(is_write) is bool for _, is_write in trace)
    assert list(trace.records(1, 3)) == RECORDS[1:3]
    assert list(trace.records(2)) == RECORDS[2:]


def test_equality_compares_both_columns():
    trace = Trace.from_records(RECORDS)
    assert trace == Trace.from_records(RECORDS)
    flipped = [(address, not is_write) for address, is_write in RECORDS]
    assert trace != Trace.from_records(flipped)
    assert trace != Trace.from_records(RECORDS[:-1])


def test_truncate_keeps_a_prefix():
    trace = Trace.from_records(RECORDS)
    trace.truncate(2)
    assert list(trace) == RECORDS[:2]
    trace.truncate(5)
    assert len(trace) == 2


def test_columns_of_different_lengths_are_rejected():
    with pytest.raises(ConfigError, match="2 addresses but 1 write flags"):
        Trace(array("Q", [1, 2]), bytearray(1))


@pytest.mark.parametrize("name", ["canneal", "bfs"])
def test_generators_build_compact_traces(name):
    workload = workload_by_name(name, max_accesses=30_000, scale=0.1)
    assert len(workload.trace) == workload.access_count == 3_000
    assert workload.trace.addresses.typecode == "Q"
    assert type(workload.trace.writes) is bytearray
    assert set(workload.trace.writes) == {0, 1}


def test_pickled_workload_costs_at_most_12_bytes_per_access():
    """Sweep workers receive workloads as pickles."""
    accesses = 50_000
    workload = workload_by_name("canneal", max_accesses=accesses)
    assert workload.access_count == accesses
    data = pickle.dumps(workload)
    assert len(data) <= 12 * accesses
    restored = pickle.loads(data)
    assert restored.trace == workload.trace
    assert restored.footprint_pages == workload.footprint_pages
