"""Tests for trace file I/O."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.sim.simulator import Simulator
from repro.workloads.traceio import (
    load_trace,
    load_trace_text,
    save_trace,
    save_trace_text,
    workload_from_trace,
)
from repro.workloads.trace import Trace

SAMPLE = [(0x1000, False), (0x1040, True), (0xFFFF_0000, False)]


def test_binary_roundtrip(tmp_path):
    path = tmp_path / "t.rtrc"
    save_trace(SAMPLE, path)
    assert list(load_trace(path)) == SAMPLE


def test_text_roundtrip(tmp_path):
    path = tmp_path / "t.trace"
    save_trace_text(SAMPLE, path)
    assert list(load_trace_text(path)) == SAMPLE


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.rtrc"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(ValueError, match="magic"):
        load_trace(path)


def test_binary_rejects_truncation(tmp_path):
    path = tmp_path / "t.rtrc"
    save_trace(SAMPLE, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError, match="truncated"):
        load_trace(path)


def test_binary_rejects_short_file(tmp_path):
    path = tmp_path / "t.rtrc"
    path.write_bytes(b"RT")
    with pytest.raises(ValueError, match="too short"):
        load_trace(path)


def test_save_rejects_out_of_range_address(tmp_path):
    with pytest.raises(ValueError):
        save_trace([(1 << 62, False)], tmp_path / "x.rtrc")


def test_text_rejects_garbage(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("R 0x10\nBANANA\n")
    with pytest.raises(ValueError, match="expected"):
        load_trace_text(path)


def test_text_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("# header\n\nR 0x40\nW 64\n")
    assert list(load_trace_text(path)) == [(0x40, False), (64, True)]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=(1 << 62) - 1),
                          st.booleans()), max_size=200))
def test_binary_roundtrip_property(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("traces") / "p.rtrc"
    save_trace(trace, path)
    assert list(load_trace(path)) == trace


def test_workload_from_trace_runs_in_simulator(tmp_path):
    # A small synthetic trace over a 64-page region.
    trace = [((0x40_000 + (i * 37) % 64) << 12 | (i % 4096), i % 5 == 0)
             for i in range(3000)]
    path = tmp_path / "custom.rtrc"
    save_trace(trace, path)
    workload = workload_from_trace(path, name="custom")
    assert workload.name == "custom"
    assert workload.footprint_pages == 64
    result = Simulator(workload, controller="tmcc").run()
    assert result.accesses > 0


def test_workload_from_empty_trace_rejected(tmp_path):
    path = tmp_path / "empty.rtrc"
    save_trace([], path)
    with pytest.raises(ValueError, match="no accesses"):
        workload_from_trace(path)


def test_binary_load_equals_its_record_list(tmp_path):
    records = [((i * 0x9E3779B1) % (1 << 62), i % 3 == 0) for i in range(1000)]
    path = tmp_path / "r.rtrc"
    save_trace(records, path)
    loaded = load_trace(path)
    assert loaded == Trace.from_records(records)
    assert list(loaded) == records
    # A saved Trace round-trips through its record iterator.
    save_trace(loaded, path)
    assert load_trace(path) == loaded


def test_text_load_equals_its_record_list(tmp_path):
    records = [(0x7FFF_0000_1000, True), (0x40, False), ((1 << 64) - 1, True)]
    path = tmp_path / "r.trace"
    save_trace_text(Trace.from_records(records), path)
    assert load_trace_text(path) == Trace.from_records(records)


def test_text_address_beyond_64_bits_is_a_config_error(tmp_path):
    path = tmp_path / "big.trace"
    path.write_text("# two accesses\nR 0x40\n\nW 0x10000000000000000\n")
    with pytest.raises(ConfigError,
                       match="access 1: address 0x10000000000000000"):
        load_trace_text(path)
