"""Tests for the shared virtual-address decomposition (`repro.sim.columns`).

The replay loop splits accesses through this module; these tests pin
the decomposition itself (including the huge-page tag) and prove the
three `trace_columns` spellings -- numpy, pure python, and the
beyond-int64 overflow fallback -- agree with the per-access helper.
"""

import pytest
from hypothesis import given, strategies as st

from repro.sim.columns import decompose_vaddr, trace_columns


def test_decompose_known_values():
    # vaddr = page 0x345, block 9 within the page, byte 0x11.
    vaddr = (0x345 << 12) | (9 << 6) | 0x11
    assert decompose_vaddr(vaddr, huge_pages=False) == (0x345, 0x345, 9)
    # Huge pages tag by the 2 MiB frame: vpn >> 9 == vaddr >> 21.
    assert decompose_vaddr(vaddr, huge_pages=True) == (0x345, 0x345 >> 9, 9)
    assert decompose_vaddr(0, huge_pages=True) == (0, 0, 0)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.booleans())
def test_decompose_field_relations(vaddr, huge):
    vpn, tag, block = decompose_vaddr(vaddr, huge)
    assert vpn == vaddr >> 12
    assert tag == (vaddr >> 21 if huge else vaddr >> 12)
    assert 0 <= block < 64
    assert block == (vaddr >> 6) & 0x3F


@pytest.mark.parametrize("huge", [False, True])
def test_trace_columns_matches_per_access_helper(huge):
    trace = [((i * 0x1F123) & ((1 << 48) - 1), bool(i % 3))
             for i in range(257)]
    vpns, tags, blocks, writes = trace_columns(trace, huge)
    assert len(vpns) == len(tags) == len(blocks) == len(writes) == len(trace)
    for i, (vaddr, is_write) in enumerate(trace):
        vpn, tag, block = decompose_vaddr(vaddr, huge)
        assert (vpns[i], tags[i], blocks[i]) == (vpn, tag, block)
        assert writes[i] == is_write


def test_trace_columns_small_pages_share_the_vpn_column():
    trace = [(0x1234000, False), (0x1235000, True)]
    vpns, tags, _, _ = trace_columns(trace, huge_pages=False)
    assert tags is vpns  # no huge pages: the tag column IS the vpn column


@pytest.mark.parametrize("huge", [False, True])
def test_trace_columns_beyond_int64_falls_back(huge):
    """Addresses past int64 overflow numpy's fromiter; the pure-python
    fallback (arbitrary precision) must produce the same columns."""
    big = 1 << 70
    trace = [(big | (0x7 << 12) | (3 << 6), False), (big * 2, True)]
    vpns, tags, blocks, writes = trace_columns(trace, huge)
    for i, (vaddr, is_write) in enumerate(trace):
        assert (vpns[i], tags[i], blocks[i]) == decompose_vaddr(vaddr, huge)
        assert writes[i] == is_write
    assert vpns[0] == (big >> 12) | 0x7


@pytest.mark.parametrize("huge", [False, True])
def test_trace_columns_identical_with_numpy_masked(monkeypatch, huge):
    trace = [((i * 0xABCD5) & ((1 << 52) - 1), i % 2 == 0)
             for i in range(64)]
    with_numpy = trace_columns(trace, huge)
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    assert trace_columns(trace, huge) == with_numpy


def test_trace_columns_empty_trace():
    assert trace_columns([], huge_pages=False) == ([], [], [], [])
