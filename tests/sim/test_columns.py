"""Tests for the shared virtual-address decomposition (`repro.sim.columns`).

The replay loops split accesses through this module; these tests pin
the decomposition itself (including the huge-page tag), prove that
`trace_columns` of a compact trace agrees with the per-access helper,
span by span and strided, and that its global blocks agree with a
per-access translation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.sim.columns import (decompose_vaddr, trace_columns,
                               translation_table)
from repro.workloads.trace import Trace

ADDRESSES = st.integers(min_value=0, max_value=(1 << 64) - 1)


def test_decompose_known_values():
    # vaddr = page 0x345, block 9 within the page, byte 0x11.
    vaddr = (0x345 << 12) | (9 << 6) | 0x11
    assert decompose_vaddr(vaddr, huge_pages=False) == (0x345, 0x345, 9)
    # Huge pages tag by the 2 MiB frame: vpn >> 9 == vaddr >> 21.
    assert decompose_vaddr(vaddr, huge_pages=True) == (0x345, 0x345 >> 9, 9)
    assert decompose_vaddr(0, huge_pages=True) == (0, 0, 0)


@given(ADDRESSES, st.booleans())
def test_decompose_field_relations(vaddr, huge):
    vpn, tag, block = decompose_vaddr(vaddr, huge)
    assert vpn == vaddr >> 12
    assert tag == (vaddr >> 21 if huge else vaddr >> 12)
    assert 0 <= block < 64
    assert block == (vaddr >> 6) & 0x3F


def identity_pages(records):
    """Every page of ``records`` mapped to frame 0: a global block is
    then the block index within the page."""
    return translation_table({vaddr >> 12: 0 for vaddr, _ in records})


def assert_columns_match(records, huge):
    trace = Trace.from_records(records)
    vpns, tags, blocks = trace_columns(trace, huge, identity_pages(records))
    assert len(vpns) == len(tags) == len(blocks) == len(records)
    for i, (vaddr, is_write) in enumerate(records):
        vpn, tag, block = decompose_vaddr(vaddr, huge)
        assert (vpns[i], tags[i], blocks[i]) == (vpn, tag, block)
        assert trace.writes[i] == is_write


@pytest.mark.parametrize("huge", [False, True])
def test_trace_columns_matches_per_access_helper(huge):
    assert_columns_match([((i * 0x1F123) & ((1 << 48) - 1), bool(i % 3))
                          for i in range(257)], huge)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(ADDRESSES, st.booleans()), max_size=300),
       st.booleans())
def test_trace_columns_of_a_compact_trace_match_decompose(records, huge):
    """Every access, 4 KiB or huge pages, across the whole 64-bit range
    (the top bit included)."""
    assert_columns_match(records, huge)


def test_trace_columns_small_pages_share_the_vpn_column():
    trace = Trace.from_records([(0x1234000, False), (0x1235000, True)])
    vpns, tags, _ = trace_columns(trace, False, translation_table({}))
    assert tags is vpns  # no huge pages: the tag column IS the vpn column
    assert vpns == [0x1234, 0x1235]


@pytest.mark.parametrize("address", [1 << 64, 1 << 70, -1],
                         ids=["2**64", "2**70", "negative"])
def test_trace_beyond_64_bits_is_a_config_error(address):
    records = [(0x1000, False), (0x2000, True), (address, False)]
    with pytest.raises(ConfigError, match=f"access 2: address {address:#x}"):
        Trace.from_records(records)


def test_trace_columns_empty_trace():
    for table in (translation_table({}), translation_table({5: 7})):
        for huge in (False, True):
            assert trace_columns(Trace(), huge, table) == ([], [], [])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 4095)),
                max_size=300),
       st.dictionaries(st.integers(0, 40), st.integers(0, 1 << 40),
                       max_size=30))
def test_global_blocks_match_a_per_access_translation(accesses, translation):
    trace = Trace.from_records([(vpn << 12 | offset, False)
                                for vpn, offset in accesses])
    _, _, blocks = trace_columns(trace, False, translation_table(translation))
    expected = [-1 if vpn not in translation
                else translation[vpn] * 64 + (offset >> 6)
                for vpn, offset in accesses]
    assert blocks == expected


def test_global_blocks_span_chunks():
    """A span or a strided span of a trace is that part of the whole
    trace's columns (a replay loop splits span by span, and each core of
    the 4-core engine takes every fourth access)."""
    count = 20_000
    trace = Trace.from_records(((i % 97) << 12 | (i % 64) << 6, False)
                               for i in range(count))
    table = translation_table({vpn: 1000 + vpn for vpn in range(0, 97, 2)})
    whole = trace_columns(trace, True, table)
    for i in (0, 1, 4095, 4096, 13_073, count - 1):
        vpn = i % 97
        assert whole[0][i] == vpn and whole[1][i] == vpn >> 9
        assert whole[2][i] == (-1 if vpn % 2 else
                               (1000 + vpn) * 64 + i % 64)
    for start, stop, stride in ((0, 4096, 1), (4096, 8192, 1),
                                (3, count + 5, 4), (count - 1, None, 1),
                                (5, 5, 1), (3, 60, 4), (4090, 4110, 1)):
        span = trace_columns(trace, True, table, start, stop, stride)
        assert span == tuple(column[start:stop:stride] for column in whole)
