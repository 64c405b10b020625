"""Differential tests: columnar CTE cache vs the OrderedDict reference.

`CTECache` keeps its CTE-block recency in an `IntLRU`;
`ReferenceCTECache` is the original `OrderedDict`.  Random operation
sequences through both must agree on hits, victim block ids (the value
`fill` returns feeds victim-spill accounting in the MC), stats, and
occupancy -- at both the TMCC (8 B) and Compresso (64 B) CTE grains.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import KIB
from repro.mc.ctecache import CTECache
from tests.oracles.ctecache import ReferenceCTECache

# Two blocks' worth of capacity at 1 KiB keeps evictions constant.
SIZE_BYTES = 1 * KIB

ppns = st.integers(min_value=0, max_value=400)

operation = st.one_of(
    st.tuples(st.just("lookup"), ppns),
    st.tuples(st.just("contains"), ppns),
    st.tuples(st.just("fill"), ppns),
    st.tuples(st.just("invalidate_page"), ppns),
    st.tuples(st.just("flush")),
)


def apply(cache, op):
    if op[0] == "lookup":
        return cache.lookup(op[1])
    if op[0] == "contains":
        return cache.contains(op[1])
    if op[0] == "fill":
        return cache.fill(op[1])
    if op[0] == "invalidate_page":
        return cache.invalidate_page(op[1])
    return cache.flush()


@pytest.mark.parametrize("cte_size", [8, 64])  # TMCC / Compresso grains
@settings(max_examples=150, deadline=None)
@given(ops=st.lists(operation, max_size=120))
def test_ctecache_matches_reference(cte_size, ops):
    columnar = CTECache(size_bytes=SIZE_BYTES, cte_size=cte_size, name="dut")
    reference = ReferenceCTECache(size_bytes=SIZE_BYTES, cte_size=cte_size,
                                  name="dut")
    assert columnar.pages_per_block == reference.pages_per_block
    assert columnar.reach_pages == reference.reach_pages
    for op in ops:
        assert apply(columnar, op) == apply(reference, op), op
        assert columnar.occupancy_blocks == reference.occupancy_blocks
        assert columnar.stats.total == reference.stats.total
        assert columnar.stats.hits == reference.stats.hits
    # Drain by filling fresh blocks: victims must come out in the same
    # (LRU) order from both implementations.
    per_block = columnar.pages_per_block
    for step in range(columnar.capacity_blocks):
        probe = (10_000 + step) * per_block
        assert apply(columnar, ("fill", probe)) \
            == apply(reference, ("fill", probe))
