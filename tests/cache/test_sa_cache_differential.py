"""Differential tests: the cache store vs the OrderedDict reference.

`SetAssociativeCache` (block -> packed flags + per-set order lists) and
`ReferenceSetAssociativeCache` (`tests/oracles/sa_cache.py`: per-entry
`CacheLine` objects in an `OrderedDict` per set) implement the same spec.  Hypothesis drives both
through identical random operation sequences and demands identical
observable behaviour at every step: hit/miss outcomes, victim lines,
line metadata, stats, occupancy, and the resident-block set.
"""

from hypothesis import given, settings, strategies as st

from repro.cache.sa_cache import CacheLine, SetAssociativeCache
from tests.oracles.sa_cache import ReferenceSetAssociativeCache

# Small geometry so sequences of ~100 ops exercise eviction constantly:
# 8 sets x 2 ways = 16 resident blocks.
SIZE_BYTES = 8 * 2 * 64
ASSOC = 2

# Few distinct blocks -> heavy set conflict and re-reference.
blocks = st.integers(min_value=0, max_value=40)

operation = st.one_of(
    st.tuples(st.just("lookup"), blocks, st.booleans()),
    st.tuples(st.just("fill"), blocks, st.booleans(), st.booleans(),
              st.booleans()),
    st.tuples(st.just("peek"), blocks),
    st.tuples(st.just("invalidate"), blocks),
    st.tuples(st.just("flush")),
)


def as_tuple(line):
    if line is None:
        return None
    assert isinstance(line, CacheLine)
    return (line.block, line.dirty, line.compressed, line.is_ptb)


def apply(cache, op):
    """Run one operation; return its observable outcome as plain data."""
    if op[0] == "lookup":
        return as_tuple(cache.lookup(op[1], is_write=op[2]))
    if op[0] == "fill":
        return as_tuple(cache.fill(op[1], dirty=op[2], compressed=op[3],
                                   is_ptb=op[4]))
    if op[0] == "peek":
        return as_tuple(cache.peek(op[1]))
    if op[0] == "invalidate":
        return as_tuple(cache.invalidate(op[1]))
    return sorted(as_tuple(line) for line in cache.flush())


@settings(max_examples=200, deadline=None)
@given(st.lists(operation, max_size=120))
def test_store_matches_reference(ops):
    store = SetAssociativeCache(SIZE_BYTES, ASSOC, name="dut")
    reference = ReferenceSetAssociativeCache(SIZE_BYTES, ASSOC, name="dut")
    for op in ops:
        assert apply(store, op) == apply(reference, op), op
        assert store.occupancy == reference.occupancy
        assert store.stats.total == reference.stats.total
        assert store.stats.hits == reference.stats.hits
    assert sorted(store.blocks()) == sorted(reference.blocks())


@settings(max_examples=50, deadline=None)
@given(st.lists(operation, max_size=80))
def test_eviction_order_matches_reference(ops):
    """After any op sequence, filling each set to overflow must evict
    the same victims in the same order from both implementations --
    i.e. the per-set recency orders are identical, not just the
    resident sets."""
    store = SetAssociativeCache(SIZE_BYTES, ASSOC, name="dut")
    reference = ReferenceSetAssociativeCache(SIZE_BYTES, ASSOC, name="dut")
    for op in ops:
        apply(store, op)
        apply(reference, op)
    # Drain each set LRU-first by filling fresh conflicting blocks.
    for set_index in range(store.num_sets):
        for way in range(ASSOC):
            probe = 1000 + way * store.num_sets + set_index
            assert (as_tuple(store.fill(probe))
                    == as_tuple(reference.fill(probe)))
