"""Property tests: structural invariants of the cache hierarchy.

Whatever access sequence arrives:

1. **Inclusion**: every block in L1 is also in L2.
2. **Exclusion**: no block is in both L2 and L3.
3. **Dirty-data conservation**: a written block is dirty somewhere in the
   hierarchy until the moment it is reported as a DRAM writeback.
4. **Storage**: in every level, each resident block sits in exactly its
   own set's recency list, no list outgrows the associativity, and the
   block -> flags index holds exactly the blocks of those lists.

Each property runs with the next-line and stride prefetchers on and off,
over streams mixing reads, writes and page-walker (PTB) accesses.
"""

from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.common.units import KIB

from tests.oracles.observed import access


def tiny(prefetch):
    return CacheHierarchy(HierarchyConfig(
        l1_size=1 * KIB, l1_assoc=2,
        l2_size=2 * KIB, l2_assoc=2,
        l3_size=8 * KIB, l3_assoc=4,
        enable_prefetch=prefetch,
    ))


def all_blocks(cache):
    return set(cache.blocks())


def check_storage(cache):
    resident = []
    for set_index, order in enumerate(cache._orders):
        assert len(order) <= cache.associativity, f"{cache.name} set overfull"
        assert all(block & cache.set_mask == set_index for block in order), (
            f"{cache.name}: block in a foreign set's order list")
        resident += order
    assert len(resident) == len(set(resident)), (
        f"{cache.name}: block listed twice")
    assert cache._index.keys() == set(resident), (
        f"{cache.name}: index and order lists disagree")


#: ``(block, is_write, is_ptb)``; page-walker accesses are reads.
access_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=255),
              st.sampled_from([(False, False), (True, False), (False, True)]))
    .map(lambda access: (access[0],) + access[1]),
    min_size=1, max_size=300,
)


@settings(max_examples=60, deadline=None)
@given(access_strategy, st.booleans())
def test_inclusion_and_exclusion_invariants(accesses, prefetch):
    hierarchy = tiny(prefetch)
    for block, is_write, is_ptb in accesses:
        access(hierarchy, block << 6, is_write=is_write, is_ptb=is_ptb)
        l1 = all_blocks(hierarchy.l1)
        l2 = all_blocks(hierarchy.l2)
        l3 = all_blocks(hierarchy.l3)
        assert l1 <= l2, "inclusive L2 must cover L1"
        assert not (l2 & l3), "exclusive L3 must not duplicate L2"


@settings(max_examples=60, deadline=None)
@given(access_strategy, st.booleans())
def test_storage_invariants(accesses, prefetch):
    hierarchy = tiny(prefetch)
    for block, is_write, is_ptb in accesses:
        access(hierarchy, block << 6, is_write=is_write, is_ptb=is_ptb)
        for cache in (hierarchy.l1, hierarchy.l2, hierarchy.l3):
            check_storage(cache)


@settings(max_examples=60, deadline=None)
@given(access_strategy, st.booleans())
def test_dirty_data_is_never_lost(accesses, prefetch):
    hierarchy = tiny(prefetch)
    dirty = set()  # blocks written and not yet written back to DRAM
    for block, is_write, is_ptb in accesses:
        result = access(hierarchy, block << 6, is_write=is_write,
                                  is_ptb=is_ptb)
        if is_write:
            dirty.add(block)
        for written_back in result.dram_writebacks:
            assert written_back in dirty, "spurious writeback"
            dirty.discard(written_back)
        # Every still-dirty block must be resident somewhere, dirty.
        for pending in dirty:
            line = (hierarchy.l1.peek(pending) or hierarchy.l2.peek(pending)
                    or hierarchy.l3.peek(pending))
            assert line is not None, f"dirty block {pending} vanished"
            assert line.dirty or hierarchy.l1.peek(pending) is not None


@settings(max_examples=40, deadline=None)
@given(access_strategy, st.booleans())
def test_latency_classes_are_consistent(accesses, prefetch):
    """Reported hit level matches the latency charged."""
    hierarchy = tiny(prefetch)
    config = hierarchy.config
    expected = {
        "l1": config.l1_latency,
        "l2": config.l1_latency + config.l2_latency,
        "l3": config.l1_latency + config.l2_latency + config.l3_latency,
        "memory": config.l1_latency + config.l2_latency + config.l3_latency,
    }
    for block, is_write, is_ptb in accesses:
        result = access(hierarchy, block << 6, is_write=is_write,
                                  is_ptb=is_ptb)
        assert result.latency_cycles == expected[result.hit_level]
        assert result.l3_miss == (result.hit_level == "memory")
