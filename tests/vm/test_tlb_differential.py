"""Differential tests: columnar TLB vs the OrderedDict reference.

`TLB` stores translations in an `IntLRU` (flat key/prev/next columns);
`ReferenceTLB` keeps the original `OrderedDict`.  Random operation
sequences through both must agree on every hit/miss, every stat, and
on which entry each capacity eviction displaces.
"""

from hypothesis import given, settings, strategies as st

from repro.vm.tlb import TLB
from tests.oracles.tlb import ReferenceTLB

# 8 entries and ~24 tags: every sequence churns through evictions.
ENTRIES = 8
tags = st.integers(min_value=0, max_value=23)

operation = st.one_of(
    st.tuples(st.just("lookup"), tags),
    st.tuples(st.just("contains"), tags),
    st.tuples(st.just("fill"), tags, st.integers(min_value=0, max_value=99)),
    st.tuples(st.just("invalidate"), tags),
    st.tuples(st.just("flush")),
)


def apply(tlb, op):
    if op[0] == "lookup":
        return tlb.lookup(op[1])
    if op[0] == "contains":
        return tlb.contains(op[1])
    if op[0] == "fill":
        return tlb.fill(op[1], op[2])
    if op[0] == "invalidate":
        return tlb.invalidate(op[1])
    return tlb.flush()


@settings(max_examples=200, deadline=None)
@given(st.lists(operation, max_size=120))
def test_tlb_matches_reference(ops):
    columnar = TLB(entries=ENTRIES, name="dut")
    reference = ReferenceTLB(entries=ENTRIES, name="dut")
    for op in ops:
        assert apply(columnar, op) == apply(reference, op), op
        assert columnar.occupancy == reference.occupancy
        assert columnar.stats.total == reference.stats.total
        assert columnar.stats.hits == reference.stats.hits
    # Same residents, and the same LRU order: probing with fills of
    # fresh tags must displace entries so that membership stays equal
    # after each displacement.
    for probe in range(1000, 1000 + ENTRIES):
        apply(columnar, ("fill", probe, 0))
        apply(reference, ("fill", probe, 0))
        survivors = [t for t in range(24) if columnar.contains(t)]
        assert survivors == [t for t in range(24) if reference.contains(t)]
