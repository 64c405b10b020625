"""Differential test: ``IntLRU.fill`` vs one ``insert_mru`` per key.

Two-level placement builds the recency list of a fresh controller in
one ``fill``.  Filled and looped lists must hold the same columns, and
any later sequence of ``move_to_end``/``insert_mru``/``pop_lru``/
``discard`` must give both the same order and the same pops.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.lru import IntLRU
from repro.common.rng import DeterministicRNG
from repro.mc.recency import RecencyList

keys = st.integers(min_value=0, max_value=60)

operation = st.one_of(
    st.tuples(st.just("move_to_end"), keys),
    st.tuples(st.just("insert_mru"), keys),
    st.tuples(st.just("pop_lru")),
    st.tuples(st.just("discard"), keys),
)


def _columns(lru):
    return (lru._slot, lru._key, lru._val, lru._prev, lru._next,
            lru._head, lru._tail, lru._free)


def _apply(lru, op):
    if op[0] == "move_to_end":
        if op[1] in lru:
            lru.move_to_end(op[1])
        return None
    if op[0] == "insert_mru":
        if op[1] not in lru:
            lru.insert_mru(op[1])
        return None
    if op[0] == "pop_lru":
        return lru.pop_lru()
    return lru.discard(op[1])


@settings(max_examples=300, deadline=None)
@given(initial=st.lists(keys, unique=True, max_size=40),
       ops=st.lists(operation, max_size=120))
def test_fill_matches_a_loop_of_insert_mru(initial, ops):
    filled = IntLRU()
    filled.fill(iter(initial))
    looped = IntLRU()
    for key in initial:
        looped.insert_mru(key)
    assert _columns(filled) == _columns(looped)
    for op in ops:
        assert _apply(filled, op) == _apply(looped, op), op
        assert list(filled.keys_lru_to_mru()) == list(looped.keys_lru_to_mru())
    drained = [filled.pop_lru() for _ in range(len(filled) + 1)]
    assert drained == [looped.pop_lru() for _ in range(len(looped) + 1)]


def test_fill_refuses_duplicates_and_used_lists():
    lru = IntLRU()
    with pytest.raises(ValueError):
        lru.fill([3, 4, 3])
    assert len(lru) == 0 and not _columns(lru)[1]
    lru.insert_mru(1)
    lru.pop_lru()
    with pytest.raises(ValueError):
        lru.fill([5])


def test_recency_fill_is_push_hot_coldest_first():
    pages = [40, 7, 19, 3, 88]
    filled = RecencyList(DeterministicRNG(1))
    filled.fill(pages)
    pushed = RecencyList(DeterministicRNG(1))
    for ppn in pages:
        pushed.push_hot(ppn)
    assert _columns(filled._list) == _columns(pushed._list)
    assert [filled.evict_coldest() for _ in pages] == pages
