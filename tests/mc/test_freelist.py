"""Tests for ML1/ML2 free lists and super-chunk carving."""

import pytest

from repro.common.errors import ModelInvariantError
from repro.mc.freelist import (
    ML1FreeList,
    ML2FreeLists,
    superchunk_geometry,
)


# ----------------------------------------------------------------------
# ML1
# ----------------------------------------------------------------------

def test_ml1_push_pop_lifo():
    ml1 = ML1FreeList()
    ml1.push(1)
    ml1.push(2)
    assert ml1.pop() == 2
    assert ml1.pop() == 1
    assert ml1.pop() is None


def test_ml1_pop_many_all_or_nothing():
    ml1 = ML1FreeList()
    ml1.push_many([1, 2])
    assert ml1.pop_many(3) is None
    assert ml1.count == 2
    chunks = ml1.pop_many(2)
    assert sorted(chunks) == [1, 2]
    assert ml1.count == 0


# ----------------------------------------------------------------------
# Super-chunk geometry
# ----------------------------------------------------------------------

def test_geometry_exact_divisors():
    assert superchunk_geometry(1024) == (1, 4)
    assert superchunk_geometry(2048) == (1, 2)
    assert superchunk_geometry(4096) == (1, 1)


def test_geometry_1536_matches_figure3():
    """Figure 3c: 1.5 KB sub-chunks carve fragmentation-free from
    3 chunks -> 8 sub-chunks (3 * 4096 = 8 * 1536 exactly)."""
    m, n = superchunk_geometry(1536)
    assert (m, n) == (3, 8)
    assert m * 4096 == n * 1536


def test_geometry_minimizes_waste():
    m, n = superchunk_geometry(2560)
    assert (m * 4096) % 2560 == 0  # 5 chunks = 8 x 2560 exactly
    assert m == 5 and n == 8


def test_geometry_validation():
    with pytest.raises(ValueError):
        superchunk_geometry(0)
    with pytest.raises(ValueError):
        superchunk_geometry(8192)


# ----------------------------------------------------------------------
# ML2 free lists
# ----------------------------------------------------------------------

def make_ml1(chunks=64):
    ml1 = ML1FreeList()
    ml1.push_many(range(chunks))
    return ml1


def test_alloc_grows_from_ml1():
    ml1 = make_ml1()
    ml2 = ML2FreeLists()
    before = ml1.count
    sub = ml2.alloc(1500, ml1)
    assert sub is not None
    assert sub.size == 1536
    assert ml1.count == before - 3  # 1536-class super-chunk uses 3 chunks


def test_alloc_reuses_superchunk():
    ml1 = make_ml1()
    ml2 = ML2FreeLists()
    first = ml2.alloc(1500, ml1)
    after_first = ml1.count
    second = ml2.alloc(1400, ml1)
    assert ml1.count == after_first  # no new super-chunk needed
    assert first.superchunk is second.superchunk
    assert first.slot != second.slot


def test_alloc_fails_when_ml1_empty():
    ml1 = ML1FreeList()
    ml2 = ML2FreeLists()
    assert ml2.alloc(1000, ml1) is None


def test_free_returns_chunks_when_superchunk_drains():
    ml1 = make_ml1(chunks=3)
    ml2 = ML2FreeLists()
    subs = [ml2.alloc(1536, ml1) for _ in range(8)]  # fills the super-chunk
    assert all(subs)
    assert ml1.count == 0
    for sub in subs:
        ml2.free(sub, ml1)
    assert ml1.count == 3  # dismantled back into ML1


def test_free_pushes_superchunk_back_on_list():
    ml1 = make_ml1(chunks=3)
    ml2 = ML2FreeLists()
    subs = [ml2.alloc(1536, ml1) for _ in range(8)]
    ml2.free(subs[0], ml1)  # 0 free -> 1 free: back on the list
    again = ml2.alloc(1536, ml1)
    assert again is not None
    assert again.superchunk is subs[0].superchunk


def test_double_free_rejected():
    ml1 = make_ml1()
    ml2 = ML2FreeLists()
    sub = ml2.alloc(512, ml1)
    ml2.free(sub, ml1)
    with pytest.raises(ModelInvariantError):
        ml2.free(sub, ml1)


def test_double_free_message_names_slot_class_and_address():
    """The error pinpoints the duplicate free: slot, size class, and the
    sub-chunk's DRAM address derived from the super-chunk's origin."""
    ml1 = make_ml1()
    ml2 = ML2FreeLists()
    sub = ml2.alloc(512, ml1)
    keeper = ml2.alloc(512, ml1)  # keeps the super-chunk from dismantling
    assert keeper.superchunk is sub.superchunk
    ml2.free(sub, ml1)
    with pytest.raises(ModelInvariantError) as excinfo:
        ml2.free(sub, ml1)
    message = str(excinfo.value)
    assert "double free" in message
    assert f"slot {sub.slot}" in message
    assert "size class 512 B" in message
    origin = sub.superchunk.origin_chunk
    assert f"chunk {origin}" in message
    assert f"address {origin * 4096 + sub.slot * 512:#x}" in message


def test_free_into_dismantled_superchunk_message():
    """Freeing a sub-chunk whose super-chunk already drained back into
    ML1 is a model invariant violation, named as such."""
    ml1 = make_ml1(chunks=3)
    ml2 = ML2FreeLists()
    subs = [ml2.alloc(1536, ml1) for _ in range(8)]
    for sub in subs:
        ml2.free(sub, ml1)
    assert ml1.count == 3  # dismantled
    with pytest.raises(ModelInvariantError) as excinfo:
        ml2.free(subs[3], ml1)
    message = str(excinfo.value)
    assert "dismantled" in message
    assert f"slot {subs[3].slot}" in message
    assert "size class 1536 B" in message
    assert f"chunk {subs[3].superchunk.origin_chunk}" in message


def test_class_for_selection():
    ml2 = ML2FreeLists()
    assert ml2.class_for(1) == 256
    assert ml2.class_for(256) == 256
    assert ml2.class_for(257) == 512
    assert ml2.class_for(4096) == 4096
    with pytest.raises(ValueError):
        ml2.class_for(5000)


def test_custom_size_classes():
    ml2 = ML2FreeLists(size_classes=[1024, 2048])
    assert ml2.class_for(900) == 1024
    ml1 = make_ml1()
    sub = ml2.alloc(1500, ml1)
    assert sub.size == 2048


def test_free_subchunks_accounting():
    ml1 = make_ml1()
    ml2 = ML2FreeLists()
    ml2.alloc(1536, ml1)
    stack = ml2._lists[ml2.class_for(1536)]
    assert sum(len(sc.free_slots) for sc in stack) == 7


def test_invalid_size_classes():
    with pytest.raises(ValueError):
        ML2FreeLists(size_classes=[0, 512])
