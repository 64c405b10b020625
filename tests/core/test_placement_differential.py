"""Differential tests: bulk placement vs the per-page reference.

Every controller's ``initialize`` derives what it can once per
``PageRecord`` and places pages in bulk; ``tests/oracles/placement.py``
places them one at a time through the per-page allocators.  On fresh
controllers both must leave the same state, field by field: CTEs,
``_dram_page``, the ML1 free stack, each ML2 class's super-chunks,
sub-chunk handles, the recency list, the chunk counters and the DRAM
use.  Two-level controllers run with no budget, Compresso's iso
budget, half the footprint, and the tightest budget at which ML1 holds
only the pinned and incompressible pages.
"""

import dataclasses
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.common.units import PAGE_SIZE
from repro.core import create_controller
from repro.core.compmodel import PageCompressionModel
from repro.core.config import SystemConfig
from repro.dram.system import DRAMSystem
from repro.mc.freelist import ML1FreeList, ML2FreeLists
from repro.workloads.content import ContentSynthesizer
from tests.oracles.placement import reference_alloc, reference_initialize

CONTROLLERS = ("compresso", "compresso_llc_victim", "tmcc", "osinspired",
               "osinspired_fastml2", "uncompressed")
TWO_LEVEL = ("tmcc", "osinspired", "osinspired_fastml2")
BUDGETS = ("none", "compresso_iso", "half", "tight")
SEED = 5

_SMALL = ContentSynthesizer("small", seed=SEED).page


def _content(vpn: int) -> bytes:
    """Mostly compressible pages; two of the 24 sampled records are
    random bytes, which Deflate cannot shrink."""
    if vpn % 12 == 3:
        return random.Random(vpn).randbytes(PAGE_SIZE)
    return _SMALL(vpn)


MODEL = PageCompressionModel(_content, seed=SEED)
_RNG = random.Random(SEED)
DATA = _RNG.sample(range(10_000, 400_000), 3_000)
TABLE = list(range(1_000, 1_012))
# Every seventh page has no rank: it sorts coldest, in page order.
HOTNESS = {ppn: rank for rank, ppn in enumerate(_RNG.sample(DATA, len(DATA)))
           if rank % 7}


def _fresh(name):
    return create_controller(name, SystemConfig(), DRAMSystem(), seed=SEED)


def _placed(name, data, budget, reference):
    controller = _fresh(name)
    if reference:
        reference_initialize(controller, data, HOTNESS, TABLE, MODEL, budget)
    else:
        controller.initialize(data, HOTNESS, TABLE, MODEL, budget)
    return controller


def _only_pinned_and_incompressible(controller) -> bool:
    ml1 = [ppn for ppn, cte in controller._cte.items() if not cte.in_ml2]
    incompressible = [ppn for ppn in ml1 if ppn not in controller._pinned
                      and MODEL.record_for(ppn).deflate_incompressible]
    return len(ml1) == len(controller._pinned) + len(incompressible)


@lru_cache(maxsize=None)
def _tight():
    """``(data pages, budget)``: the smallest feasible budget at which
    the reference keeps no compressible page in ML1.  Whether the
    hottest compressible page still fits at the smallest budget depends
    on size-class rounding, so trailing pages are dropped until it does
    not."""
    for count in range(len(DATA), len(DATA) - 64, -1):
        data = DATA[:count]
        low, high = 1, len(data) + len(TABLE)  # in pages; high fits
        while low < high:
            mid = (low + high) // 2
            try:
                _placed("tmcc", data, mid * PAGE_SIZE, reference=True)
            except ConfigError:
                low = mid + 1
            else:
                high = mid
        placed = _placed("tmcc", data, low * PAGE_SIZE, reference=True)
        if _only_pinned_and_incompressible(placed):
            return tuple(data), low * PAGE_SIZE
    raise AssertionError("no budget keeps ML1 to pinned/incompressible")


def _scenario(budget):
    if budget == "none":
        return DATA, None
    if budget == "compresso_iso":
        return DATA, _placed("compresso", DATA, None, True).dram_used_bytes()
    if budget == "half":
        return DATA, (len(DATA) + len(TABLE)) * PAGE_SIZE // 2
    data, tight = _tight()
    return list(data), tight


def _fields(cte):
    values = dataclasses.astuple(cte)
    # A Compresso CTE shares its record's block-size tuple until a
    # write; the reference gives each page its own list.
    return tuple(list(v) if isinstance(v, (list, tuple)) else v
                 for v in values)


def placement_state(controller):
    """Everything ``initialize`` sets, as comparable plain values."""
    state = {
        "ctes": [(ppn, _fields(cte))
                 for ppn, cte in getattr(controller, "_cte", {}).items()],
        "dram_page": list(controller._dram_page.items()),
        "cte_table_base": controller._cte_table_base,
        "dram_used_bytes": controller.dram_used_bytes(),
        "describe": controller.describe(),
    }
    if hasattr(controller, "_next_chunk"):  # Compresso
        state["next_chunk"] = controller._next_chunk
        state["chunk_free"] = list(controller._chunk_free)
    if hasattr(controller, "ml1_free"):  # two-level
        state["ml1_free"] = list(controller.ml1_free._chunks)
        state["ml2_classes"] = {
            size: [(sc.chunk_ids, sc.free_slots, sc.total_slots,
                    sc.origin_chunk) for sc in stack]
            for size, stack in controller.ml2_free._lists.items()}
        state["subchunks"] = [
            (ppn, sub.superchunk.origin_chunk, sub.slot, sub.size)
            for ppn, sub in controller._subchunk.items()]
        recency = controller.recency._list
        state["recency"] = list(recency.keys_lru_to_mru())
        state["recency_columns"] = (
            recency._slot, recency._key, recency._val, recency._prev,
            recency._next, recency._head, recency._tail, recency._free)
        state["pinned"] = controller._pinned
        state["budget_chunks"] = controller._budget_chunks
        state["total_pages"] = controller._total_pages
    return state


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", CONTROLLERS)
def test_bulk_placement_matches_per_page_reference(name, budget):
    data, budget_bytes = _scenario(budget)
    bulk = _placed(name, data, budget_bytes, reference=False)
    reference = _placed(name, data, budget_bytes, reference=True)
    assert placement_state(bulk) == placement_state(reference)
    if name in TWO_LEVEL:
        assert (bulk.ml2_page_count > 0) == (budget != "none")
        if budget == "tight":
            assert _only_pinned_and_incompressible(bulk)
            assert len(bulk.recency) == 0


@pytest.mark.parametrize("name", ["compresso", "tmcc", "osinspired"])
def test_placed_controllers_then_serve_alike(name):
    """The two placements stay alike through misses and writebacks
    (Compresso's copy on write, two-level migration and eviction)."""
    data, budget_bytes = _scenario("half")
    bulk = _placed(name, data, budget_bytes, reference=False)
    reference = _placed(name, data, budget_bytes, reference=True)
    rng = random.Random(SEED)
    now = 0.0
    for _ in range(3_000):
        ppn = rng.choice(data)
        block = rng.randrange(64)
        if rng.random() < 0.4:
            bulk.serve_writeback(ppn, block, now)
            reference.serve_writeback(ppn, block, now)
        else:
            got = bulk.serve_l3_miss_fast(ppn, block, now)
            want = reference.serve_l3_miss_fast(ppn, block, now)
            assert got == want
        now += 50.0
    assert placement_state(bulk) == placement_state(reference)
    assert bulk.stats.as_dict() == reference.stats.as_dict()


def test_bulk_placement_refuses_an_impossible_budget():
    for placer in (True, False):
        with pytest.raises(ConfigError):
            _placed("tmcc", DATA, 64 * PAGE_SIZE, reference=placer)


@settings(max_examples=200, deadline=None)
@given(chunks=st.integers(min_value=0, max_value=40),
       sizes=st.lists(st.integers(min_value=1, max_value=PAGE_SIZE),
                      max_size=80))
def test_alloc_many_matches_one_alloc_per_page(chunks, sizes):
    """Including the ``None`` of a dry class that ML1 cannot refill;
    ``ML2FreeLists.alloc`` is ``alloc_many`` of one class."""
    bulk_ml1, bulk = ML1FreeList(), ML2FreeLists()
    ref_ml1, ref = ML1FreeList(), ML2FreeLists()
    bulk_ml1.push_many(range(chunks))
    ref_ml1.push_many(range(chunks))
    got = bulk.alloc_many([bulk.class_for(size) for size in sizes], bulk_ml1)
    want = [reference_alloc(ref, size, ref_ml1) for size in sizes]

    def handle(sub):
        if sub is None:
            return None
        return sub.superchunk.origin_chunk, sub.slot, sub.size

    assert list(map(handle, got)) == list(map(handle, want))
    assert bulk_ml1._chunks == ref_ml1._chunks
    assert ({size: [(sc.chunk_ids, sc.free_slots) for sc in stack]
             for size, stack in bulk._lists.items()}
            == {size: [(sc.chunk_ids, sc.free_slots) for sc in stack]
                for size, stack in ref._lists.items()})
