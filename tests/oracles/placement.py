"""Reference placement: the per-page ``initialize`` loops (spec + oracle).

Each controller's ``initialize`` places every page once before a run:
the base controller maps pages 1:1, Compresso packs each page into
512 B chunks behind a 64 B block-level CTE, and the two-level
controllers split pages between ML1 chunks and ML2 size-class
sub-chunks.  The controllers derive what they can once per
``PageRecord`` and place pages in bulk; the functions here are the
readable version that walks the pages one at a time through the
per-page allocators: Compresso's ``_alloc_chunks``, ``ML1FreeList.pop``,
``RecencyList.push_hot``, and :func:`reference_alloc`, the per-page
ML2 allocation that ``ML2FreeLists.alloc_many`` does in bulk.
``tests/core/test_placement_differential.py`` runs both on fresh
controllers and demands identical state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigError
from repro.common.units import PAGE_SIZE
from repro.core.base import MemoryController
from repro.core.compmodel import PageCompressionModel, PageRecord
from repro.core.compresso import CHUNK_BYTES, CompressoController
from repro.core.twolevel import _PLAN_SLACK, TwoLevelController
from repro.mc.cte import CTE_SIZE_PAGE, CompressoCTE, PageCTE
from repro.mc.freelist import (
    ML1FreeList,
    ML2FreeLists,
    SubChunk,
    SuperChunk,
    superchunk_geometry,
)
from repro.mc.recency import RecencyList


def reference_initialize(controller: MemoryController,
                         data_ppns: Sequence[int],
                         hotness_rank: Dict[int, int],
                         table_ppns: Sequence[int],
                         model: PageCompressionModel,
                         dram_budget_bytes: Optional[int] = None) -> None:
    """Place every page of a fresh ``controller``, one page at a time."""
    if isinstance(controller, TwoLevelController):
        place_two_level(controller, data_ppns, hotness_rank, table_ppns,
                        model, dram_budget_bytes)
    elif isinstance(controller, CompressoController):
        place_compresso(controller, data_ppns, table_ppns, model)
    else:
        place_identity(controller, data_ppns, table_ppns)


def place_identity(controller: MemoryController, data_ppns: Sequence[int],
                   table_ppns: Sequence[int]) -> None:
    """Every page 1:1 into DRAM, table pages first."""
    for index, ppn in enumerate(list(table_ppns) + list(data_ppns)):
        controller._dram_page[ppn] = index
    controller._cte_table_base = len(controller._dram_page) * PAGE_SIZE


def place_compresso(controller: CompressoController,
                    data_ppns: Sequence[int], table_ppns: Sequence[int],
                    model: PageCompressionModel) -> None:
    """Each page gets its own copy of its record's block sizes and the
    chunks they need; table pages stay uncompressed."""
    blocks_per_page = PAGE_SIZE // 64
    ctes = controller._cte
    alloc = controller._alloc_chunks
    for ppn in table_ppns:
        ctes[ppn] = CompressoCTE(chunks=alloc(PAGE_SIZE // CHUNK_BYTES),
                                 block_sizes=[64] * blocks_per_page)
    for ppn in data_ppns:
        record = model.record_for(ppn)
        if record.block_sizes:  # block_bytes is their sum
            sizes = list(record.block_sizes)
            page_bytes = record.block_bytes
        else:
            sizes = [record.block_bytes // blocks_per_page] * blocks_per_page
            page_bytes = sum(sizes)
        ctes[ppn] = CompressoCTE(chunks=alloc(-(-page_bytes // CHUNK_BYTES)),
                                 block_sizes=sizes)
    controller._cte_table_base = (controller._next_chunk + 8) * CHUNK_BYTES


def place_two_level(controller: TwoLevelController,
                    data_ppns: Sequence[int], hotness_rank: Dict[int, int],
                    table_ppns: Sequence[int], model: PageCompressionModel,
                    dram_budget_bytes: Optional[int] = None) -> None:
    """The hottest compressible pages that fit go to ML1 with the pinned
    and incompressible ones; the rest go to ML2, page by page."""
    controller._model = model
    controller._total_pages = len(data_ppns) + len(table_ppns)
    footprint = controller._total_pages * PAGE_SIZE
    metadata = controller._total_pages * (CTE_SIZE_PAGE
                                          + RecencyList.ELEMENT_BYTES)
    config = controller.config
    if dram_budget_bytes is None:
        dram_budget_bytes = (footprint + metadata
                             + (config.ml1_low_watermark + 1) * PAGE_SIZE)
    budget_chunks = (dram_budget_bytes - metadata) // PAGE_SIZE
    controller._budget_chunks = budget_chunks

    ordered = sorted(data_ppns, key=lambda p: hotness_rank.get(p, 1 << 30))
    must_ml1 = list(table_ppns)
    compressible: List[int] = []
    records: List[PageRecord] = []
    for ppn in ordered:
        record = model.record_for(ppn)
        if record.deflate_incompressible:
            must_ml1.append(ppn)
        else:
            compressible.append(ppn)
            records.append(record)

    reserve = min(config.ml1_low_watermark, max(2, budget_chunks // 8))
    available = budget_chunks - len(must_ml1) - reserve
    if available < 0:
        raise ConfigError(
            f"DRAM budget {dram_budget_bytes} cannot hold even the "
            f"{len(must_ml1)} uncompressible/pinned pages"
        )
    ml1_count = _plan_split(controller, records, available)

    ml1_free = controller.ml1_free
    ml1_free.push_many(range(budget_chunks))
    for ppn in must_ml1 + compressible[:ml1_count]:
        chunk = ml1_free.pop()
        controller._dram_page[ppn] = chunk
        controller._cte[ppn] = PageCTE(dram_page=chunk, in_ml2=False)
    for ppn, record in zip(compressible[ml1_count:], records[ml1_count:]):
        subchunk = reference_alloc(controller.ml2_free, record.deflate_bytes,
                                   ml1_free)
        if subchunk is None:
            continue  # the class is dry and ML1 cannot donate: unplaced
        controller._subchunk[ppn] = subchunk
        base_chunk = subchunk.superchunk.chunk_ids[0]
        controller._dram_page[ppn] = base_chunk
        controller._cte[ppn] = PageCTE(
            dram_page=base_chunk,
            dram_offset=subchunk.slot * subchunk.size,
            in_ml2=True,
            compressed_size=record.deflate_bytes,
        )
    controller._pinned = set(table_ppns)

    # Coldest pushed first so the hottest end up at MRU.
    for ppn in reversed(compressible[:ml1_count]):
        controller.recency.push_hot(ppn)
    controller._cte_table_base = budget_chunks * PAGE_SIZE


def reference_alloc(ml2: ML2FreeLists, compressed_size: int,
                    ml1: ML1FreeList) -> Optional[SubChunk]:
    """One sub-chunk of ``compressed_size``'s class: the top super-chunk
    with a free slot, else a new one carved from ML1's top chunks, else
    ``None``."""
    size = ml2.class_for(compressed_size)
    stack = ml2._lists[size]
    while stack and not stack[-1].has_free:
        stack.pop()  # fully-allocated super-chunks leave the list
    if not stack:
        m, n = superchunk_geometry(size)
        chunks = ml1.pop_many(m)
        if chunks is None:
            return None
        stack.append(SuperChunk.carve(size, chunks, n))
    superchunk = stack[-1]
    slot = superchunk.free_slots.pop()
    if not superchunk.has_free:
        stack.pop()
    return SubChunk(superchunk, slot)


def _plan_split(controller: TwoLevelController, records: List[PageRecord],
                available_chunks: int) -> int:
    """Largest hot prefix of ``records`` kept in ML1 such that the rest,
    padded by the size-class slack, fits in ML2."""
    class_for = controller.ml2_free.class_for
    sizes = [class_for(record.deflate_bytes) for record in records]
    suffix = [0] * (len(sizes) + 1)
    for i in range(len(sizes) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + sizes[i]

    def fits(ml1_count: int) -> bool:
        ml2_chunks = -(-int(suffix[ml1_count] * _PLAN_SLACK) // PAGE_SIZE)
        return ml1_count + ml2_chunks <= available_chunks

    if not fits(0):
        raise ConfigError("DRAM budget too small even with full compression")
    low, high = 0, len(sizes)
    while low < high:
        mid = (low + high + 1) // 2
        if fits(mid):
            low = mid
        else:
            high = mid - 1
    return low
