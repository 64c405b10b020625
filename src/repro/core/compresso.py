"""Compresso [6]: the state-of-the-art block-level baseline.

Every 4 KB page is compressed block-by-block (best of BDI/BPC/C-Pack/zero)
and repacked into 512 B chunks.  Translation is block-granular: each page
needs a 64 B CTE, cached in a 128 KB CTE cache (Table III), so the cache
reaches only 2K pages.  An LLC miss that misses the CTE cache must fetch
the CTE from DRAM *before* it knows where the data block lives -- the
serialization TMCC exists to remove (Figure 8a).

Repacking on compressibility changes happens in the background; its cost
shows up as extra DRAM writes, not read latency, matching the paper's
treatment.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain, repeat
from typing import Dict, List, Optional, Sequence

from repro.common.rng import DeterministicRNG
from repro.common.units import PAGE_SIZE
from repro.core.base import (
    MemoryController,
    PATH_CTE_HIT,
    PATH_SERIAL_NO_CTE,
    register_controller,
)
from repro.core.compmodel import PageCompressionModel
from repro.core.pipeline import STAGE_CTE_FETCH, STAGE_DATA_FETCH
from repro.core.config import SystemConfig
from repro.dram.system import DRAMSystem
from repro.mc.cte import CTE_SIZE_BLOCKLEVEL, CompressoCTE
from repro.mc.ctecache import CTECache

#: Compresso's repacking granularity.
CHUNK_BYTES = 512


@register_controller
class CompressoController(MemoryController):
    """Block-level hardware memory compression for capacity.

    ``cte_victim_in_llc`` reproduces the design Section III evaluates and
    rejects: CTE blocks evicted from the CTE cache spill into the LLC.
    An LLC hit still pays the ~20 ns distributed-LLC access before the
    data fetch (saving only ~15 ns of the ~35 ns DRAM access), and an LLC
    *miss* discovers that 20 ns late -- so with roughly even hit/miss
    odds the scheme loses, which is why the paper (and our default) keeps
    CTEs out of the LLC.
    """

    name = "compresso"

    #: Distributed NoC LLC access time (Section III cites ~20 ns).
    LLC_ACCESS_NS = 20.0

    def __init__(self, config: SystemConfig, dram: DRAMSystem,
                 seed: int = 0, cte_victim_in_llc: bool = False) -> None:
        super().__init__(config, dram, seed=seed)
        self.cte_cache = CTECache(
            size_bytes=config.compresso_cte_cache_bytes,
            cte_size=CTE_SIZE_BLOCKLEVEL,
            name="compresso_cte",
        )
        self.cte_victim_in_llc = cte_victim_in_llc
        #: Victim CTE blocks resident in the LLC (bounded LRU over block
        #: ids; ~1 MB of the 8 MB LLC ends up holding CTE blocks).
        self._llc_victims: "OrderedDict[int, bool]" = OrderedDict()
        self._llc_victim_capacity = (1 << 20) // 64
        #: ppn -> per-page metadata (chunk list + per-block sizes).
        self._cte: Dict[int, CompressoCTE] = {}
        #: Free 512 B chunk ids; freed chunks are reused first.
        self._chunk_free: List[int] = []
        self._next_chunk = 0
        self._rng = DeterministicRNG(seed ^ 0xC0)

    # ------------------------------------------------------------------
    # Chunk pool
    # ------------------------------------------------------------------

    def _alloc_chunks(self, count: int) -> List[int]:
        chunks = []
        for _ in range(count):
            if self._chunk_free:
                chunks.append(self._chunk_free.pop())
            else:
                chunks.append(self._next_chunk)
                self._next_chunk += 1
        return chunks

    def _free_chunks(self, chunks: List[int]) -> None:
        self._chunk_free.extend(chunks)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def initialize(
        self,
        data_ppns: Sequence[int],
        hotness_rank: Dict[int, int],
        table_ppns: Sequence[int],
        model: PageCompressionModel,
        dram_budget_bytes: Optional[int] = None,
    ) -> None:
        """Compress and pack every page; Compresso has no budget knob --
        its DRAM usage *is* the outcome (Table IV column B).

        Each page's chunk count and block sizes come from its record,
        derived once per record: the pages of a record share one sizes
        tuple until a writeback changes one of them.  Chunks are handed
        out as consecutive runs of a fresh controller's chunk pool.
        """
        blocks_per_page = PAGE_SIZE // 64
        layouts = []  # per record: (chunk count, block-size tuple)
        for record in model.records:
            if record.block_sizes:  # block_bytes is their sum
                sizes = record.block_sizes
                page_bytes = record.block_bytes
            else:
                sizes = (record.block_bytes // blocks_per_page,) * blocks_per_page
                page_bytes = sum(sizes)
            layouts.append((-(-page_bytes // CHUNK_BYTES), sizes))
        # Page-table pages: kept uncompressed-equivalent (hot, dirty).
        table_layout = (PAGE_SIZE // CHUNK_BYTES, (64,) * blocks_per_page)
        pages = zip(table_ppns, repeat(table_layout))
        data_pages = zip(data_ppns, map(layouts.__getitem__,
                                        model.record_indices(data_ppns)))
        ctes = self._cte
        start = self._next_chunk
        for ppn, (count, sizes) in chain(pages, data_pages):
            end = start + count
            ctes[ppn] = CompressoCTE(list(range(start, end)), sizes)
            start = end
        self._next_chunk = start
        self._cte_table_base = (start + 8) * CHUNK_BYTES

    def _data_address(self, ppn: int, block_index: int) -> int:
        """Block addresses follow the page's repacked chunk layout."""
        cte = self._cte.get(ppn)
        if cte is None:
            return super()._data_address(ppn, block_index)
        location = cte.block_location(block_index, CHUNK_BYTES)
        if location is None:
            return super()._data_address(ppn, block_index)
        chunk, offset = location
        return chunk * CHUNK_BYTES + offset

    # ------------------------------------------------------------------
    # Runtime
    # ------------------------------------------------------------------

    def serve_l3_miss_fast(self, ppn: int, block_index: int, now_ns: float,
                           is_write: bool = False):
        """Serve an LLC miss; returns ``(latency_ns, path, spans)``.

        On a CTE-cache miss the metadata fetch (possibly via the LLC
        victim path) strictly precedes the data fetch -- the Figure 8a
        serialization TMCC exists to remove.
        """
        self._l3_counter.value += 1
        # CTECache.lookup, inlined: this runs once per LLC miss.
        cache = self.cte_cache
        block = ppn // cache.pages_per_block
        lru = cache._lru
        cache_hit = block in lru
        cache_stats = cache.stats
        cache_stats.total += 1
        if cache_hit:
            cache_stats.hits += 1
            lru.move_to_end(block)
            total = self._dram_read(self._data_address(ppn, block_index),
                                    now_ns)
            spans = ((STAGE_DATA_FETCH, now_ns, total, True, False, 0.0),)
            path = PATH_CTE_HIT
        else:
            cte_lat = self._fetch_cte(ppn, now_ns)
            data_ns = now_ns + cte_lat
            data_lat = self._dram_read(self._data_address(ppn, block_index),
                                       data_ns)
            total = cte_lat + data_lat
            spans = ((STAGE_CTE_FETCH, now_ns, cte_lat, True, False, 0.0),
                     (STAGE_DATA_FETCH, data_ns, data_lat, True, False, 0.0))
            self._fill_cte_cache(ppn)
            path = PATH_SERIAL_NO_CTE
        self._finish(path, spans, total, ppn)
        return total, path, spans

    def _fetch_cte(self, ppn: int, now_ns: float) -> float:
        """Serial CTE fetch, optionally probing the LLC victim copy."""
        address = self._cte_address(ppn, CTE_SIZE_BLOCKLEVEL)
        if not self.cte_victim_in_llc:
            self._count("cte_dram_fetches")
            return self._dram_read(address, now_ns, include_noc=False)
        block = ppn // self.cte_cache.pages_per_block
        victims = self._llc_victims
        if block in victims:
            victims.move_to_end(block)
            self._count("cte_llc_hits")
            return self.LLC_ACCESS_NS
        # LLC miss discovered ~20 ns late, then DRAM.
        self._count("cte_llc_misses")
        self._count("cte_dram_fetches")
        return self.LLC_ACCESS_NS + self._dram_read(address, now_ns,
                                                    include_noc=False)

    def _fill_cte_cache(self, ppn: int) -> None:
        """Fill the CTE cache; spill the victim to the LLC if enabled."""
        victim = self.cte_cache.fill(ppn)
        if victim is not None and self.cte_victim_in_llc:
            victims = self._llc_victims
            victims[victim] = True
            if len(victims) > self._llc_victim_capacity:
                victims.popitem(last=False)

    def serve_writeback(self, ppn: int, block_index: int, now_ns: float) -> None:
        super().serve_writeback(ppn, block_index, now_ns)
        # Writebacks change the written block's compressibility: resample
        # its size from the page's own block-size population.  When the
        # page no longer fits its chunks, Compresso pops a chunk from the
        # free list; when slack appears, background repacking frees one.
        cte = self._cte.get(ppn)
        if cte is None or not self._rng.chance(0.05):
            return
        size = self._rng.choice(cte.block_sizes)
        if type(cte.block_sizes) is not list:
            # Copy on write: placement shares the record's tuple.
            cte.block_sizes = list(cte.block_sizes)
        cte.block_sizes[block_index] = size
        needed = cte.chunks_needed(CHUNK_BYTES)
        if needed > len(cte.chunks):
            cte.chunks += self._alloc_chunks(needed - len(cte.chunks))
            self.stats.counter("chunk_overflows").increment()
            self.dram.write(self._data_address(ppn, 0), now_ns)
        elif needed < len(cte.chunks):
            self._free_chunks(cte.chunks[needed:])
            del cte.chunks[needed:]
            self.stats.counter("repacks").increment()
            # Background repack rewrites the page's tail.
            self.dram.stream(self._data_address(ppn, 0),
                             needed * CHUNK_BYTES // 64, now_ns,
                             is_write=True)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        summary = super().describe()
        summary.update({
            "cte_cache_bytes": self.cte_cache.size_bytes,
            "cte_size_bytes": CTE_SIZE_BLOCKLEVEL,
            "chunk_bytes": CHUNK_BYTES,
            "chunks_allocated": self._next_chunk,
            "chunks_free": len(self._chunk_free),
            "cte_victim_in_llc": self.cte_victim_in_llc,
        })
        return summary

    def dram_used_bytes(self) -> int:
        """Chunks in use + the 64 B-per-page CTE table (6.25% overhead)."""
        data = sum(len(cte.chunks) for cte in self._cte.values()) * CHUNK_BYTES
        metadata = len(self._cte) * CTE_SIZE_BLOCKLEVEL
        return data + metadata

    @property
    def cte_hit_rate(self) -> float:
        return self.cte_cache.stats.hit_rate

    @property
    def cte_llc_hit_rate(self) -> float:
        """Of CTE-cache misses, the fraction served by the LLC victims."""
        hits = self.stats.count_of("cte_llc_hits")
        misses = self.stats.count_of("cte_llc_misses")
        total = hits + misses
        return hits / total if total else 0.0


@register_controller
class CompressoLLCVictimController(CompressoController):
    """Compresso with the rejected CTEs-in-LLC victim scheme enabled."""

    name = "compresso_llc_victim"

    def __init__(self, config: SystemConfig, dram: DRAMSystem,
                 seed: int = 0) -> None:
        super().__init__(config, dram, seed=seed, cte_victim_in_llc=True)
