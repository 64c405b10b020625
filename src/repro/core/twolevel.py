"""The OS-inspired two-level memory engine (Section IV-B).

ML1 holds hot pages uncompressed (one 4 KB chunk each); ML2 holds cold
pages Deflate-compressed in size-class sub-chunks.  A single chunk pool
backs both: ML2's free lists grow by taking chunks from ML1's free list
and dismantle empty super-chunks back into it.

This class implements everything the OS-inspired approach shares --
placement under a DRAM budget, page-level CTEs and their cache, the
recency list, eviction watermarks, and the ML2 access/migration path.
Subclasses differ in (a) how a CTE-cache miss is translated (serial fetch
vs TMCC's embedded-CTE parallel fetch) and (b) which Deflate engine's
latencies ML2 pays (IBM's vs the memory-specialized ASIC).
"""

from __future__ import annotations

from itertools import accumulate, compress
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRNG
from repro.common.units import BLOCK_SIZE, PAGE_SIZE
from repro.core.base import (
    MemoryController,
    PATH_CTE_HIT,
    PATH_ML2,
    PATH_SERIAL_NO_CTE,
)
from repro.core.pipeline import (
    STAGE_CTE_FETCH,
    STAGE_DATA_FETCH,
    STAGE_DECOMPRESS,
    STAGE_EMERGENCY_EVICT,
    STAGE_EVICT,
    STAGE_MIGRATION_STALL,
    STAGE_ML2_READ,
)
from repro.core.compmodel import PageCompressionModel, PageRecord
from repro.core.config import SystemConfig
from repro.dram.system import DRAMSystem
from repro.mc.cte import CTE_SIZE_PAGE, PageCTE
from repro.mc.ctecache import CTECache
from repro.mc.freelist import ML1FreeList, ML2FreeLists, SubChunk
from repro.mc.migration import MigrationBuffer
from repro.mc.recency import RecencyList

#: Sub-chunk padding slack when planning the ML1/ML2 split (size-class
#: rounding makes ML2 slightly bigger than the sum of compressed sizes).
_PLAN_SLACK = 1.08


class TwoLevelController(MemoryController):
    """Shared ML1/ML2 machinery; see subclasses for the CTE policies."""

    name = "twolevel"

    def __init__(self, config: SystemConfig, dram: DRAMSystem,
                 seed: int = 0) -> None:
        super().__init__(config, dram, seed=seed)
        self.cte_cache = CTECache(
            size_bytes=config.tmcc_cte_cache_bytes,
            cte_size=CTE_SIZE_PAGE,
            name=f"{self.name}_cte",
        )
        self.ml1_free = ML1FreeList()
        self.ml2_free = ML2FreeLists()
        self.recency = RecencyList(DeterministicRNG(seed ^ 0xEC))
        self.migration = MigrationBuffer()
        self._cte: Dict[int, PageCTE] = {}
        self._subchunk: Dict[int, SubChunk] = {}
        self._model: Optional[PageCompressionModel] = None
        self._pinned: set = set()  # page-table pages never leave ML1
        self._total_pages = 0
        self._budget_chunks = 0

    # ------------------------------------------------------------------
    # ML2 engine selection (overridden by the OS-inspired baseline)
    # ------------------------------------------------------------------

    def _decompress_half_ns(self, record: PageRecord) -> float:
        return record.decompress_half_ns

    def _decompress_full_ns(self, record: PageRecord) -> float:
        return record.decompress_full_ns

    def _compress_ns(self, record: PageRecord) -> float:
        return record.compress_ns

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def initialize(
        self,
        data_ppns: Sequence[int],
        hotness_rank: Dict[int, int],
        table_ppns: Sequence[int],
        model: PageCompressionModel,
        dram_budget_bytes: Optional[int] = None,
    ) -> None:
        """Split pages across ML1/ML2 to fit ``dram_budget_bytes``.

        Models the paper's warm-up equilibrium: the hottest pages that fit
        live in ML1, everything colder sits compressed in ML2.  With no
        budget, everything is ML1 (no memory is being saved).

        Whether a page compresses and its ML2 size class are derived once
        per record; pages are then placed in bulk on a fresh controller.
        """
        self._model = model
        self._total_pages = len(data_ppns) + len(table_ppns)
        footprint = self._total_pages * PAGE_SIZE
        metadata = self._total_pages * (CTE_SIZE_PAGE + RecencyList.ELEMENT_BYTES)
        if dram_budget_bytes is None:
            # No budget: everything fits in ML1 (no memory being saved).
            dram_budget_bytes = (footprint + metadata
                                 + (self.config.ml1_low_watermark + 1) * PAGE_SIZE)

        budget_chunks = (dram_budget_bytes - metadata) // PAGE_SIZE
        self._budget_chunks = budget_chunks

        # Per record: its ML2 size class, or None when it stays in ML1.
        class_for = self.ml2_free.class_for
        records = model.records
        classes = [None if record.deflate_incompressible
                   else class_for(record.deflate_bytes) for record in records]
        ordered = sorted(data_ppns, key=lambda p: hotness_rank.get(p, 1 << 30))
        indices = model.record_indices(ordered)
        page_classes = list(map(classes.__getitem__, indices))
        must_ml1 = list(table_ppns)
        must_ml1 += [ppn for ppn, size in zip(ordered, page_classes)
                     if size is None]
        # The compressible pages, their records and their size classes.
        compressible = list(compress(ordered, page_classes))
        compressible_indices = list(compress(indices, page_classes))
        sizes = list(filter(None, page_classes))

        # Keep a free-chunk reserve, scaled down for small simulations.
        reserve = min(self.config.ml1_low_watermark, max(2, budget_chunks // 8))
        available = budget_chunks - len(must_ml1) - reserve
        if available < 0:
            raise ConfigError(
                f"DRAM budget {dram_budget_bytes} cannot hold even the "
                f"{len(must_ml1)} uncompressible/pinned pages"
            )
        ml1_count = self._plan_split(sizes, available)

        # ML1: page i takes chunk budget_chunks - 1 - i, the order a
        # stack of every chunk pops them in; the rest stay free.
        ml1_pages = must_ml1 + compressible[:ml1_count]
        free_chunks = budget_chunks - len(ml1_pages)
        ml1_chunks = list(range(budget_chunks - 1, free_chunks - 1, -1))
        self.ml1_free.push_many(range(free_chunks))
        self._dram_page.update(zip(ml1_pages, ml1_chunks))
        self._cte.update(zip(ml1_pages, map(PageCTE, ml1_chunks)))

        # ML2: sub-chunks in hotness order; a page whose class is dry
        # when ML1 cannot donate a super-chunk stays unplaced.
        dram_page = self._dram_page
        ctes = self._cte
        placed = self._subchunk
        subchunks = self.ml2_free.alloc_many(sizes[ml1_count:], self.ml1_free)
        for ppn, subchunk, index in zip(compressible[ml1_count:], subchunks,
                                        compressible_indices[ml1_count:]):
            if subchunk is None:
                continue
            superchunk = subchunk.superchunk
            base_chunk = superchunk.chunk_ids[0]
            placed[ppn] = subchunk
            dram_page[ppn] = base_chunk
            ctes[ppn] = PageCTE(
                dram_page=base_chunk,
                dram_offset=subchunk.slot * superchunk.subchunk_size,
                in_ml2=True,
                compressed_size=records[index].deflate_bytes,
            )
        self._pinned = set(table_ppns)

        # Recency list: coldest first so the hottest end up at MRU.
        self.recency.fill(reversed(compressible[:ml1_count]))
        self._cte_table_base = budget_chunks * PAGE_SIZE

    def _plan_split(self, sizes: List[int], available_chunks: int) -> int:
        """Largest hot prefix of the compressible pages (``sizes``, their
        ML2 size classes, hottest first) kept in ML1 such that
        everything fits."""
        suffix = list(accumulate(reversed(sizes), initial=0))
        suffix.reverse()

        def fits(ml1_count: int) -> bool:
            ml2_chunks = -(-int(suffix[ml1_count] * _PLAN_SLACK) // PAGE_SIZE)
            return ml1_count + ml2_chunks <= available_chunks

        if not fits(0):
            raise ConfigError(
                "DRAM budget too small even with full compression"
            )
        low, high = 0, len(sizes)
        while low < high:
            mid = (low + high + 1) // 2
            if fits(mid):
                low = mid
            else:
                high = mid - 1
        return low

    def _place_in_ml2(self, ppn: int, record: PageRecord) -> bool:
        subchunk = self.ml2_free.alloc(record.deflate_bytes, self.ml1_free)
        if subchunk is None:
            return False
        self._subchunk[ppn] = subchunk
        base_chunk = subchunk.superchunk.chunk_ids[0]
        self._dram_page[ppn] = base_chunk
        self._cte[ppn] = PageCTE(
            dram_page=base_chunk,
            dram_offset=subchunk.slot * subchunk.size,
            in_ml2=True,
            compressed_size=record.deflate_bytes,
        )
        return True

    # ------------------------------------------------------------------
    # Runtime: LLC misses
    # ------------------------------------------------------------------

    def serve_l3_miss_fast(self, ppn: int, block_index: int, now_ns: float,
                           is_write: bool = False):
        """Serve an LLC miss; returns ``(latency_ns, path, spans)``.

        A CTE-cache hit goes straight to the data (one DRAM read in ML1,
        the ML2 decompress + migrate service otherwise); a miss runs
        :meth:`_translate` first and then fills the CTE cache.
        """
        self._l3_counter.value += 1
        cte = self._cte.get(ppn)
        if cte is None:  # page unknown to the controller (e.g. I/O space)
            latency = self._dram_read(self._data_address(ppn, block_index),
                                      now_ns)
            spans = ((STAGE_DATA_FETCH, now_ns, latency, True, False, 0.0),)
            self._finish(PATH_CTE_HIT, spans, latency, ppn, False)
            return latency, PATH_CTE_HIT, spans

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
            if cte.in_ml2:
                spans, total = self._ml2(ppn, cte, now_ns)
                path = PATH_ML2
            else:
                total = self._dram_read(self._data_address(ppn, block_index),
                                        now_ns)
                spans = ((STAGE_DATA_FETCH, now_ns, total, True, False, 0.0),)
                path = PATH_CTE_HIT
        else:
            spans, total, path = self._translate(ppn, cte, block_index,
                                                 now_ns)
            # CTECache.fill, inlined; re-check presence because the
            # eviction pump may have invalidated neighbours of ``block``
            # while the miss was served.
            if block in lru:
                lru.move_to_end(block)
            else:
                if len(lru) >= cache.capacity_blocks:
                    lru.pop_lru()
                lru.insert_mru(block)

        if not cte.in_ml2 and not cte.is_incompressible:
            self.recency.on_access(ppn)
        self._finish(path, spans, total, ppn)
        return total, path, spans

    def _translate(self, ppn: int, cte: PageCTE, block_index: int,
                   now_ns: float):
        """CTE-cache miss; returns ``(spans, total_ns, path)``.

        The baseline fetches the CTE *serially* (Figure 8a): the data
        access cannot start before the CTE arrives.  TMCC overrides this
        with the parallel speculative fetch.
        """
        cte_lat = self._fetch_cte(ppn, now_ns)
        cte_span = (STAGE_CTE_FETCH, now_ns, cte_lat, True, False, 0.0)
        data_ns = now_ns + cte_lat
        if cte.in_ml2:
            ml2_spans, ml2_total = self._ml2(ppn, cte, data_ns)
            return (cte_span,) + ml2_spans, cte_lat + ml2_total, PATH_ML2
        data_lat = self._dram_read(self._data_address(ppn, block_index),
                                   data_ns)
        spans = (cte_span,
                 (STAGE_DATA_FETCH, data_ns, data_lat, True, False, 0.0))
        return spans, cte_lat + data_lat, PATH_SERIAL_NO_CTE

    def _fetch_cte(self, ppn: int, now_ns: float) -> float:
        self._count("cte_dram_fetches")
        return self._dram_read(self._cte_address(ppn, CTE_SIZE_PAGE), now_ns,
                               include_noc=False)

    # ------------------------------------------------------------------
    # ML2 access: decompress + background migration to ML1
    # ------------------------------------------------------------------

    def _ml2(self, ppn: int, cte: PageCTE, start_ns: float):
        """Serve a block of an ML2 page from ``start_ns``; returns
        ``(spans, total_ns)``:

        ml2_read -> decompress -> migration_stall -> [migrate] -> evict
        [-> emergency_evict, with resilience enabled]

        The MC replies as soon as the needed block decompresses
        (half-page latency); the full-page migration drains in the
        background through the 8-entry buffer, whose occupancy is
        reserved at the access's *arrival* time.  Migrating takes no
        foreground time and records no stage.  Eviction normally runs
        behind demand accesses and contributes zero foreground latency;
        under the Section VI priority flip (free list below the critical
        watermark) the demand access pays for it.
        """
        record = self._model.record_for(ppn)
        self.stats.counter("ml2_accesses").value += 1
        compressed_blocks = -(-cte.compressed_size // BLOCK_SIZE)
        decompress_ns = self._decompress_half_ns(record)
        migration_ns = self._decompress_full_ns(record) + 64 * \
            self.dram.config.timing.burst_ns
        base_address = self._data_address(ppn, 0)
        first_read = self._dram_read(base_address, start_ns)
        self.dram.stream(base_address, compressed_blocks - 1, start_ns)
        # The buffer entry is claimed when the access arrives, not when
        # decompression finishes.
        stall_ns = self.migration.reserve(start_ns, migration_ns).stall_ns
        decompress_at = start_ns + first_read
        stall_at = start_ns + (first_read + decompress_ns)
        total = first_read + decompress_ns + stall_ns
        evict_at = start_ns + total
        self._migrate_to_ml1(ppn, cte, evict_at)
        eviction_ns = self._maybe_evict(evict_at)
        if self.ml1_free.count < self.config.ml1_critical_watermark:
            self.stats.counter("priority_flips").value += 1
            evict_lat = eviction_ns
        else:
            evict_lat = 0.0
        spans = (
            (STAGE_ML2_READ, start_ns, first_read, True, False, 0.0),
            (STAGE_DECOMPRESS, decompress_at, decompress_ns, True, False,
             0.0),
            (STAGE_MIGRATION_STALL, stall_at, stall_ns, True, False, 0.0),
            (STAGE_EVICT, evict_at, evict_lat, True, False, 0.0),
        )
        total += evict_lat
        if self.resilience.enabled:
            emergency_at = start_ns + total
            emergency_ns = self._emergency_evict(emergency_at)
            spans += ((STAGE_EMERGENCY_EVICT, emergency_at, emergency_ns,
                       True, False, 0.0),)
            total += emergency_ns
        return spans, total

    def _emergency_evict(self, start_ns: float) -> float:
        """Capacity-pressure watchdog (resilience-enabled runs only).

        When the ordinary eviction pump leaves the ML1 free list empty --
        e.g. under an injected free-space-exhaustion fault -- the pump
        wedged state that used to persist silently is converted into a
        modeled emergency migration: force one eviction in the demand
        access's foreground and account it under ``resilience.*``.
        """
        if self.ml1_free.count > 0:
            return 0.0
        resilience = self.resilience
        resilience.count("emergency_evictions")
        foreground_ns = self._maybe_evict(start_ns, force_one=True)
        if self.ml1_free.count == 0:
            # Even the emergency pass found nothing to evict (everything
            # pinned/incompressible): the controller keeps serving from
            # ML2 (decompress-on-access) instead of raising.
            resilience.count("emergency_eviction_starved")
        return foreground_ns

    def _migrate_to_ml1(self, ppn: int, cte: PageCTE, now_ns: float) -> None:
        chunk = self.ml1_free.pop()
        if chunk is None:
            self._maybe_evict(now_ns, force_one=True)
            chunk = self.ml1_free.pop()
            if chunk is None:
                # Truly wedged: leave the page in ML2 (decompress-on-access).
                self.stats.counter("migration_failed").increment()
                return
        subchunk = self._subchunk.pop(ppn, None)
        if subchunk is not None:
            self.ml2_free.free(subchunk, self.ml1_free)
        self._dram_page[ppn] = chunk
        cte.dram_page = chunk
        cte.dram_offset = 0
        cte.in_ml2 = False
        cte.compressed_size = 0
        self.dram.stream(chunk * PAGE_SIZE, 64, now_ns, is_write=True)
        self.recency.push_hot(ppn)
        self.stats.counter("ml2_to_ml1_migrations").increment()
        probe = self._probe
        if probe is not None and probe.bus.active:
            probe.emit("migration", now_ns, direction="ml2_to_ml1", ppn=ppn)

    # ------------------------------------------------------------------
    # Eviction pump (ML1 -> ML2)
    # ------------------------------------------------------------------

    def _maybe_evict(self, now_ns: float, force_one: bool = False) -> float:
        """Run the eviction pump; returns the compression time spent.

        The return value is the foreground cost a caller pays when the
        Section VI priority flip is in effect (free list below the
        critical watermark); under normal priority it is ignored.
        """
        target = self.config.ml1_low_watermark
        foreground_ns = 0.0
        evicted = 0
        guard = 0
        while (self.ml1_free.count < target or (force_one and evicted == 0)):
            guard += 1
            if guard > 128:
                break
            victim = self.recency.evict_coldest()
            if victim is None:
                self.stats.counter("eviction_starved").increment()
                break
            cte = self._cte.get(victim)
            if cte is None or cte.in_ml2 or victim in self._pinned:
                continue
            record = self._model.record_for(victim)
            resilience = self.resilience
            forced_incompressible = False
            if resilience.enabled and resilience.incompressible_burst > 0:
                # Injected burst: the victim's fresh contents no longer
                # compress (e.g. newly encrypted pages).
                resilience.incompressible_burst -= 1
                resilience.count("incompressible_forced")
                forced_incompressible = True
            if record.deflate_incompressible or forced_incompressible:
                # Retain in ML1, off the recency list (Section IV-B).
                cte.is_incompressible = True
                self.stats.counter("incompressible_retained").increment()
                if forced_incompressible:
                    resilience.count("overflow_uncompressed")
                continue
            old_chunk = self._dram_page[victim]
            self.ml1_free.push(old_chunk)
            if not self._place_in_ml2(victim, record):
                # Could not carve a sub-chunk; undo the free-list push.
                popped = self.ml1_free.pop()
                self._dram_page[victim] = popped
                self._cte[victim] = PageCTE(dram_page=popped, in_ml2=False)
                self.stats.counter("eviction_failed").increment()
                if resilience.enabled:
                    # Overflow-to-uncompressed: the victim stays resident
                    # uncompressed (off the recency list, like Compresso's
                    # overflow region) and the pump keeps draining other
                    # candidates instead of giving up mid-pressure.
                    self._cte[victim].is_incompressible = True
                    resilience.count("overflow_uncompressed")
                    continue
                self.recency.push_hot(victim)
                break
            # Compressed page streams out in the background.
            compressed_blocks = -(-record.deflate_bytes // BLOCK_SIZE)
            self.dram.stream(self._dram_page[victim] * PAGE_SIZE,
                             compressed_blocks, now_ns, is_write=True)
            self.migration.acquire(now_ns, self._compress_ns(record))
            foreground_ns += self._compress_ns(record)
            self.cte_cache.invalidate_page(victim)
            self.stats.counter("ml1_to_ml2_evictions").increment()
            probe = self._probe
            if probe is not None and probe.bus.active:
                probe.emit("migration", now_ns, direction="ml1_to_ml2",
                           ppn=victim)
            evicted += 1
        return foreground_ns

    # ------------------------------------------------------------------
    # Writebacks
    # ------------------------------------------------------------------

    def serve_writeback(self, ppn: int, block_index: int, now_ns: float) -> None:
        self.dram.write(self._data_address(ppn, block_index), now_ns)
        self.stats.counter("writebacks").increment()
        cte = self._cte.get(ppn)
        if cte is not None and cte.is_incompressible and not cte.in_ml2:
            # Writebacks may change compressibility; 1% re-add (Section IV-B).
            if self.recency.maybe_readd_after_writeback(ppn):
                cte.is_incompressible = False

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        summary = super().describe()
        summary.update({
            "ml1_pages": self.ml1_page_count,
            "ml2_pages": self.ml2_page_count,
            "budget_chunks": self._budget_chunks,
            "ml1_free_chunks": self.ml1_free.count,
            "cte_cache_bytes": self.cte_cache.size_bytes,
            "ml1_low_watermark": self.config.ml1_low_watermark,
            "ml1_critical_watermark": self.config.ml1_critical_watermark,
        })
        return summary

    def dram_used_bytes(self) -> int:
        """Chunks in use (ML1 pages + ML2 super-chunks) + metadata."""
        used_chunks = self._budget_chunks - self.ml1_free.count
        metadata = self._total_pages * CTE_SIZE_PAGE + self.recency.overhead_bytes()
        return used_chunks * PAGE_SIZE + metadata

    @property
    def ml2_page_count(self) -> int:
        return sum(1 for cte in self._cte.values() if cte.in_ml2)

    @property
    def ml1_page_count(self) -> int:
        return sum(1 for cte in self._cte.values() if not cte.in_ml2)

    @property
    def cte_hit_rate(self) -> float:
        return self.cte_cache.stats.hit_rate

    def ml2_access_rate(self) -> float:
        """ML2 accesses per LLC miss (Figure 21's metric)."""
        misses = self.stats.count_of("l3_misses")
        if not misses:
            return 0.0
        return self.stats.count_of("ml2_accesses") / misses
