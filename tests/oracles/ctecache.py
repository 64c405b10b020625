"""Reference model of the memory controller's CTE cache.

The readable spec of :class:`repro.mc.ctecache.CTECache`: one
``OrderedDict`` of CTE-block ids, LRU first.
``tests/mc/test_ctecache_differential.py`` drives both through identical
random operation sequences and demands identical hits, victims, stats and
occupancy.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.stats import RatioStat
from repro.common.units import BLOCK_SIZE, KIB


class ReferenceCTECache:
    """The original ``OrderedDict`` CTE cache (spec + oracle)."""

    def __init__(self, size_bytes: int = 64 * KIB, cte_size: int = 8,
                 name: str = "cte_cache") -> None:
        if cte_size <= 0 or BLOCK_SIZE % cte_size:
            raise ValueError(f"cte_size must divide {BLOCK_SIZE}, got {cte_size}")
        if size_bytes < BLOCK_SIZE:
            raise ValueError("cache smaller than one CTE block")
        self.size_bytes = size_bytes
        self.cte_size = cte_size
        self.pages_per_block = BLOCK_SIZE // cte_size
        self.capacity_blocks = size_bytes // BLOCK_SIZE
        self._lru: "OrderedDict[int, bool]" = OrderedDict()
        self.stats = RatioStat(name)

    @property
    def reach_pages(self) -> int:
        return self.capacity_blocks * self.pages_per_block

    def _block_of(self, ppn: int) -> int:
        return ppn // self.pages_per_block

    def lookup(self, ppn: int) -> bool:
        block = self._block_of(ppn)
        hit = block in self._lru
        self.stats.record(hit)
        if hit:
            self._lru.move_to_end(block)
        return hit

    def contains(self, ppn: int) -> bool:
        return self._block_of(ppn) in self._lru

    def fill(self, ppn: int) -> "int | None":
        lru = self._lru
        block = ppn // self.pages_per_block
        if block in lru:
            lru.move_to_end(block)
            return None
        victim = None
        if len(lru) >= self.capacity_blocks:
            victim, _ = lru.popitem(last=False)
        lru[block] = True
        return victim

    def invalidate_page(self, ppn: int) -> None:
        self._lru.pop(self._block_of(ppn), None)

    def flush(self) -> None:
        self._lru.clear()

    @property
    def occupancy_blocks(self) -> int:
        return len(self._lru)
