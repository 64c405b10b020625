"""TLB and page-walk caches.

The simulated system follows Table III: a single-level TLB enlarged to 2048
entries (matching the total reach of AMD Zen 3's two-level TLB, which keeps
simulated TLB hit rates honest against real machines) plus a 1 KB per-core
page-walk cache modeled after [23].

Both stores are columnar: an :class:`repro.common.lru.IntLRU` (flat
parallel key/prev/next columns, O(1) exact LRU) replaces the
``OrderedDict`` per structure.  The original ``OrderedDict`` TLB lives on
as the readable spec and differential-test oracle in
``tests/oracles/tlb.py``.
"""

from __future__ import annotations

from typing import Dict

from repro.common.lru import IntLRU
from repro.common.stats import RatioStat


class TLB:
    """Fully-associative LRU TLB.

    Keys are translation tags: the vpn for 4 KB pages, or the 2 MiB-aligned
    vpn for huge pages (the caller picks, mirroring a unified TLB whose
    entries carry a page-size bit).
    """

    def __init__(self, entries: int = 2048, name: str = "tlb") -> None:
        if entries <= 0:
            raise ValueError("TLB needs at least one entry")
        self.entries = entries
        self._lru = IntLRU()  # tag -> ppn
        self.stats = RatioStat(name)

    def lookup(self, tag: int) -> bool:
        """Probe the TLB; records the hit/miss and updates recency."""
        hit = tag in self._lru
        self.stats.record(hit)
        if hit:
            self._lru.move_to_end(tag)
        return hit

    def contains(self, tag: int) -> bool:
        """Probe without recording a stat or touching recency."""
        return tag in self._lru

    def fill(self, tag: int, ppn: int = 0) -> None:
        """Install a translation, evicting the LRU entry if full."""
        lru = self._lru
        if tag in lru:
            lru.move_to_end(tag)
            lru._val[lru._slot[tag]] = ppn
            return
        if len(lru) >= self.entries:
            lru.pop_lru()
        lru.insert_mru(tag, ppn)

    def invalidate(self, tag: int) -> None:
        self._lru.discard(tag)

    def flush(self) -> None:
        self._lru.clear()

    @property
    def occupancy(self) -> int:
        return len(self._lru)


class PageWalkCache:
    """Per-core cache of upper-level page-table entries.

    One LRU per non-leaf level; a hit at level *L* lets the walker skip
    fetching the PTBs at levels 4..L and start at level *L - 1*.  Sizes
    default to a 1 KB budget split like [23] (each entry is ~8 B).
    """

    def __init__(self, l4_entries: int = 32, l3_entries: int = 32,
                 l2_entries: int = 64) -> None:
        self._caches: Dict[int, IntLRU] = {
            4: IntLRU(),
            3: IntLRU(),
            2: IntLRU(),
        }
        self._capacity = {4: l4_entries, 3: l3_entries, 2: l2_entries}
        self.stats = RatioStat("pwc")

    @staticmethod
    def _tag(vpn: int, level: int) -> int:
        """Address bits that index the page table down to ``level``."""
        return vpn >> (9 * (level - 1))

    # ``first_fetch_level`` and ``fill`` run once per TLB miss; the level
    # loop and ``_tag`` calls are unrolled (levels 2/3/4 shift by 9/18/27).

    def first_fetch_level(self, vpn: int) -> int:
        """Deepest level whose pointer is cached; walk starts below it.

        Returns the level of the first PTB the walker must *fetch from
        memory*: 1 when the L2 entry is cached (only the leaf PTB is
        fetched), up to 4 for a cold walk.
        """
        stats = self.stats
        stats.total += 1
        caches = self._caches
        cache = caches[2]
        tag = vpn >> 9
        if tag in cache._slot:
            cache.move_to_end(tag)
            stats.hits += 1
            return 1
        cache = caches[3]
        tag = vpn >> 18
        if tag in cache._slot:
            cache.move_to_end(tag)
            stats.hits += 1
            return 2
        cache = caches[4]
        tag = vpn >> 27
        if tag in cache._slot:
            cache.move_to_end(tag)
            stats.hits += 1
            return 3
        return 4

    def fill(self, vpn: int) -> None:
        """Install the walk's upper-level pointers after it completes."""
        caches = self._caches
        capacity = self._capacity
        for level, tag in ((4, vpn >> 27), (3, vpn >> 18), (2, vpn >> 9)):
            cache = caches[level]
            if tag in cache._slot:
                cache.move_to_end(tag)
                continue
            if len(cache._slot) >= capacity[level]:
                cache.pop_lru()
            cache.insert_mru(tag)

    def flush(self) -> None:
        for cache in self._caches.values():
            cache.clear()
