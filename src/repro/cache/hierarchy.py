"""The three-level cache hierarchy of Table III.

Structure: 64 KB L1 (data+instruction modeled as one), 256 KB inclusive L2,
8 MB exclusive L3, with L1/L2 next-line + stride prefetchers.  Latencies
are Table III's: L1 3 cycles, L2 +11, L3 +50.

The hierarchy serves *block* requests and reports the level that hit
(3: memory, an LLC miss); the memory controller owns everything below.
Dirty L3 victims are appended to a caller-owned writeback list so the
controller can model write traffic and compressed-page bookkeeping.

There is one access path (``access_fast``/``access_fast_miss``); its fill
helpers work on each level's block-keyed store (``sa_cache``) directly,
moving a line between levels as its packed flag int -- no
:class:`~repro.cache.sa_cache.CacheLine` objects are built.  The frozen
hierarchy goldens (``tests/cache/goldens``) pin the fill semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cache.prefetch import NextLinePrefetcher, StridePrefetcher
from repro.cache.sa_cache import COMPRESSED, DIRTY, IS_PTB, SetAssociativeCache
from repro.common.units import KIB, MIB

#: Flags an L1 fill inherits from the copy that serves it; dirty comes
#: from the request instead.
_INHERITED = COMPRESSED | IS_PTB


@dataclass(frozen=True)
class HierarchyConfig:
    """Sizes/latencies per Table III."""

    l1_size: int = 64 * KIB
    l1_assoc: int = 8
    l2_size: int = 256 * KIB
    l2_assoc: int = 8
    l3_size: int = 8 * MIB
    l3_assoc: int = 16
    l1_latency: int = 3
    l2_latency: int = 11  # additional cycles
    l3_latency: int = 50  # additional cycles
    enable_prefetch: bool = True
    l1_stride_degree: int = 2
    l2_stride_degree: int = 4


class CacheHierarchy:
    """L1 + inclusive L2 + exclusive L3 with prefetch.

    ``shared_l3`` lets several per-core hierarchies sit in front of one
    LLC, the Table III multi-core organization (private L1/L2 per core,
    one shared exclusive L3).
    """

    def __init__(self, config: HierarchyConfig = HierarchyConfig(),
                 shared_l3: Optional[SetAssociativeCache] = None) -> None:
        self.config = config
        self.l1 = SetAssociativeCache(config.l1_size, config.l1_assoc, "l1")
        self.l2 = SetAssociativeCache(config.l2_size, config.l2_assoc, "l2")
        self.l3 = shared_l3 if shared_l3 is not None else SetAssociativeCache(
            config.l3_size, config.l3_assoc, "l3")
        self._next_line = NextLinePrefetcher()
        self._stride_l1 = StridePrefetcher(degree=config.l1_stride_degree)
        self._stride_l2 = StridePrefetcher(degree=config.l2_stride_degree)
        #: ``config.enable_prefetch`` is fixed at construction; the fast
        #: path reads this attribute to skip the dataclass field load.
        self._prefetch_on = config.enable_prefetch

    # ------------------------------------------------------------------
    # Main access path
    # ------------------------------------------------------------------

    def access_fast(self, block: int, is_write: bool, is_ptb: bool,
                    writebacks: List[int]) -> int:
        """Serve one demand access to ``block``; returns the hit level
        (0=L1, 1=L2, 2=L3, 3=memory).

        Dirty L3 victims are appended to the caller-owned ``writebacks``
        list.  The L1 probe trains the next-line prefetcher (a demand
        hit on an outstanding prefetch credits it); L1 misses continue
        in :meth:`access_fast_miss`.
        """
        if self._prefetch_on:
            outstanding = self._next_line._outstanding
            if block in outstanding:
                outstanding[block] = True

        l1 = self.l1
        index = l1._index
        stats = l1.stats
        stats.total += 1
        if block in index:
            stats.hits += 1
            order = l1._orders[block & l1.set_mask]
            if order[-1] != block:
                order.remove(block)
                order.append(block)
            if is_write:
                index[block] |= DIRTY
            return 0
        return self.access_fast_miss(block, is_write, is_ptb, writebacks)

    def access_fast_miss(self, block: int, is_write: bool, is_ptb: bool,
                         writebacks: List[int]) -> int:
        """L1-miss continuation of :meth:`access_fast`.

        Split out so the fast replay loop can inline the (hot, trivial)
        next-line training + L1 probe and only pay a call on a miss.
        """
        if self._prefetch_on:
            # NextLinePrefetcher.on_miss + the single-block issue are
            # inlined (retire may flip ``_enabled``, so it runs first);
            # the L1 stride prefetcher trains after it.
            nl = self._next_line
            outstanding = nl._outstanding
            if len(outstanding) > nl.window:
                nl._retire_oldest_if_full()
            if nl._enabled:
                target = block + 1
                outstanding[target] = False
                if (target not in self.l1._index
                        and target not in self.l2._index):
                    l3 = self.l3
                    flags = l3._index.pop(target, None)
                    if flags is not None:
                        l3._orders[target & l3.set_mask].remove(target)
                        self._fill_l2(target, flags, writebacks)
                    else:
                        self._fill_l2(target, 0, writebacks)
            else:
                nl._cooloff += 1
                if nl._cooloff >= nl.window:
                    nl._enabled = True
                    nl._cooloff = 0
                    nl._recent_results.clear()
            candidates = self._stride_l1.on_access(block)
            if candidates:
                self._issue_prefetches(candidates, writebacks)

        l2 = self.l2
        flags = l2._index.get(block)
        stats = l2.stats
        stats.total += 1
        if flags is not None:
            stats.hits += 1
            order = l2._orders[block & l2.set_mask]
            if order[-1] != block:
                order.remove(block)
                order.append(block)
            self._fill_l1(block, (flags & _INHERITED) | is_write, writebacks)
            return 1

        if self._prefetch_on:
            candidates = self._stride_l2.on_access(block)
            if candidates:
                self._issue_prefetches(candidates, writebacks)

        l3 = self.l3
        flags = l3._index.pop(block, None)
        stats = l3.stats
        stats.total += 1
        if flags is not None:
            stats.hits += 1
            # lookup-then-invalidate collapses to one removal: the
            # lookup's recency bump is dead state on a leaving line.
            l3._orders[block & l3.set_mask].remove(block)
            self._fill_l2(block, flags, writebacks)
            self._fill_l1(block, (flags & _INHERITED) | is_write, writebacks)
            return 2

        flags = IS_PTB if is_ptb else 0
        self._fill_l2(block, flags, writebacks)
        self._fill_l1(block, flags | is_write, writebacks)
        return 3

    # ------------------------------------------------------------------
    # Fill helpers (inclusive L2, exclusive L3)
    # ------------------------------------------------------------------

    # ``_fill_l1``/``_fill_l2`` install a block their level does not
    # hold: every caller has just missed in that level or checked its
    # membership.  ``flags`` is the new line's packed flag int.

    def _fill_l1(self, block: int, flags: int, writebacks: List[int]) -> None:
        l1 = self.l1
        index = l1._index
        order = l1._orders[block & l1.set_mask]
        if len(order) >= l1.associativity:
            victim = order.pop(0)
            victim_flags = index.pop(victim)
            if victim_flags & DIRTY:
                # Inclusive L2 holds the line; merge the dirty data down.
                l2_index = self.l2._index
                if victim in l2_index:
                    l2_index[victim] |= DIRTY
                else:
                    # L2 already evicted it (rare ordering); send to L3.
                    self._victim_to_l3(victim, victim_flags, writebacks)
        index[block] = flags
        order.append(block)

    def _fill_l2(self, block: int, flags: int, writebacks: List[int]) -> None:
        l2 = self.l2
        index = l2._index
        order = l2._orders[block & l2.set_mask]
        if len(order) < l2.associativity:
            index[block] = flags
            order.append(block)
            return
        victim = order.pop(0)
        victim_flags = index.pop(victim)
        index[block] = flags
        order.append(block)
        # Inclusive: purge the L1 copy; its dirtiness rides along.
        l1 = self.l1
        l1_flags = l1._index.pop(victim, None)
        if l1_flags is not None:
            l1._orders[victim & l1.set_mask].remove(victim)
            victim_flags |= l1_flags & DIRTY
        self._victim_to_l3(victim, victim_flags, writebacks)

    def _victim_to_l3(self, block: int, flags: int,
                      writebacks: List[int]) -> None:
        l3 = self.l3
        index = l3._index
        order = l3._orders[block & l3.set_mask]
        old = index.get(block)
        if old is not None:
            # A shared L3 may already hold the victim: refresh in place,
            # keeping dirty and is_ptb, taking the new compressed bit.
            if order[-1] != block:
                order.remove(block)
                order.append(block)
            index[block] = (old & ~COMPRESSED) | flags
            return
        if len(order) >= l3.associativity:
            evicted = order.pop(0)
            if index.pop(evicted) & DIRTY:
                writebacks.append(evicted)
        index[block] = flags
        order.append(block)

    # ------------------------------------------------------------------
    # Prefetch
    # ------------------------------------------------------------------

    def _issue_prefetches(self, blocks: List[int], writebacks: List[int]) -> None:
        """Install prefetched blocks into L2 (no latency is charged)."""
        l1_index = self.l1._index
        l2_index = self.l2._index
        l3 = self.l3
        l3_index = l3._index
        for block in blocks:
            if block in l1_index or block in l2_index:
                continue
            # contains + invalidate collapse to one removal.
            flags = l3_index.pop(block, None)
            if flags is not None:
                l3._orders[block & l3.set_mask].remove(block)
                self._fill_l2(block, flags, writebacks)
            else:
                self._fill_l2(block, 0, writebacks)

    # ------------------------------------------------------------------
    # Compressed-PTB line bit
    # ------------------------------------------------------------------

    def mark_compressed(self, address: int, compressed: bool = True) -> None:
        """Set the compressed-PTB data bit on whichever copies exist."""
        block = address >> 6
        for cache in (self.l1, self.l2, self.l3):
            index = cache._index
            flags = index.get(block)
            if flags is not None:
                index[block] = (flags | COMPRESSED if compressed
                                else flags & ~COMPRESSED)
