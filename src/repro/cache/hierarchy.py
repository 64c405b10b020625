"""The three-level cache hierarchy of Table III.

Structure: 64 KB L1 (data+instruction modeled as one), 256 KB inclusive L2,
8 MB exclusive L3, with L1/L2 next-line + stride prefetchers.  Latencies
are Table III's: L1 3 cycles, L2 +11, L3 +50.

The hierarchy serves *block* requests and reports whether DRAM must be
involved (``l3_miss``); the memory controller owns everything below.  Dirty
L3 victims surface as ``dram_writebacks`` so the controller can model write
traffic and compressed-page bookkeeping.

Storage is columnar (``sa_cache.SetAssociativeCache``): the one access
path (``access_fast``/``access_fast_miss``) and its fill helpers write
the flat tag/flag columns and per-set recency order lists directly -- no
:class:`CacheLine` objects move between levels; ``access`` reports the
same transitions as an :class:`AccessResult`.  Any change to the fill
semantics must be mirrored in ``ReferenceSetAssociativeCache`` (the
readable spec) and stays pinned by the differential property tests and
the frozen goldens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cache.prefetch import NextLinePrefetcher, StridePrefetcher
from repro.cache.sa_cache import CacheLine, SetAssociativeCache
from repro.common.units import KIB, MIB


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


@dataclass(slots=True)
class AccessResult:
    """What one block access did."""

    hit_level: str  # "l1" | "l2" | "l3" | "memory"
    latency_cycles: int
    l3_miss: bool
    dram_writebacks: List[int] = field(default_factory=list)
    served_compressed: bool = False

    @property
    def hit(self) -> bool:
        return self.hit_level != "memory"


#: ``access_fast`` hit levels as ``AccessResult.hit_level`` names.
_HIT_LEVELS = ("l1", "l2", "l3", "memory")


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
        #: Cycles to reach each hit level (L1, L2, L3, memory).
        l2_cycles = config.l1_latency + config.l2_latency
        self._latency_cycles = (config.l1_latency, l2_cycles,
                                l2_cycles + config.l3_latency,
                                l2_cycles + config.l3_latency)

    # ------------------------------------------------------------------
    # Main access path
    # ------------------------------------------------------------------

    def access(self, address: int, is_write: bool = False,
               is_ptb: bool = False) -> AccessResult:
        """Serve one demand access; returns where it hit and at what cost.

        The observed view of :meth:`access_fast`: same cache, prefetcher
        and stat transitions, reported as an :class:`AccessResult`.
        """
        block = address >> 6
        writebacks: List[int] = []
        level = self.access_fast(block, is_write, is_ptb, writebacks)
        # Every outcome leaves the block in L1 carrying the compressed
        # bit of the copy that served it.
        l1 = self.l1
        return AccessResult(_HIT_LEVELS[level], self._latency_cycles[level],
                            level == 3, writebacks,
                            bool(l1._compressed[l1._index[block]]))

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
        slot = l1._index.get(block)
        stats = l1.stats
        stats.total += 1
        if slot is not None:
            stats.hits += 1
            order = l1._orders[block & (l1.num_sets - 1)]
            if order[-1] != slot:
                order.remove(slot)
                order.append(slot)
            if is_write:
                l1._dirty[slot] = 1
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
                    slot = l3._index.pop(target, None)
                    if slot is not None:
                        set_index = target & (l3.num_sets - 1)
                        l3._orders[set_index].remove(slot)
                        l3._free[set_index].append(slot)
                        l3._tags[slot] = -1
                        self._fill_l2(target, l3._dirty[slot],
                                      l3._compressed[slot], l3._is_ptb[slot],
                                      writebacks)
                    else:
                        self._fill_l2(target, dirty=False, compressed=False,
                                      is_ptb=False, writebacks=writebacks)
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
        slot = l2._index.get(block)
        stats = l2.stats
        stats.total += 1
        if slot is not None:
            stats.hits += 1
            order = l2._orders[block & (l2.num_sets - 1)]
            if order[-1] != slot:
                order.remove(slot)
                order.append(slot)
            self._fill_l1(block, is_write, l2._compressed[slot],
                          l2._is_ptb[slot], writebacks)
            return 1

        if self._prefetch_on:
            candidates = self._stride_l2.on_access(block)
            if candidates:
                self._issue_prefetches(candidates, writebacks)

        l3 = self.l3
        slot = l3._index.pop(block, None)
        stats = l3.stats
        stats.total += 1
        if slot is not None:
            stats.hits += 1
            # lookup-then-invalidate collapses to one removal: the
            # lookup's recency bump is dead state on a leaving line.
            set_index = block & (l3.num_sets - 1)
            l3._orders[set_index].remove(slot)
            l3._free[set_index].append(slot)
            l3._tags[slot] = -1
            moved_dirty = l3._dirty[slot]
            moved_compressed = l3._compressed[slot]
            moved_ptb = l3._is_ptb[slot]
            self._fill_l2(block, moved_dirty, moved_compressed, moved_ptb,
                          writebacks)
            self._fill_l1(block, is_write, moved_compressed, moved_ptb,
                          writebacks)
            return 2

        self._fill_l2(block, dirty=False, compressed=False, is_ptb=is_ptb,
                      writebacks=writebacks)
        self._fill_l1(block, is_write, compressed=False, is_ptb=is_ptb,
                      writebacks=writebacks)
        return 3

    # ------------------------------------------------------------------
    # Fill helpers (inclusive L2, exclusive L3)
    # ------------------------------------------------------------------

    # The fill helpers write the columnar state directly: they sit under
    # every L1 miss of the replay loop, and both the object graph and the
    # call layers of the original per-line implementation dominated the
    # hierarchy's profile.  Any change to the fill semantics must be
    # mirrored in ``ReferenceSetAssociativeCache`` (``sa_cache.py``).

    def _fill_l1(self, block: int, is_write: bool, compressed, is_ptb,
                 writebacks: List[int]) -> None:
        l1 = self.l1
        index = l1._index
        slot = index.get(block)
        if slot is not None:  # refresh in place
            order = l1._orders[block & (l1.num_sets - 1)]
            if order[-1] != slot:
                order.remove(slot)
                order.append(slot)
            if is_write:
                l1._dirty[slot] = 1
            l1._compressed[slot] = 1 if compressed else 0
            if is_ptb:
                l1._is_ptb[slot] = 1
            return
        set_index = block & (l1.num_sets - 1)
        order = l1._orders[set_index]
        victim_block = -1
        if len(order) >= l1.associativity:
            slot = order.pop(0)
            victim_dirty = l1._dirty[slot]
            if victim_dirty:
                victim_block = l1._tags[slot]
                victim_compressed = l1._compressed[slot]
                victim_ptb = l1._is_ptb[slot]
                del index[victim_block]
            else:
                del index[l1._tags[slot]]
        else:
            slot = l1._free[set_index].pop()
        try:
            l1._tags[slot] = block
        except OverflowError:  # beyond int64: demote via the slow helper
            l1._store_tag(slot, block)
        l1._dirty[slot] = 1 if is_write else 0
        l1._compressed[slot] = 1 if compressed else 0
        l1._is_ptb[slot] = 1 if is_ptb else 0
        index[block] = slot
        order.append(slot)
        if victim_block >= 0:
            # Inclusive L2 holds the line; merge the dirty data down.
            l2 = self.l2
            l2_slot = l2._index.get(victim_block)
            if l2_slot is not None:
                l2._dirty[l2_slot] = 1
            else:
                # L2 already evicted it (rare ordering); send to L3.
                self._victim_to_l3(victim_block, True, victim_compressed,
                                   victim_ptb, writebacks)

    def _fill_l2(self, block: int, dirty, compressed, is_ptb,
                 writebacks: List[int]) -> None:
        l2 = self.l2
        index = l2._index
        slot = index.get(block)
        if slot is not None:  # refresh in place
            order = l2._orders[block & (l2.num_sets - 1)]
            if order[-1] != slot:
                order.remove(slot)
                order.append(slot)
            if dirty:
                l2._dirty[slot] = 1
            l2._compressed[slot] = 1 if compressed else 0
            if is_ptb:
                l2._is_ptb[slot] = 1
            return
        set_index = block & (l2.num_sets - 1)
        order = l2._orders[set_index]
        victim_block = -1
        if len(order) >= l2.associativity:
            slot = order.pop(0)
            victim_block = l2._tags[slot]
            victim_dirty = l2._dirty[slot]
            victim_compressed = l2._compressed[slot]
            victim_ptb = l2._is_ptb[slot]
            del index[victim_block]
        else:
            slot = l2._free[set_index].pop()
        try:
            l2._tags[slot] = block
        except OverflowError:  # beyond int64: demote via the slow helper
            l2._store_tag(slot, block)
        l2._dirty[slot] = 1 if dirty else 0
        l2._compressed[slot] = 1 if compressed else 0
        l2._is_ptb[slot] = 1 if is_ptb else 0
        index[block] = slot
        order.append(slot)
        if victim_block >= 0:
            # Inclusive: purge the L1 copy; its dirtiness rides along.
            l1 = self.l1
            l1_slot = l1._index.pop(victim_block, None)
            if l1_slot is not None:
                l1_set = victim_block & (l1.num_sets - 1)
                l1._orders[l1_set].remove(l1_slot)
                l1._free[l1_set].append(l1_slot)
                l1._tags[l1_slot] = -1
                if l1._dirty[l1_slot]:
                    victim_dirty = True
            self._victim_to_l3(victim_block, victim_dirty, victim_compressed,
                               victim_ptb, writebacks)

    def _victim_to_l3(self, block: int, dirty, compressed, is_ptb,
                      writebacks: List[int]) -> None:
        l3 = self.l3
        index = l3._index
        slot = index.get(block)
        if slot is not None:  # refresh in place
            order = l3._orders[block & (l3.num_sets - 1)]
            if order[-1] != slot:
                order.remove(slot)
                order.append(slot)
            if dirty:
                l3._dirty[slot] = 1
            l3._compressed[slot] = 1 if compressed else 0
            if is_ptb:
                l3._is_ptb[slot] = 1
            return
        set_index = block & (l3.num_sets - 1)
        order = l3._orders[set_index]
        if len(order) >= l3.associativity:
            slot = order.pop(0)
            if l3._dirty[slot]:
                writebacks.append(l3._tags[slot])
            del index[l3._tags[slot]]
        else:
            slot = l3._free[set_index].pop()
        try:
            l3._tags[slot] = block
        except OverflowError:  # beyond int64: demote via the slow helper
            l3._store_tag(slot, block)
        l3._dirty[slot] = 1 if dirty else 0
        l3._compressed[slot] = 1 if compressed else 0
        l3._is_ptb[slot] = 1 if is_ptb else 0
        index[block] = slot
        order.append(slot)

    # ------------------------------------------------------------------
    # Prefetch
    # ------------------------------------------------------------------

    def _issue_prefetches(self, blocks: List[int], writebacks: List[int]) -> None:
        """Install prefetched blocks into L2 (no latency is charged)."""
        if not blocks:
            return
        l1, l2, l3 = self.l1, self.l2, self.l3
        l1_index = l1._index
        l2_index = l2._index
        l3_index = l3._index
        for block in blocks:
            if block in l1_index or block in l2_index:
                continue
            # contains + invalidate collapse to one removal.
            slot = l3_index.pop(block, None)
            if slot is not None:
                set_index = block & (l3.num_sets - 1)
                l3._orders[set_index].remove(slot)
                l3._free[set_index].append(slot)
                l3._tags[slot] = -1
                self._fill_l2(block, l3._dirty[slot], l3._compressed[slot],
                              l3._is_ptb[slot], writebacks)
            else:
                self._fill_l2(block, dirty=False, compressed=False,
                              is_ptb=False, writebacks=writebacks)

    # ------------------------------------------------------------------
    # Introspection for the compression controllers
    # ------------------------------------------------------------------

    def resident_line(self, address: int) -> Optional[CacheLine]:
        """The L1/L2/L3 line holding ``address``, if any (no side effects)."""
        block = address >> 6
        return self.l1.peek(block) or self.l2.peek(block) or self.l3.peek(block)

    def mark_compressed(self, address: int, compressed: bool = True) -> None:
        """Set the compressed-PTB data bit on whichever copies exist."""
        block = address >> 6
        flag = 1 if compressed else 0
        for cache in (self.l1, self.l2, self.l3):
            slot = cache._index.get(block)
            if slot is not None:
                cache._compressed[slot] = flag

    def invalidate_everywhere(self, address: int) -> None:
        block = address >> 6
        for cache in (self.l1, self.l2, self.l3):
            cache.invalidate(block)
