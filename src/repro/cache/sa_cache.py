"""A set-associative, write-back, LRU cache.

Lines carry two metadata bits beyond dirty: ``compressed`` (the new data
bit TMCC adds to every L2/L3 line to mark compressed-PTB encoding,
Section V-A4) and ``is_ptb`` (whether the line was brought in by the page
walker -- hardware knows this from the requester ID).

Storage is keyed by block: ``_index`` maps every resident block to its
line flags packed in one int (:data:`DIRTY`, :data:`COMPRESSED`,
:data:`IS_PTB`), and ``_orders[set]`` lists that set's resident blocks,
LRU first.  The hierarchy's fill path and the fast replay loop's L1
probe read and write these two structures directly; the public
``lookup``/``peek``/``fill``/``invalidate``/``flush`` API reports lines
as detached :class:`CacheLine` views.  The differential property tests
(``tests/cache/test_sa_cache_differential.py``) check this store
against a readable per-line reference model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.common.stats import RatioStat
from repro.common.units import BLOCK_SIZE

#: Line flag bits, packed into the int ``_index`` maps each block to.
DIRTY = 1
COMPRESSED = 2
IS_PTB = 4


@dataclass(slots=True)
class CacheLine:
    """Metadata of one resident block."""

    block: int  # block number (address >> 6)
    dirty: bool = False
    compressed: bool = False
    is_ptb: bool = False


def _line(block: int, flags: int) -> CacheLine:
    return CacheLine(block, dirty=bool(flags & DIRTY),
                     compressed=bool(flags & COMPRESSED),
                     is_ptb=bool(flags & IS_PTB))


class SetAssociativeCache:
    """LRU set-associative cache over 64 B blocks."""

    def __init__(self, size_bytes: int, associativity: int, name: str = "cache") -> None:
        if size_bytes % (BLOCK_SIZE * associativity):
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by "
                f"{BLOCK_SIZE} x associativity {associativity}"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.num_sets = size_bytes // (BLOCK_SIZE * associativity)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: number of sets must be a power of two")
        #: ``block & set_mask`` is the block's set.
        self.set_mask = self.num_sets - 1
        #: block -> packed line flags for every resident block.
        self._index: dict = {}
        #: Per-set recency order: resident blocks, LRU first, MRU last.
        self._orders: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.stats = RatioStat(name)

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------

    def lookup(self, block: int, is_write: bool = False) -> Optional[CacheLine]:
        """Probe; on hit, updates recency (and dirty for writes)."""
        flags = self._index.get(block)
        self.stats.record(flags is not None)
        if flags is None:
            return None
        order = self._orders[block & self.set_mask]
        if order[-1] != block:
            order.remove(block)
            order.append(block)
        if is_write:
            flags |= DIRTY
            self._index[block] = flags
        return _line(block, flags)

    def peek(self, block: int) -> Optional[CacheLine]:
        """Probe without side effects (no stats, no recency update)."""
        flags = self._index.get(block)
        return None if flags is None else _line(block, flags)

    def contains(self, block: int) -> bool:
        return block in self._index

    # ------------------------------------------------------------------
    # Fills and evictions
    # ------------------------------------------------------------------

    def fill(self, block: int, dirty: bool = False, compressed: bool = False,
             is_ptb: bool = False) -> Optional[CacheLine]:
        """Insert a block; returns the evicted line, if any.

        Refilling a resident block refreshes its recency, ORs in dirty
        and is_ptb, and replaces the compressed bit.
        """
        flags = ((DIRTY if dirty else 0) | (COMPRESSED if compressed else 0)
                 | (IS_PTB if is_ptb else 0))
        index = self._index
        order = self._orders[block & self.set_mask]
        old = index.get(block)
        if old is not None:
            if order[-1] != block:
                order.remove(block)
                order.append(block)
            index[block] = (old & ~COMPRESSED) | flags
            return None
        victim: Optional[CacheLine] = None
        if len(order) >= self.associativity:
            evicted = order.pop(0)
            victim = _line(evicted, index.pop(evicted))
        index[block] = flags
        order.append(block)
        return victim

    def invalidate(self, block: int) -> Optional[CacheLine]:
        """Remove a block (used for inclusive/exclusive maintenance)."""
        flags = self._index.pop(block, None)
        if flags is None:
            return None
        self._orders[block & self.set_mask].remove(block)
        return _line(block, flags)

    def flush(self) -> List[CacheLine]:
        """Drop everything; returns the dirty lines that would write back."""
        index = self._index
        dirty_lines = [_line(block, index[block])
                       for order in self._orders for block in order
                       if index[block] & DIRTY]
        for order in self._orders:
            order.clear()
        index.clear()
        return dirty_lines

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return len(self._index)

    def blocks(self) -> Iterator[int]:
        """All resident block numbers (no recency effect, any order)."""
        return iter(self._index)
