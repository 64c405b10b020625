"""A set-associative, write-back, LRU cache.

Lines carry two metadata bits beyond dirty: ``compressed`` (the new data
bit TMCC adds to every L2/L3 line to mark compressed-PTB encoding,
Section V-A4) and ``is_ptb`` (whether the line was brought in by the page
walker -- hardware knows this from the requester ID).

Two implementations share the API:

- :class:`SetAssociativeCache` -- the production store.  State is
  *columnar* (structure-of-arrays): one global ``block -> slot`` index,
  flat parallel ``tags``/``dirty``/``compressed``/``is_ptb`` columns
  indexed by slot (``slot = set * associativity + way``), and a per-set
  recency *order list* of slots (LRU first).  The fast replay loop
  reads the columns directly and batch-classifies whole trace chunks
  against the ``tags`` column (``docs/performance.md``).
- :class:`ReferenceSetAssociativeCache` -- the original
  per-entry-object implementation (``OrderedDict`` of
  :class:`CacheLine` per set), kept as the readable spec and as the
  oracle for the differential property tests in
  ``tests/cache/test_columnar_differential.py``.

The ``tags`` column is an ``array('q')`` so numpy can view it zero-copy;
a block number beyond int64 (never produced by the simulator, but the
API stays total) demotes the column to a plain list and disables the
numpy view for that cache.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.common.stats import RatioStat
from repro.common.units import BLOCK_SIZE


@dataclass(slots=True)
class CacheLine:
    """Metadata of one resident block."""

    block: int  # block number (address >> 6)
    dirty: bool = False
    compressed: bool = False
    is_ptb: bool = False


class SetAssociativeCache:
    """LRU set-associative cache over 64 B blocks, columnar storage."""

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
        slots = self.num_sets * associativity
        #: block -> slot for every resident block (the membership probe).
        self._index: dict = {}
        #: slot -> block; -1 marks an empty slot.  ``array('q')`` so the
        #: batched fast path can view it as an int64 matrix.
        self._tags = array("q", [-1]) * slots
        self._dirty = bytearray(slots)
        self._compressed = bytearray(slots)
        self._is_ptb = bytearray(slots)
        #: Per-set recency order: slot ids, LRU first, MRU last.
        self._orders: List[List[int]] = [[] for _ in range(self.num_sets)]
        #: Per-set free-slot stacks (lowest slot allocated first), cut
        #: from one descending list of every slot, last set first.
        descending = list(range(slots - 1, -1, -1))
        self._free: List[List[int]] = [
            descending[start : start + associativity]
            for start in range(slots - associativity, -1, -associativity)
        ]
        self.stats = RatioStat(name)

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------

    def lookup(self, block: int, is_write: bool = False) -> Optional[CacheLine]:
        """Probe; on hit, updates recency (and dirty for writes)."""
        slot = self._index.get(block)
        self.stats.record(slot is not None)
        if slot is None:
            return None
        order = self._orders[block & (self.num_sets - 1)]
        if order[-1] != slot:
            order.remove(slot)
            order.append(slot)
        if is_write:
            self._dirty[slot] = 1
        return self._line_at(slot)

    def peek(self, block: int) -> Optional[CacheLine]:
        """Probe without side effects (no stats, no recency update)."""
        slot = self._index.get(block)
        return None if slot is None else self._line_at(slot)

    def contains(self, block: int) -> bool:
        return block in self._index

    # ------------------------------------------------------------------
    # Fills and evictions
    # ------------------------------------------------------------------

    def fill(self, block: int, dirty: bool = False, compressed: bool = False,
             is_ptb: bool = False) -> Optional[CacheLine]:
        """Insert a block; returns the evicted line, if any."""
        index = self._index
        slot = index.get(block)
        if slot is not None:  # refresh in place
            order = self._orders[block & (self.num_sets - 1)]
            if order[-1] != slot:
                order.remove(slot)
                order.append(slot)
            if dirty:
                self._dirty[slot] = 1
            self._compressed[slot] = 1 if compressed else 0
            if is_ptb:
                self._is_ptb[slot] = 1
            return None
        set_index = block & (self.num_sets - 1)
        order = self._orders[set_index]
        victim: Optional[CacheLine] = None
        if len(order) >= self.associativity:
            slot = order.pop(0)
            victim = self._line_at(slot)
            del index[victim.block]
        else:
            slot = self._free[set_index].pop()
        self._store_tag(slot, block)
        self._dirty[slot] = 1 if dirty else 0
        self._compressed[slot] = 1 if compressed else 0
        self._is_ptb[slot] = 1 if is_ptb else 0
        index[block] = slot
        order.append(slot)
        return victim

    def invalidate(self, block: int) -> Optional[CacheLine]:
        """Remove a block (used for inclusive/exclusive maintenance)."""
        slot = self._index.pop(block, None)
        if slot is None:
            return None
        line = self._line_at(slot)
        set_index = block & (self.num_sets - 1)
        self._orders[set_index].remove(slot)
        self._free[set_index].append(slot)
        self._tags[slot] = -1
        return line

    def flush(self) -> List[CacheLine]:
        """Drop everything; returns the dirty lines that would write back."""
        dirty_lines: List[CacheLine] = []
        dirty = self._dirty
        for set_index, order in enumerate(self._orders):
            for slot in order:
                if dirty[slot]:
                    dirty_lines.append(self._line_at(slot))
            if order:
                free = self._free[set_index]
                for slot in order:
                    self._tags[slot] = -1
                    free.append(slot)
                del order[:]
        self._index.clear()
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

    def _line_at(self, slot: int) -> CacheLine:
        """Materialize the slot's metadata as a detached :class:`CacheLine`."""
        return CacheLine(self._tags[slot], dirty=bool(self._dirty[slot]),
                         compressed=bool(self._compressed[slot]),
                         is_ptb=bool(self._is_ptb[slot]))

    def _store_tag(self, slot: int, block: int) -> None:
        try:
            self._tags[slot] = block
        except OverflowError:  # beyond int64: demote to a plain list
            self._tags = list(self._tags)
            self._tags[slot] = block

    def tags_matrix(self):
        """numpy ``(num_sets, assoc)`` int64 view of the tags column, or
        ``None`` (numpy missing/masked, or the column was demoted)."""
        from repro.common.numpy_compat import numpy_or_none

        np = numpy_or_none()
        if np is None or not isinstance(self._tags, array):
            return None
        return np.frombuffer(self._tags, dtype=np.int64).reshape(
            self.num_sets, self.associativity)


class ReferenceSetAssociativeCache:
    """The original per-entry-object implementation (the readable spec).

    Kept verbatim for differential testing: random operation sequences
    against this oracle and :class:`SetAssociativeCache` must produce
    identical hits, victims, and stats.
    """

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
        self._sets: List["OrderedDict[int, CacheLine]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.stats = RatioStat(name)

    def _set_of(self, block: int) -> "OrderedDict[int, CacheLine]":
        return self._sets[block & (self.num_sets - 1)]

    def lookup(self, block: int, is_write: bool = False) -> Optional[CacheLine]:
        entries = self._set_of(block)
        line = entries.get(block)
        self.stats.record(line is not None)
        if line is not None:
            entries.move_to_end(block)
            if is_write:
                line.dirty = True
        return line

    def peek(self, block: int) -> Optional[CacheLine]:
        return self._set_of(block).get(block)

    def contains(self, block: int) -> bool:
        return block in self._set_of(block)

    def fill(self, block: int, dirty: bool = False, compressed: bool = False,
             is_ptb: bool = False) -> Optional[CacheLine]:
        entries = self._set_of(block)
        if block in entries:
            line = entries[block]
            entries.move_to_end(block)
            line.dirty = line.dirty or dirty
            line.compressed = compressed
            line.is_ptb = line.is_ptb or is_ptb
            return None
        victim: Optional[CacheLine] = None
        if len(entries) >= self.associativity:
            _, victim = entries.popitem(last=False)
        entries[block] = CacheLine(block, dirty=dirty, compressed=compressed,
                                   is_ptb=is_ptb)
        return victim

    def invalidate(self, block: int) -> Optional[CacheLine]:
        return self._set_of(block).pop(block, None)

    def flush(self) -> List[CacheLine]:
        dirty: List[CacheLine] = []
        for entries in self._sets:
            dirty.extend(line for line in entries.values() if line.dirty)
            entries.clear()
        return dirty

    @property
    def occupancy(self) -> int:
        return sum(len(entries) for entries in self._sets)

    def blocks(self) -> Iterator[int]:
        for entries in self._sets:
            yield from entries
