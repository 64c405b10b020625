"""Per-line reference model of a set-associative LRU cache.

The readable spec of :class:`repro.cache.sa_cache.SetAssociativeCache`:
one ``OrderedDict`` of :class:`~repro.cache.sa_cache.CacheLine` objects
per set, LRU first.  ``tests/cache/test_sa_cache_differential.py`` drives
both through identical random operation sequences and demands identical
hits, victims, line metadata and stats.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional

from repro.cache.sa_cache import CacheLine
from repro.common.stats import RatioStat
from repro.common.units import BLOCK_SIZE


class ReferenceSetAssociativeCache:
    """LRU set-associative cache, one ``CacheLine`` object per line."""

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
