"""Reference model of the fully-associative LRU TLB.

The readable spec of :class:`repro.vm.tlb.TLB`: one ``OrderedDict`` of
tag -> ppn, LRU first.  ``tests/vm/test_tlb_differential.py`` drives both
through identical random operation sequences and demands identical hits,
evictions and stats.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.stats import RatioStat


class ReferenceTLB:
    """The original ``OrderedDict`` TLB (spec + differential oracle)."""

    def __init__(self, entries: int = 2048, name: str = "tlb") -> None:
        if entries <= 0:
            raise ValueError("TLB needs at least one entry")
        self.entries = entries
        self._lru: "OrderedDict[int, int]" = OrderedDict()
        self.stats = RatioStat(name)

    def lookup(self, tag: int) -> bool:
        hit = tag in self._lru
        self.stats.record(hit)
        if hit:
            self._lru.move_to_end(tag)
        return hit

    def contains(self, tag: int) -> bool:
        return tag in self._lru

    def fill(self, tag: int, ppn: int = 0) -> None:
        if tag in self._lru:
            self._lru.move_to_end(tag)
            self._lru[tag] = ppn
            return
        if len(self._lru) >= self.entries:
            self._lru.popitem(last=False)
        self._lru[tag] = ppn

    def invalidate(self, tag: int) -> None:
        self._lru.pop(tag, None)

    def flush(self) -> None:
        self._lru.clear()

    @property
    def occupancy(self) -> int:
        return len(self._lru)
