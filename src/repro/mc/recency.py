"""The Recency List: sampled LRU over ML1 pages (Section IV-B).

A doubly linked list whose elements name ML1 pages by PPN; head is
hottest, tail is coldest.  To keep update bandwidth negligible, only ~1%
of ML1 accesses (randomly sampled) move a page to the hot end.  Eviction
victims come from the cold end.  Incompressible pages are *removed* so
they are not repeatedly retried; a writeback to such a page re-adds it
with the same 1% probability (compressibility may have changed).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.common.lru import IntLRU
from repro.common.registry import Registry
from repro.common.rng import DeterministicRNG

#: Recency-policy implementations, discoverable by name.  The paper's
#: design is the 1%-sampled LRU; alternatives (e.g. full LRU for
#: sensitivity studies) register here without simulator edits.
RECENCY_REGISTRY: Registry = Registry("recency policy")

register_recency_policy = RECENCY_REGISTRY.register


@register_recency_policy
class RecencyList:
    """Sampled-LRU list of ML1 pages."""

    name = "sampled_lru"

    #: Bytes per element: two list pointers + PPN, rounded to hardware
    #: convenience (the paper charges 0.4% of DRAM for the list).
    ELEMENT_BYTES = 16

    def __init__(self, rng: Optional[DeterministicRNG] = None,
                 sample_probability: float = 0.01) -> None:
        if not 0.0 <= sample_probability <= 1.0:
            raise ValueError("sample_probability must be in [0, 1]")
        self._list = IntLRU()  # columnar list, tail (cold) .. head (hot)
        self._rng = rng or DeterministicRNG(0xACCE55)
        self.sample_probability = sample_probability

    def __len__(self) -> int:
        return len(self._list)

    def __contains__(self, ppn: int) -> bool:
        return ppn in self._list

    def push_hot(self, ppn: int) -> None:
        """Insert (or move) a page at the hot end."""
        if ppn in self._list:
            self._list.move_to_end(ppn)
        else:
            self._list.insert_mru(ppn)

    def fill(self, ppns: Iterable[int]) -> None:
        """Fill a new list, coldest page first: the order of one
        :meth:`push_hot` per page."""
        self._list.fill(ppns)

    def on_access(self, ppn: int) -> bool:
        """Maybe refresh recency for an ML1 access; True if sampled."""
        if ppn not in self._list:
            return False
        if self._rng.chance(self.sample_probability):
            self._list.move_to_end(ppn)
            return True
        return False

    def evict_coldest(self) -> Optional[int]:
        """Pop the coldest page, or ``None`` when the list is empty."""
        return self._list.pop_lru()

    def remove(self, ppn: int) -> None:
        """Drop a page (e.g. it proved incompressible, or migrated out)."""
        self._list.discard(ppn)

    def maybe_readd_after_writeback(self, ppn: int) -> bool:
        """1%-probability re-add of an incompressible page on writeback."""
        if ppn in self._list:
            return False
        if self._rng.chance(self.sample_probability):
            self._list.insert_mru(ppn)
            return True
        return False

    def overhead_bytes(self) -> int:
        """Memory the list's pointers consume (unlike free lists, these
        cannot hide inside free space)."""
        return len(self._list) * self.ELEMENT_BYTES
