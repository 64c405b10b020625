"""A flat, columnar, exact-LRU ordering over integer keys.

``IntLRU`` replaces the ``OrderedDict``-as-LRU idiom of the hot-path
state stores (TLB, page-walk cache, CTE cache, recency list).  State is
structure-of-arrays: a ``key -> slot`` dict plus parallel ``key`` /
``value`` / ``prev`` / ``next`` columns indexed by slot, with head
(LRU) / tail (MRU) cursors and a free-slot stack.  All operations are
O(1) and allocation-free after warm-up (slots are recycled), and the
whole structure pickles (checkpoint/resume).

Semantics mirror an ``OrderedDict`` used with ``move_to_end`` and
``popitem(last=False)``: insertion and touch both make a key MRU;
``pop_lru`` removes the oldest.  The differential property tests pin
this equivalence against real ``OrderedDict`` oracles.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator, List, Optional


class IntLRU:
    """Exact LRU set/map over int keys, columnar storage, O(1) ops."""

    __slots__ = ("_slot", "_key", "_val", "_prev", "_next",
                 "_head", "_tail", "_free")

    def __init__(self) -> None:
        self._slot: dict = {}      # key -> slot
        self._key: List[int] = []  # slot -> key
        self._val: list = []       # slot -> caller value
        self._prev: List[int] = []  # slot -> previous (colder) slot or -1
        self._next: List[int] = []  # slot -> next (hotter) slot or -1
        self._head = -1  # LRU (coldest)
        self._tail = -1  # MRU (hottest)
        self._free: List[int] = []

    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, key: int) -> bool:
        return key in self._slot

    def __bool__(self) -> bool:
        return bool(self._slot)

    def get(self, key: int, default=None):
        slot = self._slot.get(key)
        return default if slot is None else self._val[slot]

    def move_to_end(self, key: int) -> None:
        """Make ``key`` the MRU element (it must be present)."""
        slot = self._slot[key]
        nxt = self._next[slot]
        if nxt == -1:
            return  # already MRU
        prv = self._prev[slot]
        if prv == -1:
            self._head = nxt
        else:
            self._next[prv] = nxt
        self._prev[nxt] = prv
        tail = self._tail
        self._next[tail] = slot
        self._prev[slot] = tail
        self._next[slot] = -1
        self._tail = slot

    def insert_mru(self, key: int, value=True) -> None:
        """Insert an absent ``key`` at the MRU end."""
        free = self._free
        if free:
            slot = free.pop()
            self._key[slot] = key
            self._val[slot] = value
        else:
            slot = len(self._key)
            self._key.append(key)
            self._val.append(value)
            self._prev.append(-1)
            self._next.append(-1)
        self._slot[key] = slot
        tail = self._tail
        self._prev[slot] = tail
        self._next[slot] = -1
        if tail == -1:
            self._head = slot
        else:
            self._next[tail] = slot
        self._tail = slot

    def fill(self, keys: Iterable[int]) -> None:
        """Fill a new list with distinct ``keys``, LRU first.

        Leaves the columns exactly as one ``insert_mru`` (default value)
        per key would.
        """
        if self._key:
            raise ValueError("fill needs a list that was never used")
        key = self._key
        key.extend(keys)
        size = len(key)
        # One int object per slot, shared by the columns as in the loop.
        slots = list(range(size))
        self._slot.update(zip(key, slots))
        if len(self._slot) != size:
            self.clear()
            raise ValueError("fill needs distinct keys")
        self._val.extend(repeat(True, size))
        if size:
            self._prev.append(-1)
            self._prev.extend(slots[:-1])
            self._next.extend(slots[1:])
            self._next.append(-1)
            self._head = 0
            self._tail = slots[-1]

    def pop_lru(self) -> Optional[int]:
        """Remove and return the LRU key, or ``None`` when empty."""
        slot = self._head
        if slot == -1:
            return None
        key = self._key[slot]
        nxt = self._next[slot]
        self._head = nxt
        if nxt == -1:
            self._tail = -1
        else:
            self._prev[nxt] = -1
        del self._slot[key]
        self._val[slot] = None
        self._free.append(slot)
        return key

    def discard(self, key: int) -> bool:
        """Remove ``key`` if present; True when something was removed."""
        slot = self._slot.pop(key, None)
        if slot is None:
            return False
        prv = self._prev[slot]
        nxt = self._next[slot]
        if prv == -1:
            self._head = nxt
        else:
            self._next[prv] = nxt
        if nxt == -1:
            self._tail = prv
        else:
            self._prev[nxt] = prv
        self._val[slot] = None
        self._free.append(slot)
        return True

    def clear(self) -> None:
        self._slot.clear()
        del self._key[:]
        del self._val[:]
        del self._prev[:]
        del self._next[:]
        self._head = -1
        self._tail = -1
        del self._free[:]

    def keys_lru_to_mru(self) -> Iterator[int]:
        """Iterate keys coldest first (the OrderedDict iteration order)."""
        slot = self._head
        key = self._key
        nxt = self._next
        while slot != -1:
            yield key[slot]
            slot = nxt[slot]
