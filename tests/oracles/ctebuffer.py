"""Reference model of TMCC's CTE Buffer (Section V-A6, Figure 10).

The readable spec of ``TMCCController._cte_buffer``: a dict in recency
order, oldest first, of at most ``CTE_BUFFER_ENTRIES`` PPNs, each mapped
to ``(embedded CTE snapshot, owning PTB address)``.  A harvested PTB
inserts its present PPNs one at a time; an insert moves its PPN to the
newest end and, past capacity, evicts the oldest entry on the spot.
Repairs and injected faults overwrite an entry in place.
``tests/core/test_cte_buffer_differential.py`` drives the controller and
this model through identical random sequences and demands identical
buffers, order included.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.tmcc import CTE_BUFFER_ENTRIES


class ReferenceCTEBuffer:
    """The per-insert FIFO CTE Buffer (spec + oracle)."""

    def __init__(self, capacity: int = CTE_BUFFER_ENTRIES) -> None:
        self.capacity = capacity
        self.entries: Dict[int, Tuple[Optional[tuple], int]] = {}

    def note(self, ptb_address: int, harvest: tuple) -> None:
        """Buffer one harvested PTB's embedded CTEs; ``harvest`` is its
        ``(shadow, ((ppn, cte slot index), ...))`` memo entry."""
        shadow, pairs = harvest
        slots = shadow.cte_slots if shadow is not None else None
        buffer = self.entries
        for ppn, slot in pairs:
            if ppn in buffer:
                del buffer[ppn]  # re-inserting below moves it to MRU
            buffer[ppn] = (slots[slot] if slot is not None else None,
                           ptb_address)
            if len(buffer) > self.capacity:
                del buffer[next(iter(buffer))]

    def replace(self, ppn: int, snapshot: Optional[tuple],
                ptb_address: int) -> None:
        """Overwrite ``ppn``'s entry in place; an absent PPN stays
        absent (a lazy repair of an evicted entry touches nothing)."""
        if ppn in self.entries:
            self.entries[ppn] = (snapshot, ptb_address)
