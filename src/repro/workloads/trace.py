"""Trace record types.

A trace is a list of ``Access`` tuples -- kept as plain tuples, not
objects, because the simulator replays hundreds of thousands of them per
benchmark and Python attribute access would dominate the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

#: One memory access: (virtual byte address, is_write).
Access = Tuple[int, bool]


@dataclass
class Workload:
    """A benchmark: its trace, footprint, contents, and intensity.

    ``compute_cycles_per_access`` models how much non-memory work separates
    consecutive accesses -- the knob behind Figure 16's memory-intensity
    spread (canneal/shortestPath are intense, kcore/triCount less so).

    ``content`` maps a vpn to that page's 4 KB of bytes; the compression
    controllers call it when a page first migrates to ML2 and cache the
    result, so content is synthesized lazily.

    Simulators share one address space per workload
    (:class:`repro.sim.space.AddressSpace`): the populated page table,
    the translation and the warm placement, which every controller would
    build identically, and the replay loop's front-end recording, which it
    owns.  It lives and dies with this object, is replaced when a
    simulator needs a differently shaped one, and is never pickled.  The
    workload is treated as immutable once built.
    """

    name: str
    trace: List[Access]
    footprint_pages: int
    content: Callable[[int], bytes]
    compute_cycles_per_access: float = 4.0
    description: str = ""
    #: vpn of the first mapped page (regions are contiguous from here).
    base_vpn: int = 0
    _space: Optional[object] = field(default=None, init=False, repr=False,
                                     compare=False)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_space"] = None
        return state

    def touched_vpns(self) -> List[int]:
        """Distinct virtual pages the trace touches, in first-touch order."""
        seen = {}
        for vaddr, _ in self.trace:
            vpn = vaddr >> 12
            if vpn not in seen:
                seen[vpn] = None
        return list(seen)

    @property
    def access_count(self) -> int:
        return len(self.trace)

    def write_fraction(self) -> float:
        if not self.trace:
            return 0.0
        return sum(1 for _, w in self.trace if w) / len(self.trace)
