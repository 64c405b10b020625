"""A workload's address space, built once and shared by its simulators.

The page table, the vpn -> machine-frame translation and the warm-up
placement draw only on their own RNG streams (``frames``, ``populate``,
``placement``; ``host_frames`` and ``host_populate`` when virtualized),
never on the controller.  :func:`address_space` builds them once per
(context seed, page size, placement drift, virtualization) and keeps the
result on the workload: one entry, replaced on a different key, never
pickled.  The space also owns the replay loop's front-end recording
(:class:`repro.sim.fastpath.FrontEndRecording`), which is only valid for
the tables and translation it walked.

A shared space is read-only once built: walkers only read the tables
(``PageTable.ptb_at`` hands out copies) and controllers only read the
placement they are initialized from.  ``tests/sim/test_address_space.py``
hashes every part before and after runs of all six controllers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import rshift
from typing import Dict, Optional, Tuple

from repro.sim.context import SimContext
from repro.vm.pagetable import FrameAllocator, PageTable, PageTablePopulator
from repro.workloads.trace import Workload


@dataclass(eq=False)
class AddressSpace:
    """One workload's populated page tables and warm placement."""

    key: tuple  # (context seed, huge_pages, placement_drift, virtualized)
    table: PageTable
    host_table: Optional[PageTable]  # behind the guest's when virtualized
    #: vpn -> the machine frame its data lives in (the host frame when
    #: virtualized); unmapped vpns are absent.
    translation: Dict[int, int]
    data_ppns: Tuple[int, ...]  # hottest first
    hotness: Dict[int, int]     # data ppn -> its rank in data_ppns
    table_ppns: Tuple[int, ...]  # pinned by every controller
    front_end: Optional[object] = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["front_end"] = None
        return state


def address_space(workload: Workload, context: SimContext, huge_pages: bool,
                  placement_drift: float,
                  virtualized: bool) -> AddressSpace:
    """``workload``'s address space for ``context.seed`` and the given
    shape, built on first use and shared afterwards."""
    key = (context.seed, huge_pages, placement_drift, virtualized)
    space = workload._space
    if space is not None and space.key == key:
        return space
    allocator = FrameAllocator(workload.footprint_pages * 4 + 4096,
                               context.rng("frames"))
    table = PageTable(allocator)
    populator = PageTablePopulator(table, allocator, context.rng("populate"))
    if huge_pages:
        populator.populate_huge_region(workload.base_vpn & ~0x1FF,
                                       -(-workload.footprint_pages // 512))
        translation = {vpn + offset: ppn + offset
                       for vpn, ppn in table.huge_mappings.items()
                       for offset in range(512)}
    else:
        populator.populate_region(workload.base_vpn, workload.footprint_pages)
        populator.finalize_noise()
        translation = populator.mapped_pages
    table_ppns = [page.ppn for page in table.table_pages()]

    host_table = None
    if virtualized:
        # The host maps every guest frame, data and table pages alike.
        guest_frames = max(chain(translation.values(), table_ppns)) + 1
        host_allocator = FrameAllocator(guest_frames * 2 + 4096,
                                        context.rng("host_frames"))
        host_table = PageTable(host_allocator)
        host_populator = PageTablePopulator(host_table, host_allocator,
                                            context.rng("host_populate"))
        host_populator.populate_region(0, guest_frames)
        host_populator.finalize_noise()
        gfn_to_host = host_populator.mapped_pages
        translation = {vpn: gfn_to_host[gfn]
                       for vpn, gfn in translation.items()}
        # Pinned: the host's own table pages plus the host frames backing
        # the guest's table pages (both are walked).
        table_ppns = ([page.ppn for page in host_table.table_pages()]
                      + [gfn_to_host[gfn] for gfn in table_ppns])

    data_ppns = _placement(workload, translation, placement_drift,
                           context.rng("placement").chance)
    space = workload._space = AddressSpace(
        key, table, host_table, translation, data_ppns,
        {ppn: rank for rank, ppn in enumerate(data_ppns)}, tuple(table_ppns))
    return space


def _placement(workload: Workload, translation: Dict[int, int],
               drift: float, chance) -> Tuple[int, ...]:
    """Data frames, hottest first, as ~1 s of warm-up would leave them.

    A ``drift`` fraction of warm pages turned cold between warm-up and
    the measured window (or were sampled unluckily by the 1% recency
    updates); they start behind even the never-touched pages, hence in
    ML2 -- the residual ML2 traffic Figure 21 reports.
    """
    # Counter keeps first-touch order, so equally hot pages keep it.
    counts = Counter(map(rshift, workload.trace.addresses, repeat(12)))
    ranked_vpns = sorted(counts, key=counts.get, reverse=True)
    drifted = [vpn for vpn in ranked_vpns if chance(drift)]
    drifted_set = set(drifted)
    base = workload.base_vpn
    placement = [vpn for vpn in ranked_vpns if vpn not in drifted_set]
    placement += [vpn for vpn in range(base, base + workload.footprint_pages)
                  if vpn not in counts]
    placement += drifted
    # Trace addresses outside the mapped footprint translate to None.
    return tuple(ppn for ppn in map(translation.get, placement)
                 if ppn is not None)
