"""Four-level radix page table and its OS-like populator.

The table is concrete: every table page holds 512 real PTE integers, so the
compressed-PTB codec and the Figure 6 statistics operate on actual bit
patterns, and the page walker produces the actual physical addresses of the
page-table blocks (PTBs) it touches -- those addresses then flow through the
cache hierarchy like any other memory access, which is exactly the property
TMCC exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.rng import DeterministicRNG
from repro.common.units import BLOCK_SIZE, PAGE_SIZE, PTES_PER_PTB
from repro.vm.pte import (
    PTE_DIRTY,
    PTE_GLOBAL,
    STATUS_DEFAULT_DATA,
    make_pte,
    pte_ppn,
    pte_present,
)

#: Levels are numbered like hardware manuals: 4 = root (PML4), 1 = leaf.
LEVELS = (4, 3, 2, 1)
ENTRIES_PER_TABLE = 512
PTBS_PER_TABLE = ENTRIES_PER_TABLE // PTES_PER_PTB


def vpn_index(vpn: int, level: int) -> int:
    """The 9-bit table index used at ``level`` for virtual page ``vpn``."""
    return (vpn >> (9 * (level - 1))) & (ENTRIES_PER_TABLE - 1)


class FrameAllocator:
    """Hands out physical frame numbers with OS-like near-contiguity.

    Real allocators serve most faults from per-zone free lists, producing
    long runs of contiguous frames with occasional jumps.  ``jump_chance``
    controls fragmentation; the default yields the mostly-contiguous
    mappings that make PTB PPN truncation (Figure 7) profitable.
    """

    def __init__(
        self,
        total_frames: int,
        rng: Optional[DeterministicRNG] = None,
        jump_chance: float = 0.02,
    ) -> None:
        if total_frames <= 0:
            raise ValueError("total_frames must be positive")
        self.total_frames = total_frames
        self._rng = rng or DeterministicRNG(0)
        self.jump_chance = jump_chance
        self._next = 0
        self._allocated: set = set()

    @property
    def allocated_count(self) -> int:
        return len(self._allocated)

    def alloc(self) -> int:
        """Allocate one frame; raises :class:`MemoryError` when full."""
        if len(self._allocated) >= self.total_frames:
            raise MemoryError("physical memory exhausted")
        if self._rng.chance(self.jump_chance):
            self._next = self._rng.randint(0, self.total_frames - 1)
        return self._claim_next()

    def _claim_next(self) -> int:
        """Claim the first free frame at or after the cursor, wrapping."""
        for _ in range(self.total_frames):
            candidate = self._next % self.total_frames
            self._next = candidate + 1
            if candidate not in self._allocated:
                self._allocated.add(candidate)
                return candidate
        raise MemoryError("physical memory exhausted")

    def free(self, ppn: int) -> None:
        self._allocated.discard(ppn)

    def alloc_aligned_run(self, count: int) -> int:
        """Allocate ``count`` contiguous frames aligned to ``count``.

        Used for 2 MiB huge pages (count = 512).  Returns the base frame.
        """
        for base in range(0, self.total_frames - count + 1, count):
            run = range(base, base + count)
            if all(f not in self._allocated for f in run):
                self._allocated.update(run)
                return base
        raise MemoryError("no aligned contiguous run available")


@dataclass
class TablePage:
    """One 4 KB page of the page table (512 PTEs)."""

    level: int
    ppn: int
    entries: List[int]

    @classmethod
    def empty(cls, level: int, ppn: int) -> "TablePage":
        return cls(level=level, ppn=ppn, entries=[0] * ENTRIES_PER_TABLE)

    def ptb_address(self, entry_index: int) -> int:
        """Physical byte address of the PTB holding ``entry_index``."""
        return self.ppn * PAGE_SIZE + (entry_index // PTES_PER_PTB) * BLOCK_SIZE

    def ptb_entries(self, ptb_index: int) -> List[int]:
        """The eight PTEs of PTB number ``ptb_index`` within this page."""
        start = ptb_index * PTES_PER_PTB
        return self.entries[start : start + PTES_PER_PTB]


class PageTable:
    """A concrete 4-level page table for one address space."""

    def __init__(self, allocator: FrameAllocator) -> None:
        self._allocator = allocator
        self.root = TablePage.empty(4, allocator.alloc())
        #: table pages by (level, ppn); includes the root.
        self._pages: Dict[int, TablePage] = {self.root.ppn: self.root}
        #: child table page for a non-leaf entry: (parent ppn, index) -> page
        self._children: Dict[Tuple[int, int], TablePage] = {}
        #: reverse map: PTB physical block address -> (table page, ptb index)
        self._ptb_index: Dict[int, Tuple[TablePage, int]] = {}
        self._register_ptbs(self.root)
        #: vpns mapped as 2 MiB huge pages (keyed by the L2-aligned vpn).
        self.huge_mappings: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _register_ptbs(self, page: TablePage) -> None:
        for ptb in range(PTBS_PER_TABLE):
            self._ptb_index[page.ptb_address(ptb * PTES_PER_PTB)] = (page, ptb)

    def _child(self, parent: TablePage, index: int, create: bool) -> Optional[TablePage]:
        key = (parent.ppn, index)
        child = self._children.get(key)
        if child is None and create:
            child = TablePage.empty(parent.level - 1, self._allocator.alloc())
            self._children[key] = child
            self._pages[child.ppn] = child
            self._register_ptbs(child)
            parent.entries[index] = make_pte(child.ppn)
        return child

    def map_page(self, vpn: int, ppn: int, status_low: int = STATUS_DEFAULT_DATA,
                 status_high: int = 0) -> None:
        """Install a 4 KB translation vpn -> ppn."""
        page = self.root
        for level in (4, 3, 2):
            page = self._child(page, vpn_index(vpn, level), create=True)
        page.entries[vpn_index(vpn, 1)] = make_pte(ppn, status_low, status_high)

    def map_huge_page(self, vpn: int, ppn: int,
                      status_low: int = STATUS_DEFAULT_DATA) -> None:
        """Install a 2 MiB translation at an aligned vpn (low 9 bits zero)."""
        if vpn & 0x1FF or ppn & 0x1FF:
            raise ValueError("huge mappings must be 2 MiB aligned")
        page = self.root
        for level in (4, 3):
            page = self._child(page, vpn_index(vpn, level), create=True)
        page.entries[vpn_index(vpn, 2)] = make_pte(ppn, status_low | PTE_GLOBAL)
        self.huge_mappings[vpn] = ppn

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, vpn: int) -> Optional[int]:
        """Return the leaf PTE for ``vpn`` (4 KB pages), or ``None``."""
        page = self.root
        for level in (4, 3, 2):
            index = vpn_index(vpn, level)
            if level == 2 and (vpn & ~0x1FF) in self.huge_mappings:
                return page.entries[index]
            child = self._children.get((page.ppn, index))
            if child is None:
                return None
            page = child
        pte = page.entries[vpn_index(vpn, 1)]
        return pte if pte_present(pte) else None

    def translate(self, vpn: int) -> Optional[int]:
        """vpn -> ppn, honoring huge mappings."""
        huge_base = vpn & ~0x1FF
        if huge_base in self.huge_mappings:
            return self.huge_mappings[huge_base] + (vpn & 0x1FF)
        pte = self.lookup(vpn)
        return pte_ppn(pte) if pte is not None else None

    def walk_path(self, vpn: int) -> List[Tuple[int, int, int]]:
        """The PTB accesses a full walk performs.

        Returns ``[(level, ptb physical address, pte), ...]`` from the root
        down; a huge mapping ends the path at level 2.  Raises ``KeyError``
        for unmapped addresses.
        """
        path: List[Tuple[int, int, int]] = []
        page = self.root
        for level in (4, 3, 2, 1):
            index = vpn_index(vpn, level)
            ptb_address = page.ptb_address(index)
            pte = page.entries[index]
            path.append((level, ptb_address, pte))
            if level == 2 and (vpn & ~0x1FF) in self.huge_mappings:
                return path
            if level > 1:
                child = self._children.get((page.ppn, index))
                if child is None:
                    raise KeyError(f"vpn {vpn:#x} not mapped at level {level}")
                page = child
        if not pte_present(path[-1][2]):
            raise KeyError(f"vpn {vpn:#x} not present")
        return path

    # ------------------------------------------------------------------
    # Introspection (PTB-level, used by TMCC and by Figure 6)
    # ------------------------------------------------------------------

    def ptb_at(self, ptb_address: int) -> Optional[List[int]]:
        """The eight PTEs stored at physical block ``ptb_address``."""
        entry = self._ptb_index.get(ptb_address)
        if entry is None:
            return None
        page, ptb = entry
        return page.ptb_entries(ptb)

    def is_ptb_address(self, block_address: int) -> bool:
        return block_address in self._ptb_index

    def table_pages(self, level: Optional[int] = None) -> Iterator[TablePage]:
        for page in self._pages.values():
            if level is None or page.level == level:
                yield page

    def set_entry(self, page: TablePage, index: int, pte: int) -> None:
        page.entries[index] = pte

    @property
    def table_page_count(self) -> int:
        return len(self._pages)


@dataclass(frozen=True)
class PTBStatusStats:
    """Figure 6 data: fraction of PTBs whose PTEs share all status bits."""

    l1_total: int
    l1_uniform: int
    l2_total: int
    l2_uniform: int

    @property
    def l1_fraction(self) -> float:
        return self.l1_uniform / self.l1_total if self.l1_total else 0.0

    @property
    def l2_fraction(self) -> float:
        return self.l2_uniform / self.l2_total if self.l2_total else 0.0


def ptb_status_stats(table: PageTable) -> PTBStatusStats:
    """Measure Figure 6 on a populated table.

    Only PTBs with at least one present PTE count (empty PTBs never reach
    the walker).  A PTB is "uniform" when all its *present* PTEs share
    identical status bits -- hardware only embeds CTEs for present
    entries, so absent slots at region boundaries do not break
    compressibility.
    """
    from repro.vm.pte import pte_status

    counts = {1: [0, 0], 2: [0, 0]}  # level -> [total, uniform]
    for level in (1, 2):
        for page in table.table_pages(level):
            for ptb in range(PTBS_PER_TABLE):
                entries = page.ptb_entries(ptb)
                present = [e for e in entries if pte_present(e)]
                if not present:
                    continue
                counts[level][0] += 1
                if len({pte_status(e) for e in present}) == 1:
                    counts[level][1] += 1
    return PTBStatusStats(
        l1_total=counts[1][0],
        l1_uniform=counts[1][1],
        l2_total=counts[2][0],
        l2_uniform=counts[2][1],
    )


class PageTablePopulator:
    """Fills a page table the way a long-running OS would.

    Pages are mapped in virtually contiguous regions backed by
    mostly-contiguous frames.  ``status_noise`` injects the rare PTEs whose
    status bits differ from their PTB neighbours (a dirty bit here, a
    write-protected COW page there); Figure 6 measures 0.06% / 0.7% of
    L1 / L2 PTBs broken this way, so the defaults target those rates.
    """

    def __init__(
        self,
        table: PageTable,
        allocator: FrameAllocator,
        rng: Optional[DeterministicRNG] = None,
        l1_status_noise: float = 0.0006,
        l2_status_noise: float = 0.007,
    ) -> None:
        self.table = table
        self.allocator = allocator
        self.rng = rng or DeterministicRNG(1)
        self.l1_status_noise = l1_status_noise
        self.l2_status_noise = l2_status_noise
        self._mapped: Dict[int, int] = {}

    @property
    def mapped_pages(self) -> Dict[int, int]:
        """vpn -> ppn for every 4 KB page mapped through this populator."""
        return self._mapped

    def populate_region(self, vbase_vpn: int, num_pages: int,
                        status_low: int = STATUS_DEFAULT_DATA) -> List[int]:
        """Map ``num_pages`` consecutive virtual pages; returns their PPNs.

        Equivalent to ``map_page`` per vpn, but consecutive vpns share a
        leaf table page for runs of 512, so the three-level descent is
        only repeated when the run crosses a leaf boundary.  Allocations
        (and therefore RNG draws) happen in the same order.
        """
        make_pte(0, status_low)  # validate the status bits once
        table = self.table
        mapped = self._mapped
        allocator = self.allocator
        allocated = allocator._allocated
        total_frames = allocator.total_frames
        chance = allocator._rng.chance
        ppns: List[int] = []
        append = ppns.append
        leaf_entries: Optional[List[int]] = None
        leaf_base = -1
        for vpn in range(vbase_vpn, vbase_vpn + num_pages):
            # FrameAllocator.alloc, inlined for its common case: the
            # frame under the cursor is free.
            if len(allocated) >= total_frames:
                raise MemoryError("physical memory exhausted")
            if chance(allocator.jump_chance):
                allocator._next = allocator._rng.randint(0, total_frames - 1)
            ppn = allocator._next % total_frames
            if ppn in allocated:
                ppn = allocator._claim_next()
            else:
                allocated.add(ppn)
                allocator._next = ppn + 1
            base = vpn >> 9
            if base != leaf_base:
                page = table.root
                for level in (4, 3, 2):
                    page = table._child(page, vpn_index(vpn, level),
                                        create=True)
                leaf_entries = page.entries
                leaf_base = base
            pte = status_low | (ppn << 12)
            if pte >> 52:  # PPN overflow; make_pte raises the exact error
                make_pte(ppn, status_low)
            leaf_entries[vpn & 0x1FF] = pte
            mapped[vpn] = ppn
            append(ppn)
        return ppns

    def populate_huge_region(self, vbase_vpn: int, num_huge_pages: int) -> None:
        """Map ``num_huge_pages`` 2 MiB pages starting at an aligned vpn."""
        vpn = vbase_vpn & ~0x1FF
        for i in range(num_huge_pages):
            base_ppn = self.allocator.alloc_aligned_run(512)
            self.table.map_huge_page(vpn + i * 512, base_ppn)

    def finalize_noise(self) -> None:
        """Break status-bit uniformity in the configured PTB fractions.

        Call once after all regions are populated; this is what makes the
        Figure 6 statistics land at ~99.94% (L1) / ~99.3% (L2) instead of
        a sterile 100%.
        """
        self._inject_noise(level=1, probability=self.l1_status_noise)
        self._inject_noise(level=2, probability=self.l2_status_noise)

    def _inject_noise(self, level: int, probability: float) -> None:
        for page in self.table.table_pages(level):
            for ptb in range(PTBS_PER_TABLE):
                start = ptb * PTES_PER_PTB
                entries = page.ptb_entries(ptb)
                if not any(pte_present(e) for e in entries):
                    continue
                if self.rng.chance(probability):
                    for index in range(start, start + PTES_PER_PTB):
                        if pte_present(page.entries[index]):
                            page.entries[index] |= PTE_DIRTY
                            break
