"""Anatomy of a TMCC page walk: how CTEs ride inside compressed PTBs.

A step-by-step, printf-annotated walk through the paper's core mechanism
(Section V-A) on real data structures:

1. build a page table and map a small region;
2. compress one leaf PTB in hardware and embed CTEs into the freed space;
3. perform a page walk, harvest the embedded CTEs into the CTE Buffer;
4. serve an LLC miss through the *parallel* speculative path;
5. migrate the page behind the PTB's back and watch the verify catch the
   stale embedded CTE, re-access, and lazily repair it.

Usage:  python examples/page_walk_anatomy.py
"""

from repro.common.rng import DeterministicRNG
from repro.core.compmodel import PageCompressionModel
from repro.core.config import SystemConfig
from repro.core.tmcc import TMCCController
from repro.dram.system import DRAMSystem
from repro.vm.pagetable import FrameAllocator, PageTable, PageTablePopulator
from repro.vm.ptbcodec import PTBCodec
from repro.workloads.content import ContentSynthesizer


def main() -> None:
    # -- 1. a page table with one mapped region ------------------------
    allocator = FrameAllocator(1 << 20, DeterministicRNG(1))
    table = PageTable(allocator)
    populator = PageTablePopulator(table, allocator, DeterministicRNG(2))
    base_vpn = 0x4_0000
    ppns = populator.populate_region(base_vpn, 64)
    print(f"mapped 64 pages at vpn {base_vpn:#x}; first ppn = {ppns[0]:#x}")

    # -- 2. hardware-compress the leaf PTB ------------------------------
    path = table.walk_path(base_vpn)
    leaf_level, leaf_ptb_address, _ = path[-1]
    ptes = table.ptb_at(leaf_ptb_address)
    codec = PTBCodec()
    compressed = codec.compress(ptes)
    print(f"\nleaf PTB @ {leaf_ptb_address:#x}: compressible = "
          f"{compressed is not None}")
    print(f"this machine (1 TB/MC, 4x expansion): truncated CTEs are "
          f"{codec.cte_bits} bits; {codec.embeddable_ctes} fit per PTB")

    # -- 3. a TMCC controller with pages placed across ML1/ML2 ---------
    system = SystemConfig()
    controller = TMCCController(system, DRAMSystem())
    model = PageCompressionModel(ContentSynthesizer("graph", 3).page,
                                 sample_pages=8, seed=3)
    hotness = {ppn: rank for rank, ppn in enumerate(ppns)}
    controller.initialize(ppns, hotness, [page.ppn for page in
                                          table.table_pages()], model)
    controller.note_ptb_fetch(leaf_level, leaf_ptb_address, ptes,
                              huge_leaf=False)
    print(f"\nwalk fetched the PTB; CTE Buffer now holds "
          f"{len(controller._cte_buffer)} entries")

    # -- 4. LLC miss via the parallel path ------------------------------
    controller.cte_cache.flush()  # force the CTE-cache-miss case
    target = ppns[0]
    latency, path, _ = controller.serve_l3_miss_fast(target, 0, 0.0)
    print(f"LLC miss on ppn {target:#x}: path = {path!r}, "
          f"latency = {latency:.0f} ns "
          f"(data and verifying CTE fetched in parallel)")

    # -- 5. stale embedded CTE: verify, re-access, repair ---------------
    controller._cte[target].dram_page += 7  # the page migrated elsewhere
    controller.cte_cache.flush()
    latency, path, _ = controller.serve_l3_miss_fast(target, 0, 1000.0)
    print(f"\nafter migrating the page: path = {path!r}, "
          f"latency = {latency:.0f} ns (speculation wasted, "
          f"re-accessed with the correct CTE)")
    controller.cte_cache.flush()
    latency, path, _ = controller.serve_l3_miss_fast(target, 0, 2000.0)
    print(f"after the lazy repair:     path = {path!r}, "
          f"latency = {latency:.0f} ns (back to the fast path)")


if __name__ == "__main__":
    main()
