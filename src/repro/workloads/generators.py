"""Non-graph workload generators.

- mcf (SPEC CPU2017): network-simplex pointer chasing over a large arc
  array; the classic TLB killer.  Single-threaded in the paper (they run
  four instances; we model the merged footprint).
- omnetpp (SPEC CPU2017): discrete-event simulation; a binary heap of
  events plus per-module state, moderately irregular.
- canneal (PARSEC): simulated annealing on a netlist; random element swaps
  across a huge array -- the highest memory intensity in Figure 16.
- Small/regular workloads (Section VII "Smaller Workloads"): streaming
  PARSEC-like kernels and a RocksDB-like Zipf key-value trace.
- Bandwidth-intensive kernels (Figure 22): streaming triads and stencils
  used to stress interleaving policies.
"""

from __future__ import annotations

import zlib

from repro.common.rng import DeterministicRNG
from repro.common.units import PAGE_SIZE
from repro.workloads.content import ContentSynthesizer
from repro.workloads.trace import Trace, Workload

_MCF_BASE = 2 << 32
_OMNETPP_BASE = 3 << 32
_CANNEAL_BASE = 4 << 32
_SMALL_BASE = 5 << 32
_BW_BASE = 6 << 32


def _kernel_offset(kernel: str) -> int:
    """Per-kernel seed offset that every process agrees on (``hash()``
    of a string changes with ``PYTHONHASHSEED``)."""
    return zlib.crc32(kernel.encode()) % 1000


def mcf_workload(footprint_pages: int = 24_000, max_accesses: int = 120_000,
                 seed: int = 2) -> Workload:
    """Pointer chasing over a big arc array with short local bursts."""
    rng = DeterministicRNG(seed)
    footprint_bytes = footprint_pages * PAGE_SIZE
    num_nodes = footprint_bytes // 64  # 64 B arc records
    trace = Trace()
    addresses, writes = trace.addresses, trace.writes
    node = rng.randint(0, num_nodes - 1)
    while len(addresses) < max_accesses:
        address = _MCF_BASE + node * 64
        addresses.append(address)
        writes.append(False)
        # Touch a couple of fields of the record (same block / next block).
        addresses.append(address + 32)
        writes.append(False)
        if rng.chance(0.25):
            addresses.append(address + 16)
            writes.append(True)  # cost update
        # Chase: mostly a far pointer, sometimes the adjacent arc.
        if rng.chance(0.75):
            node = rng.zipf_index(num_nodes, exponent=0.9)
        else:
            node = (node + 1) % num_nodes
    trace.truncate(max_accesses)
    return Workload(
        name="mcf",
        trace=trace,
        footprint_pages=footprint_pages,
        content=ContentSynthesizer("mcf", seed).page,
        compute_cycles_per_access=3.0,
        description="SPEC mcf-like network-simplex pointer chasing",
        base_vpn=_MCF_BASE >> 12,
    )


def omnetpp_workload(footprint_pages: int = 8_000, max_accesses: int = 120_000,
                     seed: int = 3) -> Workload:
    """Event-queue simulation: heap churn + module state updates."""
    rng = DeterministicRNG(seed)
    heap_slots = 4096
    heap_bytes = heap_slots * 32
    # Module records fill the rest of the declared footprint.
    num_modules = (footprint_pages * PAGE_SIZE - heap_bytes - 256) // 256
    trace = Trace()
    addresses, writes = trace.addresses, trace.writes
    heap_base = _OMNETPP_BASE
    modules_base = _OMNETPP_BASE + heap_bytes
    while len(addresses) < max_accesses:
        # Pop-min: touch the heap root and a log-depth path.
        depth = rng.randint(2, 12)
        slot = 0
        for _ in range(depth):
            addresses.append(heap_base + slot * 32)
            writes.append(True)
            slot = 2 * slot + 1 + rng.randint(0, 1)
            slot %= heap_slots
        # Handle the event: read/update one module's state.
        module = rng.zipf_index(num_modules, exponent=0.8)
        address = modules_base + module * 256
        addresses.append(address)
        writes.append(False)
        addresses.append(address + 64)
        writes.append(False)
        addresses.append(address + 128)
        writes.append(True)
        # Schedule a follow-up event: heap insert path.
        slot = heap_slots - 1 - rng.randint(0, 63)
        for _ in range(rng.randint(1, 6)):
            addresses.append(heap_base + slot * 32)
            writes.append(True)
            slot //= 2
    trace.truncate(max_accesses)
    return Workload(
        name="omnetpp",
        trace=trace,
        footprint_pages=footprint_pages,
        content=ContentSynthesizer("omnetpp", seed).page,
        compute_cycles_per_access=4.5,
        description="SPEC omnetpp-like discrete-event simulation",
        base_vpn=_OMNETPP_BASE >> 12,
    )


def canneal_workload(footprint_pages: int = 32_000, max_accesses: int = 120_000,
                     seed: int = 4) -> Workload:
    """Simulated annealing: near-random element swaps.

    Swap candidates are mildly skewed (annealing revisits contested nets
    far more than settled ones), which leaves canneal the most irregular
    workload in the suite while still having the warm set a steady-state
    run exhibits.
    """
    rng = DeterministicRNG(seed)
    num_elements = footprint_pages * PAGE_SIZE // 32  # 32 B netlist elements
    trace = Trace()
    addresses, writes = trace.addresses, trace.writes
    while len(addresses) < max_accesses:
        a = rng.zipf_index(num_elements, exponent=0.9)
        b = rng.zipf_index(num_elements, exponent=0.9)
        addr_a = _CANNEAL_BASE + a * 32
        addr_b = _CANNEAL_BASE + b * 32
        # Evaluate both elements' costs, then swap (two writes).
        addresses.append(addr_a)
        writes.append(False)
        addresses.append(addr_b)
        writes.append(False)
        if rng.chance(0.4):
            addresses.append(addr_a)
            writes.append(True)
            addresses.append(addr_b)
            writes.append(True)
    trace.truncate(max_accesses)
    return Workload(
        name="canneal",
        trace=trace,
        footprint_pages=footprint_pages,
        content=ContentSynthesizer("canneal", seed).page,
        compute_cycles_per_access=1.5,
        description="PARSEC canneal-like random swap annealing",
        base_vpn=_CANNEAL_BASE >> 12,
    )


#: Small/regular workloads of Section VII's last sensitivity study.
SMALL_KERNELS = ("blackscholes", "freqmine", "swaptions", "rocksdb")


def small_workload(kernel: str, footprint_pages: int = 1_500,
                   max_accesses: int = 80_000, seed: int = 5) -> Workload:
    """Small-footprint, mostly regular workloads (low TLB pressure)."""
    if kernel not in SMALL_KERNELS:
        raise ValueError(f"unknown small kernel {kernel!r}")
    rng = DeterministicRNG(seed + _kernel_offset(kernel))
    base = _SMALL_BASE
    footprint_bytes = footprint_pages * PAGE_SIZE
    trace = Trace()
    addresses, writes = trace.addresses, trace.writes
    if kernel == "rocksdb":
        # Zipf point gets over an in-memory block cache.
        num_blocks = footprint_bytes // 4096
        while len(addresses) < max_accesses:
            block = rng.zipf_index(num_blocks, exponent=0.99)
            start = base + block * 4096
            for offset in range(0, rng.randint(256, 1024), 64):
                addresses.append(start + offset)
                writes.append(False)
            if rng.chance(0.1):
                addresses.append(start)
                writes.append(True)  # memtable-ish update
    else:
        # Streaming kernels: long sequential scans with a small stride mix.
        position = 0
        while len(addresses) < max_accesses:
            run = rng.randint(64, 512)
            stride = 64 if kernel == "blackscholes" else rng.choice([64, 128])
            write_every = 4 if kernel == "swaptions" else 8
            for i in range(run):
                address = base + (position % footprint_bytes)
                addresses.append(address)
                writes.append(i % write_every == 0)
                position += stride
            if rng.chance(0.2):
                position = rng.randint(0, footprint_bytes - 1) & ~63
    trace.truncate(max_accesses)
    return Workload(
        name=kernel,
        trace=trace,
        footprint_pages=footprint_pages,
        content=ContentSynthesizer(
            "rocksdb" if kernel == "rocksdb" else "small", seed).page,
        compute_cycles_per_access=8.0,
        description=f"small regular workload: {kernel}",
        base_vpn=_SMALL_BASE >> 12,
    )


#: Bandwidth-intensive kernels used in the Figure 22 interleaving study.
BANDWIDTH_KERNELS = ("stream", "sp", "D", "hpcg")


def bandwidth_workload(kernel: str, footprint_pages: int = 6_000,
                       max_accesses: int = 80_000, seed: int = 6) -> Workload:
    """Streaming/stencil kernels that saturate channel bandwidth."""
    if kernel not in BANDWIDTH_KERNELS:
        raise ValueError(f"unknown bandwidth kernel {kernel!r}")
    rng = DeterministicRNG(seed + _kernel_offset(kernel))
    base = _BW_BASE
    footprint_bytes = footprint_pages * PAGE_SIZE
    third = footprint_bytes // 3 & ~4095
    trace = Trace()
    addresses, writes = trace.addresses, trace.writes
    position = 0
    while len(addresses) < max_accesses:
        if kernel == "stream":
            # Triad: a[i] = b[i] + s*c[i]; three streams, one written.
            addresses.append(base + third + position % third)
            writes.append(False)
            addresses.append(base + 2 * third + position % third)
            writes.append(False)
            addresses.append(base + position % third)
            writes.append(True)
            position += 64
        elif kernel == "sp":
            # Strided panels (NAS SP-like): stride across planes.
            plane = (position // 64) % 96
            addresses.append(
                base + (plane * 32_768 + position) % footprint_bytes)
            writes.append(plane % 3 == 0)
            position += 64
        elif kernel == "D":
            # Random-ish gather/scatter bursts.
            start = rng.randint(0, footprint_bytes - 4096) & ~63
            for offset in range(0, 512, 64):
                addresses.append(base + start + offset)
                writes.append(offset == 0)
        else:  # hpcg: sparse matvec -- sequential rows + indexed gathers
            addresses.append(base + position % third)
            writes.append(False)
            gather = rng.zipf_index(third // 64) * 64
            addresses.append(base + third + gather)
            writes.append(False)
            addresses.append(base + 2 * third + position % third)
            writes.append(True)
            position += 64
    trace.truncate(max_accesses)
    return Workload(
        name=kernel,
        trace=trace,
        footprint_pages=footprint_pages,
        content=ContentSynthesizer("stream", seed).page,
        compute_cycles_per_access=1.0,
        description=f"bandwidth-intensive kernel: {kernel}",
        base_vpn=_BW_BASE >> 12,
    )
