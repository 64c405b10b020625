"""Multi-core trace-driven simulation (Table III: 4 cores).

Each core gets private structures (TLB, page-walk cache, L1, L2,
prefetchers); the L3, the compression controller (with its CTE cache and
CTE buffer), and DRAM are shared, as in the simulated machine.

Threading model follows the paper's workloads: multi-threaded benchmarks
share one address space, so the trace is partitioned round-robin into one
stream per core (mcf/omnetpp, single-threaded in the paper, are run as
four instances there; here the round-robin split of an instance's trace
plays the same role of generating concurrent independent request streams).

Cores advance their own clocks; shared-resource contention appears
through the DRAM channel's busy horizon and through L3/CTE-cache
interference.  The reported performance is aggregate throughput.

Like the single-core engine, construction runs through a
:class:`~repro.sim.context.SimContext`; per-core components live in the
component tree under ``core<i>.*`` and shared ones at the top level, so
the metrics registry exposes, e.g., ``core0.tlb.hit_rate`` next to the
shared ``controller.cte_cache.hit_rate``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.sa_cache import SetAssociativeCache
from repro.common.units import PAGE_SIZE
from repro.core import (  # noqa: F401  (importing registers the built-ins)
    CONTROLLER_REGISTRY,
    TwoLevelController,
    create_controller,
)
from repro.core.compmodel import PageCompressionModel
from repro.core.config import SystemConfig
from repro.dram.system import DRAMSystem
from repro.sim.context import SimContext
from repro.sim.results import SimResult
from repro.sim.space import address_space
from repro.vm.pagetable import PageTable
from repro.vm.tlb import TLB
from repro.vm.walker import PageWalker
from repro.workloads.trace import Workload


class _Core:
    """Private per-core state."""

    def __init__(self, index: int, system: SystemConfig, table: PageTable,
                 shared_l3: SetAssociativeCache) -> None:
        self.index = index
        self.tlb = TLB(entries=system.tlb_entries, name=f"tlb{index}")
        self.walker = PageWalker(table)
        self.hierarchy = CacheHierarchy(system.cache, shared_l3=shared_l3)
        self.now_ns = 0.0
        self.accesses = 0


class MultiCoreSimulator:
    """N cores replaying round-robin partitions of one workload trace."""

    def __init__(
        self,
        workload: Workload,
        num_cores: int = 4,
        controller: str = "tmcc",
        system: Optional[SystemConfig] = None,
        dram_budget_bytes: Optional[int] = None,
        seed: int = 1,
        model: Optional[PageCompressionModel] = None,
        context: Optional[SimContext] = None,
    ) -> None:
        if num_cores < 1:
            raise ValueError("need at least one core")
        if controller not in CONTROLLER_REGISTRY:
            raise ValueError(f"unknown controller {controller!r}; "
                             f"choose from {CONTROLLER_REGISTRY.names()}")
        self.context = context or SimContext(system, seed)
        self.workload = workload
        self.num_cores = num_cores
        self.controller_name = controller
        self.system = self.context.system

        # The single-core address space with warm placement (no drift),
        # shared with any simulator of that shape on the workload.
        self.space = address_space(workload, self.context, huge_pages=False,
                                   placement_drift=0.0, virtualized=False)
        self.table = self.space.table

        shared_l3 = SetAssociativeCache(self.system.cache.l3_size,
                                        self.system.cache.l3_assoc, "l3")
        self.context.metrics.attach("cache.l3", shared_l3.stats)
        self.cores = [
            _Core(i, self.system, self.table, shared_l3)
            for i in range(num_cores)
        ]
        for core in self.cores:
            prefix = f"core{core.index}"
            self.context.register(f"{prefix}.tlb", core.tlb)
            self.context.register(f"{prefix}.walker.pwc", core.walker.pwc)
            self.context.metrics.attach(f"{prefix}.walker.walks",
                                        core.walker.walks)
            self.context.metrics.attach(f"{prefix}.cache.l1",
                                        core.hierarchy.l1.stats)
            self.context.metrics.attach(f"{prefix}.cache.l2",
                                        core.hierarchy.l2.stats)
        self.dram = self.context.register("dram", DRAMSystem(self.system.dram))
        self.model = model or PageCompressionModel.for_system(
            workload.content, self.system, seed)
        self.controller = self.context.register(
            "controller",
            create_controller(controller, self.system, self.dram, seed=seed),
        )
        self.controller.attach_instrumentation(
            self.context.probe("controller", stats=self.controller.stats))
        self.context.metrics.attach("controller.paths",
                                    self.controller.path_fractions)
        # Per-stage access-pipeline latencies, same namespaces as the
        # single-core simulator.
        self.context.metrics.attach("controller.stage",
                                    self.controller.stage_stats)
        self.context.metrics.attach("controller.breakdown",
                                    self.controller.stage_accounting)
        if hasattr(self.controller, "cte_cache"):
            self.context.register("controller.cte_cache",
                                  self.controller.cte_cache)

        space = self.space
        if isinstance(self.controller, TwoLevelController):
            self.controller.initialize(space.data_ppns, space.hotness,
                                       space.table_ppns, self.model,
                                       dram_budget_bytes)
        else:
            self.controller.initialize(space.data_ppns, space.hotness,
                                       space.table_ppns, self.model)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, warmup_fraction: float = 0.2) -> SimResult:
        """Replay the partitioned trace; cores interleave by local time."""
        # Core i replays accesses i, i + n, i + 2n, ...: strided views of
        # the trace's two columns, so no per-core copy is made.
        trace = self.workload.trace
        addresses = memoryview(trace.addresses)
        writes = memoryview(trace.writes)
        streams = [(addresses[i::self.num_cores], writes[i::self.num_cores])
                   for i in range(self.num_cores)]
        compute_ns = self.system.cycles_to_ns(
            self.workload.compute_cycles_per_access)

        warmup = int(len(self.workload.trace) * warmup_fraction)
        positions = [0] * self.num_cores
        executed = 0
        measured = 0
        measure_start = None
        while True:
            # The least-advanced core with work remaining executes next;
            # that's how concurrent streams interleave at the shared MC.
            candidates = [c for c in self.cores
                          if positions[c.index] < len(streams[c.index][0])]
            if not candidates:
                break
            core = min(candidates, key=lambda c: c.now_ns)
            core_addresses, core_writes = streams[core.index]
            position = positions[core.index]
            vaddr = core_addresses[position]
            is_write = bool(core_writes[position])
            positions[core.index] += 1
            executed += 1
            if executed == warmup:
                measure_start = max(c.now_ns for c in self.cores)
            core.now_ns += compute_ns
            stall = self._core_access(core, vaddr, is_write)
            core.now_ns += stall * self.system.mlp_stall_factor
            if executed > warmup:
                measured += 1

        end = max(c.now_ns for c in self.cores)
        self.context.clock.now_ns = end
        elapsed = end - (measure_start or 0.0)
        return self._result(measured, max(1.0, elapsed))

    def _core_access(self, core: _Core, vaddr: int, is_write: bool) -> float:
        system = self.system
        vpn = vaddr >> 12
        stall = 0.0
        if not core.tlb.lookup(vpn):
            if self.context.bus.active:
                self.context.bus.publish("sim.tlb_miss", core.now_ns,
                                         vpn=vpn, core=core.index)
            try:
                walk = core.walker.walk(vpn)
            except KeyError:
                return 0.0
            for level, ptb_address in walk.fetches:
                result = core.hierarchy.access(ptb_address, is_ptb=True)
                stall += system.cycles_to_ns(result.latency_cycles)
                if result.l3_miss:
                    miss = self.controller.serve_l3_miss(
                        ptb_address >> 12, (ptb_address >> 6) & 63,
                        core.now_ns + stall, False)
                    stall += miss.latency_ns
                for block in result.dram_writebacks:
                    self.controller.serve_writeback(block >> 6, block & 63,
                                                    core.now_ns + stall)
                self.controller.note_ptb_fetch(
                    level, ptb_address, self.table.ptb_at(ptb_address),
                    huge_leaf=False)
            core.tlb.fill(vpn)
        ppn = self.space.translation.get(vpn)
        if ppn is None:
            return stall
        paddr = ppn * PAGE_SIZE + (vaddr & (PAGE_SIZE - 1))
        result = core.hierarchy.access(paddr, is_write=is_write)
        stall += system.cycles_to_ns(result.latency_cycles)
        if result.l3_miss:
            miss = self.controller.serve_l3_miss(
                ppn, (vaddr & (PAGE_SIZE - 1)) >> 6,
                core.now_ns + stall, is_write)
            stall += miss.latency_ns
        for block in result.dram_writebacks:
            self.controller.serve_writeback(block >> 6, block & 63,
                                            core.now_ns + stall)
        return stall

    def metrics_snapshot(self) -> Dict[str, float]:
        """Every component's statistics under namespaced keys."""
        return self.context.metrics.snapshot()

    def _result(self, accesses: int, elapsed_ns: float) -> SimResult:
        controller = self.controller
        tlb_total = sum(c.tlb.stats.total for c in self.cores)
        tlb_misses = sum(c.tlb.stats.misses for c in self.cores)
        result = SimResult(
            workload=self.workload.name,
            controller=self.controller_name,
            accesses=accesses,
            elapsed_ns=elapsed_ns,
            tlb_miss_rate=tlb_misses / tlb_total if tlb_total else 0.0,
            tlb_misses=tlb_misses,
            cte_hit_rate=getattr(controller, "cte_hit_rate", 1.0),
            l3_misses=controller.stats.counter("l3_misses").value,
            avg_l3_miss_latency_ns=controller.average_miss_latency_ns,
            dram_reads=self.dram.stats.counter("reads").value,
            dram_writes=self.dram.stats.counter("writes").value,
            row_hit_rate=self.dram.row_hit_rate,
            bandwidth_utilization=self.dram.bandwidth_utilization(elapsed_ns),
            dram_used_bytes=controller.dram_used_bytes(),
            footprint_bytes=self.workload.footprint_pages * PAGE_SIZE,
            path_fractions=controller.path_fractions(),
            metrics=self.metrics_snapshot(),
        )
        if isinstance(controller, TwoLevelController):
            result.ml2_access_rate = controller.ml2_access_rate()
        return result
