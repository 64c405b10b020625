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

Every access takes the single-core engine's path: the front end's
per-access step (:func:`repro.sim.fastpath.front_end_step`) on the
core's TLB, walker and caches, then its ops served at once on the core's
clock (:func:`repro.sim.fastpath.run_cores`).  Statistics reset after
exactly the warm-up accesses, as on one core, so a 1-core run is the
single-core :class:`~repro.sim.simulator.Simulator` without placement
drift at any warm-up fraction.

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
from repro.core import CONTROLLER_REGISTRY, TwoLevelController
from repro.core.compmodel import PageCompressionModel
from repro.core.config import SystemConfig
from repro.dram.system import DRAMSystem
from repro.sim.context import SimContext
from repro.sim.fastpath import run_cores
from repro.sim.results import SimResult
from repro.sim.simulator import build_controller
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
        CONTROLLER_REGISTRY.get(controller)  # fail fast on an unknown name
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
        self.controller = build_controller(
            self.context, controller, self.dram, self.space, self.model,
            dram_budget_bytes, seed)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, warmup_fraction: float = 0.2) -> SimResult:
        """Replay the partitioned trace; cores interleave by local time
        (:func:`~repro.sim.fastpath.run_cores`)."""
        count = len(self.workload.trace)
        warmup = int(count * warmup_fraction)
        measure_start = run_cores(self, warmup)
        end = max(core.now_ns for core in self.cores)
        self.context.clock.now_ns = end
        return self._result(max(0, count - warmup),
                            max(1.0, end - measure_start))

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
