"""The trace-driven simulator.

Replays one workload's access trace through the full stack:

    virtual address -> TLB -> (page walk: PTB fetches through the caches,
    with TMCC harvesting embedded CTEs) -> cache hierarchy -> compression
    controller (CTE cache / CTE fetch / ML2 decompress / migrations) ->
    DRAM banks and queues

Latency accounting follows Section VI's spirit: on-chip cycles and DRAM
nanoseconds accumulate per access; the wall clock advances by compute
time plus the fraction of the memory stall the 4-wide OoO core cannot
hide (``mlp_stall_factor``).  Absolute IPC is not claimed -- only the
relative comparisons the paper makes.

Construction runs through a :class:`~repro.sim.context.SimContext`: it
owns the RNG streams, the clock, the component tree, and the
instrumentation surface (event bus + metrics registry).  Controllers are
instantiated by name from the controller registry
(:data:`repro.core.base.CONTROLLER_REGISTRY`), so new designs plug in by
decorating a class -- no simulator edits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cache.hierarchy import CacheHierarchy
from repro.common.units import PAGE_SIZE
from repro.core import (  # noqa: F401  (importing registers the built-ins)
    CONTROLLER_REGISTRY,
    TMCCController,
    TwoLevelController,
    create_controller,
)
from repro.core.compmodel import PageCompressionModel
from repro.core.config import SystemConfig
from repro.dram.system import DRAMSystem
from repro.sim.context import SimContext
from repro.sim.fastpath import run_fast
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.results import SimResult
from repro.sim.space import AddressSpace, address_space
from repro.vm.tlb import TLB
from repro.vm.walker import PageWalker
from repro.workloads.trace import Workload


def build_controller(context: SimContext, name: str, dram: DRAMSystem,
                     space: AddressSpace, model: PageCompressionModel,
                     dram_budget_bytes: Optional[int], seed: int):
    """Create controller ``name`` at ``controller`` in ``context``'s tree,
    wire its instrumentation and its path, stage and CTE-cache metrics,
    and place ``space``'s pages (a two-level controller within
    ``dram_budget_bytes``)."""
    controller = context.register(
        "controller", create_controller(name, context.system, dram, seed=seed))
    controller.attach_instrumentation(
        context.probe("controller", stats=controller.stats))
    context.metrics.attach("controller.paths", controller.path_fractions)
    # Per-stage access-pipeline latencies (Figures 8/18): histograms
    # under controller.stage.*, per-path aggregation under
    # controller.breakdown.* (both reset at the warm-up boundary).
    context.metrics.attach("controller.stage", controller.stage_stats)
    context.metrics.attach("controller.breakdown",
                           controller.stage_accounting)
    if hasattr(controller, "cte_cache"):
        context.register("controller.cte_cache", controller.cte_cache)
    if isinstance(controller, TwoLevelController):
        controller.initialize(space.data_ppns, space.hotness,
                              space.table_ppns, model, dram_budget_bytes)
    else:
        controller.initialize(space.data_ppns, space.hotness,
                              space.table_ppns, model)
    return controller


@dataclass
class RunProgress:
    """Where a (possibly supervised) trace replay currently stands.

    Lives on the simulator so a checkpoint of the simulator object
    captures the loop position alongside every component's state.
    """

    index: int
    warmup_end: int
    measured: int = 0
    measure_start_ns: float = 0.0


class Simulator:
    """One workload x one memory-system configuration."""

    def __init__(
        self,
        workload: Workload,
        controller: str = "tmcc",
        system: Optional[SystemConfig] = None,
        dram_budget_bytes: Optional[int] = None,
        huge_pages: bool = False,
        seed: int = 1,
        model: Optional[PageCompressionModel] = None,
        placement_drift: float = 0.03,
        virtualized: bool = False,
        context: Optional[SimContext] = None,
        fault_plan: Optional[FaultPlan] = None,
        resilience: bool = False,
    ) -> None:
        CONTROLLER_REGISTRY.get(controller)  # fail fast on an unknown name
        if virtualized and huge_pages:
            raise ValueError("virtualized mode models 4 KB guest pages only")
        self.context = context or SimContext(system, seed)
        self.workload = workload
        self.controller_name = controller
        self.system = self.context.system
        self.clock = self.context.clock
        self.huge_pages = huge_pages
        #: Run the workload inside a VM: TLB misses take 2D nested walks
        #: through a host page table (Figure 12b); TMCC harvests embedded
        #: CTEs from every *host* PTB fetch of each nested walk.
        self.virtualized = virtualized
        #: Warm-up imperfection: a ``placement_drift`` fraction of warm
        #: pages start cold in ML2 (see :mod:`repro.sim.space`).
        self.placement_drift = placement_drift

        # -- virtual memory: shared by every simulator on the workload --
        self.space = address_space(workload, self.context, huge_pages,
                                   placement_drift, virtualized)
        self.table = self.space.table
        self.host_table = self.space.host_table

        self.tlb = self.context.register(
            "tlb", TLB(entries=self.system.tlb_entries))
        self.walker = self.context.register("walker", PageWalker(self.table))
        self.context.register("walker.pwc", self.walker.pwc)
        self.context.metrics.attach("walker.walks", self.walker.walks)
        self.context.metrics.attach("walker.ptb_fetches",
                                    self.walker.ptb_fetches)
        self.hierarchy = self.context.register(
            "cache", CacheHierarchy(self.system.cache))
        self.context.metrics.attach("cache.l1", self.hierarchy.l1.stats)
        self.context.metrics.attach("cache.l2", self.hierarchy.l2.stats)
        self.context.metrics.attach("cache.l3", self.hierarchy.l3.stats)
        self.dram = self.context.register("dram", DRAMSystem(self.system.dram))

        # -- virtualization: nested walks through the host page table ----
        self.nested_walker = None
        if virtualized:
            from repro.vm.nested import NestedPageWalker

            self.nested_walker = self.context.register(
                "nested_walker", NestedPageWalker(self.table, self.host_table))

        # -- compression model and controller ---------------------------
        self.model = model or PageCompressionModel.for_system(
            workload.content, self.system, seed)
        self.controller = build_controller(
            self.context, controller, self.dram, self.space, self.model,
            dram_budget_bytes, seed)
        if hasattr(self.controller, "migration"):
            migration = self.context.register("controller.migration",
                                              self.controller.migration)
            self.context.metrics.attach("controller.migration.stalls",
                                        migration.stalls)
            self.context.metrics.attach("controller.migration.stall_ns",
                                        migration.stall_ns)
        if isinstance(self.controller, TwoLevelController):
            self.context.metrics.attach("controller.ml2", self._ml2_metrics)

        # -- resilience: fault injection + graceful degradation ---------
        #: With a fault plan (or ``resilience=True``) the controller's
        #: emergency paths arm; without either, nothing differs from a
        #: fault-free build (bit-identical runs).
        self._fault_injector: Optional[FaultInjector] = None
        if fault_plan:
            self._fault_injector = FaultInjector(
                fault_plan, self.context.rng("faults"), self.controller,
                bus=self.context.bus)
        elif resilience:
            self.controller.resilience.enabled = True
        self.context.metrics.attach("resilience",
                                    self.controller.resilience.stats)

        # -- observability (all opt-in; None keeps hooks free) ----------
        #: Span tracer (``--trace-sample``); every hook is an ``is None``
        #: check, so untraced runs stay bit-identical.
        self.tracer = None
        #: Windowed metrics recorder (``--interval-ns``).
        self.timeseries = None

        # -- per-run counters -------------------------------------------
        self._fig5_cte_misses = 0
        self._fig5_after_tlb = 0
        self._l3_data_misses = 0
        self._tlb_misses = 0
        #: In-flight replay position; ``None`` between runs.  A run
        #: supervisor checkpoints the simulator mid-loop, so progress is
        #: part of the object's picklable state.
        self._run_state: Optional[RunProgress] = None
        self.context.metrics.attach("sim", self._sim_metrics)

    # ------------------------------------------------------------------
    # Observability attachment
    # ------------------------------------------------------------------

    def attach_tracer(self, tracer) -> "object":
        """Adopt a :class:`~repro.sim.tracing.SpanTracer`.

        The tracer also listens on the context bus so migrations and
        injected faults land as instant markers inside sampled traces.
        """
        self.tracer = tracer
        tracer.attach_bus(self.context.bus)
        return tracer

    def attach_timeseries(self, recorder) -> "object":
        """Adopt a :class:`~repro.sim.timeseries.TimeSeriesRecorder`."""
        self.timeseries = recorder
        return recorder

    def describe_run(self) -> Dict[str, object]:
        """The run's configuration, for ``run_config`` in ``--emit-json``
        documents and the header of ``repro report``."""
        return {
            "workload": self.workload.name,
            "controller": self.controller.describe(),
            "seed": self.context.seed,
            "huge_pages": self.huge_pages,
            "virtualized": self.virtualized,
            "placement_drift": self.placement_drift,
            "trace_length": len(self.workload.trace),
            "footprint_pages": self.workload.footprint_pages,
            "tlb_entries": self.system.tlb_entries,
            "mlp_stall_factor": self.system.mlp_stall_factor,
        }

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def fast_path_eligible(self) -> bool:
        """True when no observer hook runs: no tracer, time-series
        recorder, profiler, fault injector or bus subscriber is
        attached, so the replay pays for none of them."""
        return (self.tracer is None
                and self.timeseries is None
                and self.context.profiler is None
                and self._fault_injector is None
                and not self.context.bus.active)

    def run(self, warmup_fraction: float = 0.2,
            supervisor=None) -> SimResult:
        """Replay the trace; statistics cover the post-warmup region.

        The replay is :func:`repro.sim.fastpath.run_fast`, with every
        attached observer as a hook.  With a
        :class:`~repro.sim.supervisor.RunSupervisor`, the run
        additionally checkpoints on the supervisor's cadence and stops
        early (returning a partial result flagged ``truncated``) when
        its wall-clock watchdog fires.  A simulator restored from a
        checkpoint resumes exactly where it stopped: the loop position
        rides on the object as :class:`RunProgress`.
        """
        state = self._run_state
        if state is None:
            state = self._run_state = RunProgress(
                index=0,
                warmup_end=int(len(self.workload.trace) * warmup_fraction))
        try:
            stop_reason = run_fast(self, state, supervisor)
        finally:
            # Flush/close owned writers even when the loop dies early, so
            # --trace-events files are never left truncated and unflushed.
            self.context.close_owned()

        result = self._build_result(state.measured,
                                    self.clock.now_ns - state.measure_start_ns)
        if stop_reason is not None:
            result.truncated = True
            result.error = stop_reason
        else:
            self._run_state = None  # finished: a fresh run() starts over
        return result

    # ------------------------------------------------------------------
    # Statistics plumbing
    # ------------------------------------------------------------------

    def _sim_metrics(self) -> Dict[str, float]:
        """The simulator's own counters, as a metrics source."""
        return {
            "tlb_misses": self._tlb_misses,
            "l3_data_misses": self._l3_data_misses,
            "fig5_cte_misses": self._fig5_cte_misses,
            "fig5_after_tlb": self._fig5_after_tlb,
            "now_ns": self.clock.now_ns,
        }

    def _ml2_metrics(self) -> Dict[str, float]:
        controller = self.controller
        return {
            "access_rate": controller.ml2_access_rate(),
            "ml1_pages": controller.ml1_page_count,
            "ml2_pages": controller.ml2_page_count,
        }

    def metrics_snapshot(self) -> Dict[str, float]:
        """Every component's statistics under namespaced keys."""
        return self.context.metrics.snapshot()

    def _reset_stats(self) -> None:
        self.context.reset_metrics()
        self._fig5_cte_misses = 0
        self._fig5_after_tlb = 0
        self._l3_data_misses = 0
        self._tlb_misses = 0
        if self.timeseries is not None:
            # Re-baseline deltas on the zeroed registry so the first
            # measured window is not one huge negative delta.
            self.timeseries.on_reset()

    def _build_result(self, accesses: int, elapsed_ns: float) -> SimResult:
        controller = self.controller
        stats = controller.stats
        cte_hit_rate = getattr(controller, "cte_hit_rate", 1.0)
        cte_misses = 0
        if hasattr(controller, "cte_cache"):
            cte_misses = controller.cte_cache.stats.misses
        result = SimResult(
            workload=self.workload.name,
            controller=self.controller_name,
            accesses=accesses,
            elapsed_ns=elapsed_ns,
            tlb_miss_rate=self.tlb.stats.miss_rate,
            tlb_misses=self._tlb_misses,
            cte_hit_rate=cte_hit_rate,
            cte_misses=cte_misses,
            cte_misses_after_tlb_miss=(
                self._fig5_after_tlb / self._fig5_cte_misses
                if self._fig5_cte_misses else 0.0
            ),
            l3_misses=stats.count_of("l3_misses"),
            l3_data_misses=self._l3_data_misses,
            avg_l3_miss_latency_ns=controller.average_miss_latency_ns,
            dram_reads=self.dram.stats.count_of("reads"),
            dram_writes=self.dram.stats.count_of("writes"),
            row_hit_rate=self.dram.row_hit_rate,
            bandwidth_utilization=self.dram.bandwidth_utilization(
                max(1.0, elapsed_ns)
            ),
            dram_used_bytes=controller.dram_used_bytes(),
            footprint_bytes=self.workload.footprint_pages * PAGE_SIZE,
            path_fractions=controller.path_fractions(),
            metrics=self.metrics_snapshot(),
        )
        if isinstance(controller, TwoLevelController):
            result.ml2_access_rate = controller.ml2_access_rate()
            result.extra["ml1_pages"] = controller.ml1_page_count
            result.extra["ml2_pages"] = controller.ml2_page_count
        if isinstance(controller, TMCCController):
            result.extra["embedded_coverage"] = controller.embedded_coverage
        return result
