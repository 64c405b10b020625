"""Experiment orchestration for the paper's headline comparisons.

These functions implement the *protocols* of Section VII:

- ``iso_capacity_comparison`` -- Figure 17/18/19: run Compresso, measure
  its DRAM usage, run TMCC at exactly that budget, compare performance.
- ``iso_performance_capacity`` -- Table IV: shrink TMCC's DRAM budget
  until its performance drops to (>= 99% of) Compresso's; report the
  compression-ratio advantage at that operating point.
- ``osinspired_split`` -- Figure 20: TMCC vs the bare-bone OS-inspired
  design at matched budgets, with the fast-ML2-only ablation separating
  the ML1 (embedded CTE) and ML2 (fast Deflate) contributions.

Since the sweep engine landed, these protocols are thin layers over it:
each one declares a :class:`~repro.sweep.spec.SweepSpec` (or a single
matrix cell), runs it inline through
:func:`~repro.sweep.engine.run_sweep` /
:func:`~repro.sweep.worker.execute_job` with ``capture_errors=False``
(so historical raise behaviour is preserved), and reduces the recorded
rows back to the paper's dataclasses.  A protocol run here is therefore
the *same computation* as the matching cells of a ``repro sweep run``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.compmodel import PageCompressionModel
from repro.core.config import SystemConfig
from repro.sim.results import SimResult
from repro.workloads.trace import Workload

# The sweep layer imports repro.sim.results (hence this package), so
# its modules are imported lazily inside the protocol functions.


def run_workload(
    workload: Workload,
    controller: str,
    system: Optional[SystemConfig] = None,
    dram_budget_bytes: Optional[int] = None,
    huge_pages: bool = False,
    seed: int = 1,
    model: Optional[PageCompressionModel] = None,
    cores: int = 1,
) -> SimResult:
    """Run one (workload, controller) configuration end to end.

    ``cores > 1`` routes through the multi-core engine (Table III's
    4-core configuration); huge pages are a single-core-only knob.
    """
    if cores > 1:
        if huge_pages:
            raise ValueError("huge_pages is only supported with cores=1")
        from repro.sim.multicore import MultiCoreSimulator

        return MultiCoreSimulator(
            workload,
            num_cores=cores,
            controller=controller,
            system=system,
            dram_budget_bytes=dram_budget_bytes,
            seed=seed,
            model=model,
        ).run()
    from repro.sweep.worker import execute_job

    record = execute_job(
        _cell(workload, controller, seed,
              budget_bytes=dram_budget_bytes, huge_pages=huge_pages),
        budget_bytes=dram_budget_bytes,
        workload=workload,
        system=system,
        model=model,
        capture_errors=False,
    )
    return record["result"]


def _cell(workload: Workload, controller: str, seed: int,
          budget_bytes: Optional[int] = None, huge_pages: bool = False):
    """A free-standing matrix cell for one pre-built workload object."""
    from repro.sweep.spec import BudgetSpec, JobSpec

    budget = (BudgetSpec("bytes", float(budget_bytes))
              if budget_bytes else BudgetSpec("none"))
    return JobSpec(
        index=0, workload=workload.name, controller=controller,
        seed=seed, base_seed=seed, repeat=0, budget=budget, faults=None,
        accesses=len(workload.trace), scale=1.0, workload_seed=seed,
        huge_pages=huge_pages,
    )


@dataclass
class IsoCapacityResult:
    """Figure 17's data for one workload."""

    workload: str
    compresso: SimResult
    tmcc: SimResult

    @property
    def speedup(self) -> float:
        return self.tmcc.performance / self.compresso.performance

    @property
    def budget_bytes(self) -> int:
        return self.compresso.dram_used_bytes


def iso_capacity_comparison(
    workload: Workload,
    system: Optional[SystemConfig] = None,
    seed: int = 1,
    huge_pages: bool = False,
) -> IsoCapacityResult:
    """TMCC at Compresso's DRAM usage (saving the same amount of memory).

    Declared as a two-cell sweep (Compresso at its default budget as
    the iso reference, TMCC at ``iso``) and reduced via
    :func:`~repro.sweep.reduce.iso_capacity_rows`.
    """
    from repro.sweep.engine import run_sweep
    from repro.sweep.reduce import iso_capacity_rows
    from repro.sweep.spec import SweepSpec

    system = system or SystemConfig()
    model = PageCompressionModel.for_system(workload.content, system, seed)
    spec = SweepSpec.build(
        name="iso-capacity",
        workloads=(workload.name,),
        controllers=("compresso", "tmcc@iso"),
        seeds=(seed,),
        huge_pages=huge_pages,
        known_workloads_only=False,
    )
    run = run_sweep(
        spec,
        capture_errors=False,
        workload_resolver=lambda job: workload,
        system=system,
        model=model,
    )
    row = iso_capacity_rows(run, subject="tmcc")[0]
    return IsoCapacityResult(workload.name, row["reference"], row["subject"])


@dataclass
class IsoPerformanceResult:
    """Table IV's data for one workload."""

    workload: str
    compresso: SimResult
    tmcc: SimResult

    @property
    def compresso_ratio(self) -> float:
        return self.compresso.compression_ratio

    @property
    def tmcc_ratio(self) -> float:
        return self.tmcc.compression_ratio

    @property
    def normalized_ratio(self) -> float:
        """Column F: TMCC's compression ratio over Compresso's."""
        return self.tmcc_ratio / self.compresso_ratio


def iso_performance_capacity(
    workload: Workload,
    system: Optional[SystemConfig] = None,
    seed: int = 1,
    performance_floor: float = 0.99,
    search_steps: int = 5,
) -> IsoPerformanceResult:
    """Shrink TMCC's budget until performance meets Compresso's floor.

    Binary-searches the DRAM budget between "fully compressed" and
    "Compresso's usage"; returns the smallest budget whose performance is
    still ``performance_floor`` of Compresso's.  Each probe is a single
    sweep-engine cell (through :func:`run_workload` /
    :func:`~repro.sweep.worker.execute_job`); the search itself stays
    sequential because every probe's budget depends on the last verdict.
    """
    system = system or SystemConfig()
    model = PageCompressionModel.for_system(workload.content, system, seed)
    compresso = run_workload(workload, "compresso", system, seed=seed,
                             model=model)
    target = compresso.performance * performance_floor

    high = compresso.dram_used_bytes
    low = int(high * 0.25)
    best: Optional[SimResult] = None
    for _ in range(search_steps):
        mid = (low + high) // 2
        try:
            candidate = run_workload(workload, "tmcc", system,
                                     dram_budget_bytes=mid, seed=seed,
                                     model=model)
        except ValueError:  # budget below the compressible floor
            low = mid
            continue
        if candidate.performance >= target:
            best = candidate
            high = mid
        else:
            low = mid
    if best is None:
        best = run_workload(workload, "tmcc", system,
                            dram_budget_bytes=compresso.dram_used_bytes,
                            seed=seed, model=model)
    return IsoPerformanceResult(workload.name, compresso, best)


@dataclass
class SplitResult:
    """Figure 20's data for one workload at one DRAM budget."""

    workload: str
    osinspired: SimResult
    fast_ml2_only: SimResult
    tmcc: SimResult

    @property
    def total_speedup(self) -> float:
        return self.tmcc.performance / self.osinspired.performance

    @property
    def ml2_speedup(self) -> float:
        """Benefit of the fast Deflate alone."""
        return self.fast_ml2_only.performance / self.osinspired.performance

    @property
    def ml1_speedup(self) -> float:
        """Benefit of embedded CTEs on top of the fast Deflate."""
        return self.tmcc.performance / self.fast_ml2_only.performance


def osinspired_split(
    workload: Workload,
    dram_budget_bytes: int,
    system: Optional[SystemConfig] = None,
    seed: int = 1,
) -> SplitResult:
    """TMCC vs barebone OS-inspired at one budget, with the ML2 ablation.

    A three-controller sweep at one absolute byte budget.
    """
    from repro.sweep.engine import run_sweep
    from repro.sweep.spec import SweepSpec

    system = system or SystemConfig()
    model = PageCompressionModel.for_system(workload.content, system, seed)
    spec = SweepSpec.build(
        name="osinspired-split",
        workloads=(workload.name,),
        controllers=tuple(
            {"name": name, "budgets": [int(dram_budget_bytes)]}
            for name in ("osinspired", "osinspired_fastml2", "tmcc")),
        seeds=(seed,),
        known_workloads_only=False,
    )
    run = run_sweep(
        spec,
        capture_errors=False,
        workload_resolver=lambda job: workload,
        system=system,
        model=model,
    )
    results = {name: run.result(run.find_jobs(controller=name)[0])
               for name in ("osinspired", "osinspired_fastml2", "tmcc")}
    return SplitResult(
        workload.name,
        osinspired=results["osinspired"],
        fast_ml2_only=results["osinspired_fastml2"],
        tmcc=results["tmcc"],
    )
