"""Failure-injection tests: the mechanisms that keep TMCC correct.

The speculative parallel access is only safe because the verifying CTE
read catches every stale embedded CTE.  These tests corrupt state on
purpose -- stale embedded CTEs, saturated migration buffers, starved free
lists -- and check the design degrades gracefully instead of serving
wrong data or wedging.
"""

import pytest

from repro.common.errors import ConfigError
from repro.core.base import PATH_PARALLEL_MISMATCH, PATH_PARALLEL_OK
from repro.core.compmodel import PageCompressionModel
from repro.core.config import SystemConfig
from repro.core.tmcc import TMCCController
from repro.core.twolevel import TwoLevelController
from repro.dram.system import DRAMSystem
from repro.vm.pte import STATUS_DEFAULT_DATA, make_pte
from repro.workloads.content import ContentSynthesizer

from tests.oracles.observed import serve_l3_miss


@pytest.fixture(scope="module")
def model():
    return PageCompressionModel(ContentSynthesizer("graph", seed=21).page,
                                sample_pages=6, seed=21)


def build(model, cls=TMCCController, pages=200, budget_pages=150):
    controller = cls(SystemConfig(), DRAMSystem())
    ppns = list(range(500, 500 + pages))
    hotness = {ppn: rank for rank, ppn in enumerate(ppns)}
    controller.initialize(ppns, hotness, [], model,
                          dram_budget_bytes=budget_pages * 4096)
    return controller, ppns


def harvest(controller, group, ptb_address=0x9000):
    ptes = [make_pte(p, STATUS_DEFAULT_DATA) for p in group]
    controller.note_ptb_fetch(1, ptb_address, ptes, huge_leaf=False)


def test_every_corrupted_embedded_cte_is_caught(model):
    """Corrupt all eight embedded CTEs; each first use must take the
    mismatch path (never silently serve the wrong location) and each
    second use must be repaired."""
    controller, ppns = build(model)
    group = ppns[:8]
    harvest(controller, group)
    for offset, ppn in enumerate(group):
        controller._cte[ppn].dram_page ^= (offset + 1)  # corrupt
    now = 0.0
    for ppn in group:
        controller.cte_cache.flush()
        result = serve_l3_miss(controller, ppn, 0, now)
        assert result.path == PATH_PARALLEL_MISMATCH
        now += 100.0
    assert controller.stats.counter("embedded_repairs").value == 8
    for ppn in group:
        controller.cte_cache.flush()
        result = serve_l3_miss(controller, ppn, 0, now)
        assert result.path == PATH_PARALLEL_OK
        now += 100.0


def test_mismatch_costs_latency_but_never_correctness(model):
    controller, ppns = build(model)
    harvest(controller, ppns[:8])
    controller.cte_cache.flush()
    clean = serve_l3_miss(controller, ppns[1], 0, 0.0)
    controller._cte[ppns[0]].dram_page += 3
    controller.cte_cache.flush()
    dirty = serve_l3_miss(controller, ppns[0], 0, 1000.0)
    assert dirty.latency_ns > clean.latency_ns  # re-access penalty


def test_migration_buffer_saturation_stalls_but_recovers(model):
    """Hammer ML2 so all eight migration-buffer entries fill; accesses
    stall (Section VI) but continue to be served correctly."""
    controller, ppns = build(model, cls=TwoLevelController, pages=300,
                             budget_pages=180)
    cold = [p for p in ppns if controller._cte[p].in_ml2][:32]
    assert len(cold) >= 16
    # Fire all accesses at (nearly) the same instant.
    latencies = [serve_l3_miss(controller, p, 0, now_ns=float(i))
                 .latency_ns for i, p in enumerate(cold)]
    assert controller.migration.stalls.value > 0
    assert max(latencies) > min(latencies)
    # Migrations happened, and a migrated page serves as a fast ML1 hit.
    migrated = controller.stats.counter("ml2_to_ml1_migrations").value
    assert migrated > 0
    settled = next(p for p in cold if not controller._cte[p].in_ml2)
    check = serve_l3_miss(controller, settled, 1, now_ns=1e9)
    assert not check.in_ml2


def test_eviction_starvation_does_not_wedge(model):
    """Empty the recency list, then force migrations: the controller
    reports starvation/failures instead of crashing or losing pages."""
    controller, ppns = build(model, cls=TwoLevelController, pages=260,
                             budget_pages=170)
    while controller.recency.evict_coldest() is not None:
        pass
    cold = [p for p in ppns if controller._cte[p].in_ml2]
    now = 0.0
    for ppn in cold[:40]:
        serve_l3_miss(controller, ppn, 0, now)
        now += 50_000.0
    stats = controller.stats
    # Either the free-list reserve carried it, or starvation was recorded;
    # in no case did a page disappear.
    levels = [controller._cte[p].in_ml2 for p in ppns]
    assert len(levels) == 260
    assert (stats.counter("eviction_starved").value >= 0)


def test_unknown_page_misses_are_served_not_crashed(model):
    """I/O-space or late-mapped pages the controller never saw still get
    a DRAM access rather than a KeyError."""
    controller, _ = build(model)
    result = serve_l3_miss(controller, 0xDEAD00, 0, 0.0)
    assert result.latency_ns > 0


def test_incompressible_page_eviction_is_skipped_not_fatal():
    """A controller whose every page is incompressible cannot evict; ML2
    misses must still be served (no infinite loop)."""
    import random

    rng = random.Random(3)
    incompressible_model = PageCompressionModel(
        lambda vpn: rng.randbytes(4096), sample_pages=3, seed=3
    )
    controller = TwoLevelController(SystemConfig(), DRAMSystem())
    ppns = list(range(50))
    hotness = {p: i for i, p in enumerate(ppns)}
    # Budget: everything fits in ML1 (incompressible pages must).
    controller.initialize(ppns, hotness, [], incompressible_model,
                          dram_budget_bytes=70 * 4096)
    controller._maybe_evict(0.0, force_one=True)
    assert controller.stats.counter("incompressible_retained").value >= 0
    result = serve_l3_miss(controller, ppns[0], 0, 0.0)
    assert result.latency_ns > 0


# ----------------------------------------------------------------------
# Declarative fault plans (repro.sim.faults)
# ----------------------------------------------------------------------

def run_with_plan(spec_text, budget_fraction=None, accesses=6000,
                  scale=0.12, seed=3):
    """One deterministic TMCC run under a fault plan; returns the result
    and the ``resilience.*`` metrics with the prefix stripped."""
    from repro.sim.faults import FaultPlan
    from repro.sim.simulator import Simulator
    from repro.workloads.suite import workload_by_name

    workload = workload_by_name("mcf", max_accesses=accesses, scale=scale)
    budget = None
    if budget_fraction is not None:
        budget = int(workload.footprint_pages * 4096 * budget_fraction)
    sim = Simulator(workload, controller="tmcc", seed=seed,
                    dram_budget_bytes=budget,
                    fault_plan=FaultPlan.parse(spec_text))
    result = sim.run()
    prefix = "resilience."
    resilience = {key[len(prefix):]: value
                  for key, value in result.metrics.items()
                  if key.startswith(prefix)}
    return result, resilience


def test_fault_plan_parse_round_trip():
    from repro.sim.faults import FaultPlan

    plan = FaultPlan.parse("stale_cte:0.05, dram_read_error:0.02:3@100-500")
    assert len(plan.specs) == 2
    spec = plan.specs[1]
    assert spec.kind == "dram_read_error"
    assert spec.rate == 0.02 and spec.burst == 3
    assert spec.start == 100 and spec.end == 500
    assert spec.active(100) and spec.active(499)
    assert not spec.active(99) and not spec.active(500)
    assert FaultPlan.parse(plan.describe()) == plan


def test_fault_plan_rejects_bad_specs():
    from repro.sim.faults import FaultPlan

    for text in ("bogus:0.1", "stale_cte:2.0", "stale_cte:0",
                 "stale_cte:0.1:0", "stale_cte@9-3", "stale_cte@x-y",
                 "stale_cte:0.1:2:9", ""):
        with pytest.raises(ConfigError):
            FaultPlan.parse(text)


def test_injected_stale_cte_takes_mismatch_path_then_repairs(model):
    """The injection hook plants a stale embedded CTE; the next access
    must take the verify-mismatch replay path, repair the entry, and
    serve the one after that speculatively again."""

    class PickFirst:
        def choice(self, candidates):
            return candidates[0]

    controller, ppns = build(model)
    harvest(controller, ppns[:8])
    ppn = controller.inject_stale_cte(PickFirst())
    assert ppn is not None
    mismatch = serve_l3_miss(controller, ppn, 0, 0.0)
    assert mismatch.path == PATH_PARALLEL_MISMATCH
    assert controller.resilience.stats.counter("cte_repairs").value == 1
    controller.cte_cache.flush()
    repaired = serve_l3_miss(controller, ppn, 0, 100.0)
    assert repaired.path == PATH_PARALLEL_OK


def test_stale_cte_fault_forces_verify_and_repair():
    """Acceptance: injected stale embedded CTEs are caught by the verify
    fetch (mismatch replay) and repaired, never served wrong."""
    result, resilience = run_with_plan("stale_cte:0.05",
                                       budget_fraction=0.7)
    assert resilience["faults.stale_cte"] > 0
    assert resilience["cte_repairs"] > 0
    assert not result.truncated


def test_ml2_exhaustion_degrades_gracefully_with_emergency_evictions():
    """Acceptance: stealing every free ML1 chunk mid-run completes
    without raising and reports the emergency-eviction response."""
    result, resilience = run_with_plan("ml2_exhaustion:0.1",
                                       budget_fraction=0.6)
    assert resilience["faults.ml2_exhaustion"] > 0
    assert resilience["chunks_stolen"] > 0
    assert resilience["emergency_evictions"] > 0
    assert resilience["overflow_uncompressed"] > 0
    assert not result.truncated
    assert result.accesses > 0


def test_dram_read_error_retries_are_bounded():
    _, small = run_with_plan("dram_read_error:0.02:2")
    assert small["dram_retries"] > 0
    assert "dram_retry_exhausted" not in small  # burst 2 < retry cap
    _, big = run_with_plan("dram_read_error:0.02:8")
    assert big["dram_retry_exhausted"] > 0  # burst 8 > retry cap


def test_incompressible_burst_overflows_to_uncompressed():
    """Burst-incompressible victims are retained uncompressed; the
    exhaustion spec supplies the capacity pressure that makes the
    eviction pump actually visit them."""
    _, resilience = run_with_plan(
        "incompressible_burst:0.05:8,ml2_exhaustion:0.05",
        budget_fraction=0.7)
    assert resilience["faults.incompressible_burst"] > 0
    assert resilience["incompressible_forced"] > 0
    assert resilience["overflow_uncompressed"] > 0


def test_migration_saturation_and_cache_invalidation_land():
    _, resilience = run_with_plan(
        "migration_saturation:0.02:4,cte_cache_invalidate:0.02",
        budget_fraction=0.7)
    assert resilience["faults.migration_saturation"] > 0
    assert resilience["faults.cte_cache_invalidate"] > 0


def test_fault_injection_is_deterministic():
    spec = "stale_cte:0.03,dram_read_error:0.02:2,ml2_exhaustion:0.05"
    first = run_with_plan(spec, budget_fraction=0.6)
    second = run_with_plan(spec, budget_fraction=0.6)
    assert first[0].as_dict() == second[0].as_dict()
    assert first[1] == second[1]


def test_dormant_fault_plan_is_bit_identical_to_baseline():
    """A plan whose window never opens must not perturb the run: the
    latency stream stays bit-identical to a plain simulation."""
    from repro.sim.simulator import Simulator
    from repro.workloads.suite import workload_by_name

    workload = workload_by_name("mcf", max_accesses=6000, scale=0.12)
    baseline = Simulator(workload, controller="tmcc", seed=3).run()
    dormant, resilience = run_with_plan("stale_cte:0.5@1000000-1000001")
    assert resilience.get("faults_injected", 0) == 0
    base_dict = baseline.as_dict()
    dormant_dict = dormant.as_dict()
    base_dict.pop("metrics")
    dormant_dict.pop("metrics")
    assert repr(dormant_dict) == repr(base_dict)


def test_every_fault_kind_smokes_on_every_controller():
    """Each fault kind on each registered controller, short runs, no
    exceptions allowed.  The plans are the ones `repro run --faults
    <kind>:0.05` builds."""
    from repro.core import available_controllers
    from repro.sim.faults import FAULT_KINDS, FaultPlan, plans_for_smoke
    from repro.sim.simulator import Simulator
    from repro.workloads.suite import workload_by_name

    plans = plans_for_smoke(rate=0.05)
    assert plans == [FaultPlan.parse(f"{kind}:0.05") for kind in FAULT_KINDS]
    for controller in available_controllers():
        for plan in plans:
            workload = workload_by_name("omnetpp", max_accesses=2000,
                                        scale=0.05)
            sim = Simulator(workload, controller=controller, seed=2,
                            fault_plan=plan)
            result = sim.run()
            assert result.accesses > 0
            assert not result.truncated
