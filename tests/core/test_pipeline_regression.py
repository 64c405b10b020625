"""Golden-latency regression for the controllers' miss paths.

Every refactor of the miss service is pinned to **bit-identical**
per-access latencies captured for a fixed trace/seed.  Totals are
compared by ``repr`` so any fp re-association fails loudly rather than
rounding away.
"""

import pytest

from repro.core import PageCompressionModel, SystemConfig, create_controller
from repro.dram.system import DRAMSystem
from repro.sim.simulator import Simulator
from repro.workloads.suite import workload_by_name

from tests.oracles.observed import serve_l3_miss

#: controller -> (avg miss latency repr, LLC misses, elapsed repr, DRAM reads)
#: captured pre-refactor: mcf, max_accesses=6000, scale=0.12, seed=3,
#: budget = 70% of footprint for the two-level designs.
FULL_SIM_GOLDEN = {
    "compresso": ("72.41417133458619", 285, "13501.742473660925", 418),
    "compresso_llc_victim": ("82.47161218671651", 285,
                             "14791.609262946364", 418),
    "osinspired": ("111.13212151574618", 285, "18467.319584394216", 354),
    "osinspired_fastml2": ("75.19355463283185", 285,
                           "13858.198381660906", 354),
    "tmcc": ("68.35555510400968", 285, "12981.224942089702", 354),
    "uncompressed": ("50.389590852130176", 285, "10677.090026786153", 285),
}

BUDGETED = ("osinspired", "osinspired_fastml2", "tmcc")


@pytest.mark.parametrize("controller", sorted(FULL_SIM_GOLDEN))
def test_full_sim_latency_bit_identical(controller):
    workload = workload_by_name("mcf", max_accesses=6000, scale=0.12)
    budget = (int(workload.footprint_pages * 4096 * 0.7)
              if controller in BUDGETED else None)
    result = Simulator(workload, controller=controller, seed=3,
                       dram_budget_bytes=budget).run()
    avg, misses, elapsed, reads = FULL_SIM_GOLDEN[controller]
    assert repr(result.avg_l3_miss_latency_ns) == avg
    assert result.l3_misses == misses
    assert repr(result.elapsed_ns) == elapsed
    assert result.dram_reads == reads


def test_tmcc_per_path_latency_and_stages():
    """Each TMCC service path keeps its pre-refactor latency, and the
    timeline decomposes it into the expected stages (Figure 8)."""
    workload = workload_by_name("mcf", max_accesses=2000, scale=0.1)
    config = SystemConfig()
    controller = create_controller("tmcc", config, DRAMSystem(config.dram),
                                   seed=5)
    model = PageCompressionModel(workload.content,
                                 sample_pages=config.compression_samples,
                                 deflate_config=config.deflate,
                                 timing=config.deflate_timing,
                                 ibm=config.ibm_timing, seed=5)
    ppns = list(range(100, 160))
    controller.initialize(ppns, {p: i for i, p in enumerate(ppns)},
                          [50, 51], model, int(len(ppns) * 4096 * 0.8))

    # Stale embedded CTE for ppn 100 -> parallel verify detects a mismatch.
    snapshot = controller._snapshot(100)
    controller._cte_buffer[100] = ((snapshot[0] + 1,) + snapshot[1:], 0xBEEF)
    mismatch = serve_l3_miss(controller, 100, 3, 100.0)
    # Fresh embedded CTE for ppn 120 -> speculation wins.
    controller._cte_buffer[120] = (controller._snapshot(120), 0xBEEF)
    ok = serve_l3_miss(controller, 120, 5, 300.0)
    # No embedded CTE, CTE-cache miss -> serial, like prior work.
    serial_miss = serve_l3_miss(controller, 108, 1, 500.0)
    # Page resident in ML2 -> decompress + migrate.
    ml2 = serve_l3_miss(controller, 136, 0, 700.0)

    assert (mismatch.latency_ns, mismatch.path) == (84.75, "parallel_mismatch")
    assert (ok.latency_ns, ok.path) == (50.5, "parallel_ok")
    assert (serial_miss.latency_ns, serial_miss.path) == (64.25,
                                                          "serial_no_cte")
    assert (ml2.latency_ns, ml2.path) == (860.338, "ml2")

    # Stage decomposition and critical-path / wasted-work attribution.
    assert mismatch.timeline.stage_names() == [
        "cte_fetch", "spec_data_fetch", "data_fetch"]
    assert [s.name for s in mismatch.timeline.spans if s.wasted] == [
        "spec_data_fetch"]
    assert ok.timeline.stage_names() == ["cte_fetch", "data_fetch"]
    assert not ok.timeline.span("cte_fetch").critical  # lost the race
    assert ok.timeline.span("cte_fetch").slack_ns == 34.25
    assert serial_miss.timeline.stage_names() == ["cte_fetch", "data_fetch"]
    assert all(s.critical for s in serial_miss.timeline.spans)
    assert ml2.timeline.stage_names() == [
        "cte_fetch", "ml2_read", "decompress", "migration_stall", "evict"]

    # Every recorded timeline's critical spans add up to its total.
    for result in (mismatch, ok, serial_miss, ml2):
        assert abs(result.timeline.critical_ns()
                   - result.timeline.total_ns) < 1e-9
