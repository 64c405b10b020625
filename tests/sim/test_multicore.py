"""Tests for the multi-core simulator."""

import dataclasses

import pytest

from repro.core import available_controllers
from repro.sim.multicore import MultiCoreSimulator
from repro.sim.simulator import Simulator
from repro.workloads.suite import workload_by_name


@pytest.fixture(scope="module")
def workload():
    return workload_by_name("canneal", max_accesses=24_000, scale=0.12)


def test_validation(workload):
    with pytest.raises(ValueError):
        MultiCoreSimulator(workload, num_cores=0)
    with pytest.raises(ValueError):
        MultiCoreSimulator(workload, controller="warp-drive")


def test_four_cores_complete_the_whole_trace(workload):
    result = MultiCoreSimulator(workload, num_cores=4,
                                controller="uncompressed").run()
    assert result.accesses == int(workload.access_count * 0.8)
    assert result.elapsed_ns > 0


def test_aggregate_throughput_scales_with_cores(workload):
    """Four concurrent streams finish faster than one serial stream."""
    one = MultiCoreSimulator(workload, num_cores=1,
                             controller="uncompressed").run()
    four = MultiCoreSimulator(workload, num_cores=4,
                              controller="uncompressed").run()
    assert four.performance > 1.5 * one.performance


def test_shared_resources_create_contention(workload):
    """Per-core efficiency drops going 1 -> 4 cores (DRAM/L3 sharing)."""
    one = MultiCoreSimulator(workload, num_cores=1,
                             controller="uncompressed").run()
    four = MultiCoreSimulator(workload, num_cores=4,
                              controller="uncompressed").run()
    assert four.performance < 4.2 * one.performance


def test_tmcc_still_beats_compresso_at_four_cores(workload):
    compresso = MultiCoreSimulator(workload, num_cores=4,
                                   controller="compresso").run()
    tmcc = MultiCoreSimulator(
        workload, num_cores=4, controller="tmcc",
        dram_budget_bytes=compresso.dram_used_bytes,
    ).run()
    assert tmcc.performance > compresso.performance
    assert tmcc.avg_l3_miss_latency_ns < compresso.avg_l3_miss_latency_ns


def test_multicore_determinism(workload):
    a = MultiCoreSimulator(workload, num_cores=2, controller="tmcc",
                           seed=9).run()
    b = MultiCoreSimulator(workload, num_cores=2, controller="tmcc",
                           seed=9).run()
    assert a.elapsed_ns == b.elapsed_ns
    assert a.l3_misses == b.l3_misses


def _cross_engine_fields(result):
    """What a 1-core multi-core run must reproduce of a single-core run."""
    return {
        "elapsed_ns": result.elapsed_ns,
        "l3_misses": result.l3_misses,
        "tlb_misses": result.tlb_misses,
        "dram_reads": result.dram_reads,
        "dram_writes": result.dram_writes,
        "avg_l3_miss_latency_ns": result.avg_l3_miss_latency_ns,
        "cte_hit_rate": result.cte_hit_rate,
        "path_fractions": result.path_fractions,
        "dram_used_bytes": result.dram_used_bytes,
    }


def _touching_an_unmapped_page(workload):
    """``workload`` with three accesses moved to one page outside its
    mapped footprint."""
    trace = workload.trace
    addresses = trace.addresses[:]
    unmapped = (workload.base_vpn + workload.footprint_pages + 7) << 12
    for index in (100, 400, 800):
        addresses[index] = unmapped + 64 * index % 4096
    return dataclasses.replace(
        workload, trace=type(trace)(addresses, trace.writes[:]))


def test_multicore_vs_singlecore_same_memory_system():
    """A 1-core MultiCoreSimulator is the single-core Simulator (without
    placement drift), exactly, on every shared result field; also on a
    page outside the mapped footprint, whose first access fills the TLB
    on both engines."""
    workloads = [workload_by_name(name, max_accesses=6_000, scale=0.08)
                 for name in ("canneal", "mcf")]
    workloads.append(_touching_an_unmapped_page(
        workload_by_name("omnetpp", max_accesses=4_000, scale=0.05)))
    for workload in workloads:
        for controller in available_controllers():
            single = Simulator(workload, controller=controller,
                               placement_drift=0.0).run(warmup_fraction=0.0)
            multi = MultiCoreSimulator(
                workload, num_cores=1,
                controller=controller).run(warmup_fraction=0.0)
            assert (_cross_engine_fields(multi)
                    == _cross_engine_fields(single)), (
                f"{workload.name}/{controller}")


def test_multicore_warmup_resets_like_singlecore():
    """Statistics reset after exactly the warm-up accesses, as on one
    core: a 1-core MultiCoreSimulator at warm-up 0.2 is the single-core
    Simulator (without placement drift) on every shared result field."""
    for name in ("canneal", "mcf"):
        workload = workload_by_name(name, max_accesses=6_000, scale=0.08)
        for controller in available_controllers():
            single = Simulator(workload, controller=controller,
                               placement_drift=0.0).run(warmup_fraction=0.2)
            multi = MultiCoreSimulator(
                workload, num_cores=1,
                controller=controller).run(warmup_fraction=0.2)
            assert multi.accesses == single.accesses
            assert (_cross_engine_fields(multi)
                    == _cross_engine_fields(single)), (
                f"{workload.name}/{controller}")
