"""Tests for the simulator on more than one core."""

import dataclasses

import pytest

from repro.common.errors import ConfigError
from repro.core import available_controllers
from repro.sim import fastpath
from repro.sim.context import SimContext
from repro.sim.experiments import run_workload
from repro.sim.faults import FaultPlan
from repro.sim.simulator import RunProgress, Simulator
from repro.sim.supervisor import RunSupervisor
from repro.sim.timeseries import TimeSeriesRecorder
from repro.sim.tracing import SpanTracer
from repro.workloads.suite import workload_by_name


@pytest.fixture(scope="module")
def workload():
    return workload_by_name("canneal", max_accesses=24_000, scale=0.12)


def test_validation(workload):
    for cores in (0, -1):
        with pytest.raises(ConfigError, match="cores must be >= 1"):
            Simulator(workload, cores=cores)
    with pytest.raises(ValueError):
        Simulator(workload, controller="warp-drive", cores=4)
    # What only the single-core loop runs: the multi-core loop walks 4 KB
    # pages natively, with no observer but bus events.
    profiled = SimContext()
    profiled.enable_profiling()
    for options, name in (({"huge_pages": True}, "huge_pages"),
                          ({"virtualized": True}, "virtualized"),
                          ({"fault_plan": FaultPlan.parse(
                              "dram_read_error:0.1")}, "fault_plan"),
                          ({"resilience": True}, "resilience"),
                          ({"context": profiled}, "profiler")):
        with pytest.raises(ConfigError, match=f"cannot run with {name}"):
            Simulator(workload, cores=2, **options)
    with pytest.raises(ConfigError, match="cannot run with huge_pages"):
        run_workload(workload, "tmcc", huge_pages=True, cores=4)
    sim = Simulator(workload, controller="uncompressed", cores=2)
    with pytest.raises(ConfigError, match="cannot run with tracer"):
        sim.attach_tracer(SpanTracer())
    with pytest.raises(ConfigError, match="cannot run with timeseries"):
        sim.attach_timeseries(
            TimeSeriesRecorder(sim.context.metrics, 1000.0))
    with pytest.raises(ConfigError, match="cannot run with supervisor"):
        RunSupervisor(wall_clock_limit_s=60.0).run(sim)
    assert sim.tracer is None and sim.timeseries is None


def test_four_cores_complete_the_whole_trace(workload):
    result = Simulator(workload, cores=4, controller="uncompressed").run()
    assert result.accesses == int(workload.access_count * 0.8)
    assert result.elapsed_ns > 0


def test_aggregate_throughput_scales_with_cores(workload):
    """Four concurrent streams finish faster than one serial stream."""
    one = Simulator(workload, controller="uncompressed",
                    placement_drift=0.0).run()
    four = Simulator(workload, controller="uncompressed", cores=4).run()
    assert four.performance > 1.5 * one.performance


def test_shared_resources_create_contention(workload):
    """Per-core efficiency drops going 1 -> 4 cores (DRAM/L3 sharing)."""
    one = Simulator(workload, controller="uncompressed",
                    placement_drift=0.0).run()
    four = Simulator(workload, controller="uncompressed", cores=4).run()
    assert four.performance < 4.2 * one.performance


def test_tmcc_still_beats_compresso_at_four_cores(workload):
    compresso = Simulator(workload, cores=4, controller="compresso").run()
    tmcc = Simulator(
        workload, cores=4, controller="tmcc",
        dram_budget_bytes=compresso.dram_used_bytes,
    ).run()
    assert tmcc.performance > compresso.performance
    assert tmcc.avg_l3_miss_latency_ns < compresso.avg_l3_miss_latency_ns


def test_multicore_determinism(workload):
    a = Simulator(workload, cores=2, controller="tmcc", seed=9).run()
    b = Simulator(workload, cores=2, controller="tmcc", seed=9).run()
    assert a.elapsed_ns == b.elapsed_ns
    assert a.l3_misses == b.l3_misses


def _cross_engine_fields(result):
    """What the multi-core loop on one core must reproduce of the
    single-core loop."""
    return {
        "elapsed_ns": result.elapsed_ns,
        "l3_misses": result.l3_misses,
        "l3_data_misses": result.l3_data_misses,
        "tlb_misses": result.tlb_misses,
        "cte_misses": result.cte_misses,
        "cte_misses_after_tlb_miss": result.cte_misses_after_tlb_miss,
        "dram_reads": result.dram_reads,
        "dram_writes": result.dram_writes,
        "avg_l3_miss_latency_ns": result.avg_l3_miss_latency_ns,
        "cte_hit_rate": result.cte_hit_rate,
        "path_fractions": result.path_fractions,
        "dram_used_bytes": result.dram_used_bytes,
        "extra": result.extra,
    }


def _run_cores(sim, warmup_fraction):
    """``sim.run(warmup_fraction)`` with the replay done by the
    multi-core loop, :func:`repro.sim.fastpath.run_cores`."""
    state = RunProgress(
        index=0, warmup_end=int(len(sim.workload.trace) * warmup_fraction))
    fastpath.run_cores(sim, state)
    return sim._build_result(state.measured,
                             sim.clock.now_ns - state.measure_start_ns)


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
    """The multi-core loop on one core is the single-core loop (without
    placement drift), exactly, on every shared result field; also on a
    page outside the mapped footprint, whose first access fills the TLB
    on both loops."""
    workloads = [workload_by_name(name, max_accesses=6_000, scale=0.08)
                 for name in ("canneal", "mcf")]
    workloads.append(_touching_an_unmapped_page(
        workload_by_name("omnetpp", max_accesses=4_000, scale=0.05)))
    for workload in workloads:
        for controller in available_controllers():
            single = Simulator(workload, controller=controller,
                               placement_drift=0.0).run(warmup_fraction=0.0)
            multi = _run_cores(Simulator(workload, controller=controller,
                                         placement_drift=0.0), 0.0)
            assert (_cross_engine_fields(multi)
                    == _cross_engine_fields(single)), (
                f"{workload.name}/{controller}")


def test_multicore_warmup_resets_like_singlecore():
    """Statistics reset after exactly the warm-up accesses, as on one
    core: the multi-core loop on one core at warm-up 0.2 is the
    single-core loop (without placement drift) on every shared result
    field."""
    for name in ("canneal", "mcf"):
        workload = workload_by_name(name, max_accesses=6_000, scale=0.08)
        for controller in available_controllers():
            single = Simulator(workload, controller=controller,
                               placement_drift=0.0).run(warmup_fraction=0.2)
            multi = _run_cores(Simulator(workload, controller=controller,
                                         placement_drift=0.0), 0.2)
            assert multi.accesses == single.accesses
            assert (_cross_engine_fields(multi)
                    == _cross_engine_fields(single)), (
                f"{workload.name}/{controller}")
