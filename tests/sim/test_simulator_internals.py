"""Unit tests for simulator internals: warmup, placement, classification."""

from dataclasses import replace

import pytest

from repro.sim.simulator import Simulator
from repro.workloads.suite import workload_by_name
from repro.workloads.trace import Trace


@pytest.fixture(scope="module")
def workload():
    return workload_by_name("omnetpp", max_accesses=12_000, scale=0.06)


def test_warmup_resets_statistics(workload):
    sim = Simulator(workload, controller="tmcc")
    result = sim.run(warmup_fraction=0.5)
    # Measured accesses exclude the warmup half.
    assert result.accesses == workload.access_count // 2
    # TLB stats only cover the measured region.
    assert sim.tlb.stats.total <= workload.access_count // 2 + 1


def test_zero_warmup_counts_everything(workload):
    sim = Simulator(workload, controller="uncompressed")
    result = sim.run(warmup_fraction=0.0)
    assert result.accesses == workload.access_count


def _fresh_space(**kwargs):
    """The address space of a simulator on a workload of its own."""
    fresh = workload_by_name("omnetpp", max_accesses=12_000, scale=0.06)
    return Simulator(fresh, controller="tmcc", **kwargs).space


def test_placement_drift_moves_warm_pages_to_ml2():
    none = _fresh_space(placement_drift=0.0, seed=3)
    lots = _fresh_space(placement_drift=0.3, seed=3)
    assert none is not lots
    # With no budget pressure everything fits in ML1 either way; compare
    # hotness ordering instead: drift demotes some warm pages below the
    # untouched ones.
    assert none.hotness.keys() == lots.hotness.keys()
    moved = sum(1 for ppn in none.hotness
                if none.hotness[ppn] != lots.hotness[ppn])
    assert moved > 0


def test_placement_drift_is_seeded():
    a = _fresh_space(seed=9)
    b = _fresh_space(seed=9)
    assert a is not b
    assert a.hotness == b.hotness
    assert a.data_ppns == b.data_ppns
    assert a.hotness != _fresh_space(seed=10).hotness


def test_fig5_classification_counts_walk_misses(workload):
    sim = Simulator(workload, controller="compresso")
    sim.run()
    # Classification never exceeds totals.
    assert 0 <= sim._fig5_after_tlb <= sim._fig5_cte_misses


def test_footprint_and_usage_reporting(workload):
    result = Simulator(workload, controller="uncompressed").run()
    assert result.footprint_bytes == workload.footprint_pages * 4096
    assert result.dram_used_bytes >= result.footprint_bytes


def test_budget_is_respected_end_to_end(workload):
    compresso = Simulator(workload, controller="compresso").run()
    budget = compresso.dram_used_bytes
    tmcc = Simulator(workload, controller="tmcc",
                     dram_budget_bytes=budget).run()
    assert tmcc.dram_used_bytes <= budget * 1.02


def test_trace_outside_footprint_does_not_crash():
    """Addresses past the mapped region are skipped gracefully."""
    built = workload_by_name("omnetpp", max_accesses=4_000, scale=0.05)
    outside = (built.base_vpn + built.footprint_pages + 99) << 12
    workload = replace(built, trace=Trace.from_records(
        [*built.trace, (outside, False)]))
    result = Simulator(workload, controller="tmcc").run()
    assert result.accesses > 0


def test_result_json_roundtrip(tmp_path, workload):
    result = Simulator(workload, controller="compresso").run()
    path = tmp_path / "stats.json"
    result.to_json(path)
    from repro.sim.results import SimResult

    loaded = SimResult.from_json(path)
    assert loaded.workload == result.workload
    assert loaded.accesses == result.accesses
    assert loaded.performance == result.performance
    assert loaded.compression_ratio == result.compression_ratio
    assert loaded.path_fractions == result.path_fractions


def test_result_as_dict_has_derived_metrics(workload):
    result = Simulator(workload, controller="uncompressed").run()
    record = result.as_dict()
    assert record["performance"] == result.performance
    assert "tlb_misses_per_l3_miss" in record
    assert record["controller"] == "uncompressed"
