"""Tests for DRAM timing, interleaving, and the bank/queue model."""

import pytest

from repro.dram.interleave import (
    PAGE_EVERYWHERE,
    SUBPAGE_EVERYWHERE,
    TMCC_COMPATIBLE,
    InterleavePolicy,
)
from repro.dram.system import DRAMConfig, DRAMSystem
from repro.dram.timing import DDR4Timing


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------

def test_timing_components():
    timing = DDR4Timing()
    assert timing.row_hit_ns < timing.row_closed_ns < timing.row_conflict_ns
    assert timing.row_hit_ns == pytest.approx(13.75 + 2.5)
    assert timing.row_conflict_ns == pytest.approx(3 * 13.75 + 2.5)


# ----------------------------------------------------------------------
# Interleaving
# ----------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        InterleavePolicy("bad", 100, 256)
    with pytest.raises(ValueError):
        InterleavePolicy("bad", 256, 32)


def test_subpage_policy_spreads_a_page_across_mcs():
    mcs = {
        SUBPAGE_EVERYWHERE.route(addr, 2, 2)[0] for addr in range(0, 4096, 512)
    }
    assert mcs == {0, 1}


def test_tmcc_policy_keeps_a_page_on_one_mc():
    routes = [TMCC_COMPATIBLE.route(addr, 2, 2) for addr in range(0, 4096, 256)]
    assert {mc for mc, _, _ in routes} == {0}
    assert {ch for _, ch, _ in routes} == {0, 1}  # channels still interleave


def test_page_everywhere_keeps_page_on_one_channel():
    routes = [PAGE_EVERYWHERE.route(addr, 2, 2) for addr in range(0, 4096, 256)]
    assert {(mc, ch) for mc, ch, _ in routes} == {(0, 0)}


def test_route_produces_dense_local_addresses():
    policy = SUBPAGE_EVERYWHERE
    locals_seen = [policy.route(addr, 2, 2)[2] for addr in range(0, 4096, 64)]
    # Each of the 4 channel slices sees a dense quarter of the range.
    assert max(locals_seen) < 4096 // 4


# ----------------------------------------------------------------------
# Bank / row-buffer model
# ----------------------------------------------------------------------

def test_row_hit_is_cheaper_than_conflict():
    dram = DRAMSystem()
    first = dram.read(0, now_ns=0.0)
    assert not first.row_hit
    second = dram.read(64, now_ns=100.0)
    assert second.row_hit
    assert second.bank_ns < first.bank_ns


def test_row_cap_forces_periodic_precharge():
    dram = DRAMSystem(DRAMConfig(row_cap=4))
    results = [dram.read(i * 64, now_ns=i * 100.0) for i in range(12)]
    # After 4 consecutive hits the cap forces a non-hit access.
    hits = [r.row_hit for r in results]
    assert not all(hits[1:])
    assert any(hits)


def test_different_rows_conflict():
    dram = DRAMSystem()
    dram.read(0, 0.0)
    # Same bank, different row: need a row_size * banks-stride address.
    conflict = dram.read(1 << 22, 100.0)
    r = dram.read(0, 200.0)
    assert not r.row_hit or not conflict.row_hit


def test_queue_contention_under_burst():
    dram = DRAMSystem()
    # Many reads at the same instant pile onto the channel bus.
    latencies = [dram.read(i * 4096, now_ns=0.0).latency_ns for i in range(32)]
    assert latencies[-1] > latencies[0]
    assert dram.read(0, now_ns=1e9).queue_ns == 0.0


def test_noc_latency_is_included():
    dram = DRAMSystem()
    result = dram.read(0, 0.0)
    timing = dram.config.timing
    assert result.latency_ns >= timing.noc_ns + timing.row_closed_ns


def test_writes_consume_bus_time():
    dram = DRAMSystem()
    for i in range(16):
        dram.write(i * 4096, now_ns=0.0)
    read = dram.read(1 << 30, now_ns=0.0)
    assert read.queue_ns > 0.0


def test_rank_targeted_writes_interfere_less():
    def read_after_writes(rank_targeted):
        dram = DRAMSystem(DRAMConfig(rank_targeted_writes=rank_targeted))
        for i in range(16):
            dram.write(i * 4096, now_ns=0.0)
        return dram.read(1 << 30, now_ns=0.0).queue_ns

    assert read_after_writes(True) < read_after_writes(False)


def test_stats_and_bandwidth():
    dram = DRAMSystem()
    for i in range(10):
        dram.read(i * 64, now_ns=i * 10.0)
    dram.write(0, 100.0)
    stats = dram.stats.as_dict()
    assert stats["reads"] == 10
    assert stats["writes"] == 1
    util = dram.bandwidth_utilization(elapsed_ns=100.0)
    assert 0.0 < util <= 1.0
    assert dram.bandwidth_utilization(0) == 0.0


@pytest.mark.parametrize("channels", [1, 2])
def test_read_is_read_ns_plus_breakdown(channels):
    """``read`` serves exactly the request ``read_ns`` does (same latency,
    same bank/queue/stat evolution) and adds where the time went."""
    config = DRAMConfig(channels_per_mc=channels)
    plain, explained = DRAMSystem(config), DRAMSystem(config)
    for i in range(64):
        address, now = (i * 4160) % (1 << 24), i * 7.5
        latency = plain.read_ns(address, now)
        result = explained.read(address, now)
        assert result.latency_ns == latency
        assert result.queue_ns >= 0.0 and result.bank_ns > 0.0
        mc, channel, _ = explained._route(address)
        assert (result.mc, result.channel) == (mc, channel)
    assert plain.stats.as_dict() == explained.stats.as_dict()


def test_multi_channel_parallelism():
    """Two channels absorb a burst better than one."""
    def burst_total(channels):
        config = DRAMConfig(channels_per_mc=channels, interleave=SUBPAGE_EVERYWHERE)
        dram = DRAMSystem(config)
        return sum(dram.read(i * 256, now_ns=0.0).queue_ns for i in range(32))

    assert burst_total(2) < burst_total(1)


def test_bank_conflicts_serialize_same_bank_requests():
    """Two same-instant requests to one bank wait on each other; requests
    to different banks do not."""
    dram = DRAMSystem()
    first = dram.read(0, now_ns=0.0)
    # Same bank, different row: forced conflict AND bank occupancy wait.
    second = dram.read(1 << 22, now_ns=0.0)
    assert second.latency_ns > first.latency_ns
    # A fresh bank at the same instant pays no bank wait (only bus queue).
    other = dram.read(1 << 14, now_ns=0.0)
    assert other.latency_ns < second.latency_ns


def test_bank_backlog_decays():
    dram = DRAMSystem()
    dram.read(0, now_ns=0.0)
    late = dram.read(1 << 22, now_ns=1e6)  # long after the bank drained
    relaxed = dram.read(0, now_ns=2e6)
    assert relaxed.latency_ns <= late.latency_ns + 1e-9
